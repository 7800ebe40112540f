"""Round-robin dataflow scheduler (paper Sec III-B, "Scheduler").

Each cycle the scheduler picks one *ready* operator context: its input
queue has an element, its output queues have space, and its functional
unit can accept work (all folded into ``Operator.ready``).  A round-robin
pointer provides fairness among ready contexts, exactly as in the paper.

The engine's skip-ahead (``repro.engine.base.skip_frozen``) jumps over
cycles in which nothing can fire; :meth:`RoundRobinScheduler.skip_idle`
books those cycles, so ``activity_factor`` keeps meaning "fraction of
simulated cycles with an operator firing" whether or not each idle
cycle was executed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dcl.operators import Operator


class RoundRobinScheduler:
    """Picks at most one ready operator per cycle, round-robin."""

    def __init__(self, operators: List[Operator]) -> None:
        self.operators = list(operators)
        self._next = 0
        self.issued = 0
        self.idle_cycles = 0
        #: idle cycles that skip-ahead jumped over without executing
        #: (always <= idle_cycles; the remainder were scanned one by one).
        self.skipped_idle_cycles = 0
        self.fires_by_op: Dict[str, int] = {op.name: 0
                                            for op in self.operators}

    def pick(self, engine) -> Optional[Operator]:
        """Return the next ready operator, advancing the pointer."""
        n = len(self.operators)
        for step in range(n):
            op = self.operators[(self._next + step) % n]
            if op.ready(engine):
                self._next = (self._next + step + 1) % n
                self.issued += 1
                self.fires_by_op[op.name] += 1
                return op
        self.idle_cycles += 1
        return None

    def skip_idle(self, cycles: int) -> None:
        """Account ``cycles`` idle cycles elided by skip-ahead.

        The per-cycle reference calls :meth:`pick` once per idle cycle
        (each incrementing ``idle_cycles``); the engine's skip-ahead
        jumps those cycles in one step and books them here so activity
        statistics stay identical to the per-cycle loop's.
        """
        if cycles < 0:
            raise ValueError("cannot skip a negative cycle count")
        self.idle_cycles += cycles
        self.skipped_idle_cycles += cycles

    def activity_factor(self) -> float:
        """Fraction of cycles with an operator firing (paper: ~33%).

        Skipped idle cycles are part of the denominator — the engine and
        the per-cycle reference report the same factor for the same run.
        """
        total = self.issued + self.idle_cycles
        return self.issued / total if total else 0.0
