"""The job model: a cell is a :class:`RunRequest`, a group is the cells
of one identity, and a :class:`WalkRequest` is one functional-engine
walk.

A *cell* is one requested ``(app, scheme, dataset, preprocessing)``
simulation.  Its *identity* is ``(app, dataset, preprocessing)``: the
expensive profiling pass (workload construction, cache replays,
compression measurement) that every scheme of one input shares, as a
:class:`~repro.stages.StagePricer`'s per-identity bundle memo shares
it in-process.

:func:`group_requests` turns requests into ``(identity, cells)``
groups, the executor's unit of dispatch (:mod:`repro.jobs.executor`):
one worker runs a whole group, which keeps the shared profiles in its
memory instead of shipping them across process boundaries.  A walk is
dispatched on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.config import SpZipConfig

#: ``(app, dataset, preprocessing)``: what every scheme's cell of one
#: input shares.
Identity = Tuple[str, str, str]


def canonical_request(app: str, scheme: object, dataset: str,
                      preprocessing: str = "none",
                      parts: Optional[Iterable[str]] = None,
                      decoupled_only: bool = False) -> "RunRequest":
    """Build a :class:`RunRequest` with the scheme in canonical form.

    The ablation knobs (``parts``, ``decoupled_only``) are folded into
    the scheme's canonical string (``phi+spzip[parts=adjacency]``), so
    Fig 19/20 variants are distinct scheme identities — and therefore
    distinct cache keys.
    """
    from repro.schemes import resolve
    spec = resolve(scheme,  # type: ignore[arg-type]
                   parts=parts, decoupled_only=bool(decoupled_only))
    return RunRequest(app, spec.canonical(), dataset, preprocessing)


@dataclass(frozen=True, order=True)
class RunRequest:
    """One simulation the caller wants: JobRunner.run's argument tuple."""

    app: str
    scheme: str
    dataset: str
    preprocessing: str = "none"

    @property
    def profile_key(self) -> Identity:
        return (self.app, self.dataset, self.preprocessing)

    def describe(self) -> str:
        return (f"{self.app}/{self.dataset}/{self.preprocessing}/"
                f"{self.scheme}")


@dataclass(frozen=True)
class WalkRequest:
    """One functional-engine walk (Fig 21): a fetcher with ``config``
    walks the first ``rows`` rows of a dataset's compressed adjacency
    against a flat ``mem_latency`` memory port (see
    :meth:`~repro.stages.StagePricer.traversal_cycles`)."""

    dataset: str
    preprocessing: str
    config: SpZipConfig
    rows: int
    mem_latency: int

    def describe(self) -> str:
        return (f"{self.dataset}/{self.preprocessing}/"
                f"{self.config.scratchpad_bytes}B/{self.rows}rows/"
                f"{self.mem_latency}cy")


def group_requests(requests: Iterable[RunRequest]
                   ) -> List[Tuple[Identity, List[RunRequest]]]:
    """Deduplicated ``(identity, cells)`` groups, identities sorted and
    each group's cells sorted by scheme: one dispatch order, whatever
    order the requests came in."""
    groups: Dict[Identity, Set[RunRequest]] = {}
    for request in requests:
        groups.setdefault(request.profile_key, set()).add(request)
    return [(identity, sorted(groups[identity]))
            for identity in sorted(groups)]


def job_label(cell: Union[RunRequest, Identity, WalkRequest]) -> str:
    """``price:app/dataset/preprocessing/scheme`` for a cell,
    ``profile:app/dataset/preprocessing`` for an identity and
    ``walk:dataset/preprocessing/...`` for a walk: the ``job_id`` that
    spans and progress text name it by."""
    if isinstance(cell, RunRequest):
        return f"price:{cell.describe()}"
    if isinstance(cell, WalkRequest):
        return f"walk:{cell.describe()}"
    return "profile:" + "/".join(cell)
