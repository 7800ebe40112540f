"""The runner: every experiment prices its cells through the job layer.

:class:`JobRunner` turns (app, scheme, dataset, preprocessing) cells
into :class:`~repro.sim.metrics.RunMetrics`.  Every cell comes from a
:meth:`~JobRunner.prefetch`: one :class:`~repro.jobs.executor.JobExecutor`
run over a batch of requests (the disk cache first, then
:func:`~repro.jobs.executor.execute_group`, on a process pool when
``jobs > 1``).  A :meth:`~JobRunner.run` of a cell no prefetch brought
is a one-cell prefetch, so ``execute_group`` is the only code that
prices and stores a cell.

:meth:`~JobRunner.walks` prices Fig 21's functional-engine walks the
same way: one executor pass looks each walk up in the store, walks
the misses through the dispatcher (on the pool when ``jobs > 1`` and
two or more miss) and keeps every result in the runner's memo.

:meth:`~JobRunner.profiles` reads through the stage pricer this
process's in-process groups use
(:func:`~repro.jobs.executor.pricer_for`), bound to the same store, so
experiments that inspect raw profiles (sorting) reuse what a prefetch
built or the pool stored instead of re-profiling in the parent.  The
pricer is shared by every runner on the same configuration and store,
so each runner points the store's error channel at its own
``progress`` before it uses it: a corrupt cell or stage artifact is
reported to the runner that read it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.config import SystemConfig
from repro.graph.datasets import DEFAULT_SCALE
from repro.jobs.cache import StoreConfig
from repro.jobs.executor import JobExecutor, pricer_for
from repro.jobs.model import RunRequest, WalkRequest, canonical_request
from repro.jobs.telemetry import TelemetryWriter, default_telemetry_path
from repro.obs import TRACER
from repro.runtime.traffic import IterationProfile
from repro.sim.metrics import RunMetrics


class JobRunner:
    """Memoizing runner whose results flow through the job layer."""

    def __init__(self, scale: int = DEFAULT_SCALE,
                 system: Optional[SystemConfig] = None,
                 jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 telemetry_path: Optional[str] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 progress: Optional[Callable[[str], None]] = None,
                 partitions: int = 1
                 ) -> None:
        self.scale = scale
        self.system = system if system is not None \
            else SystemConfig().scaled(scale)
        self.jobs = jobs
        self.store = StoreConfig(root=cache_dir or None,
                                 stream_partitions=partitions)
        if telemetry_path is None and cache_dir:
            telemetry_path = default_telemetry_path(cache_dir)
        self.telemetry_path = telemetry_path
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self._results: Dict[RunRequest, RunMetrics] = {}
        self._walks: Dict[WalkRequest, int] = {}
        self._telemetry: Optional[TelemetryWriter] = None

    def _pricer(self):
        """This process's pricer for the runner's configuration and
        store, its store errors routed to this runner's progress."""
        pricer = pricer_for(self.scale, self.system, self.store)
        pricer.cache.on_error = self.progress
        return pricer

    # -- orchestration -----------------------------------------------------

    def _writer(self) -> TelemetryWriter:
        """One telemetry stream shared by every prefetch/run of this
        runner, so a whole report lands in a single JSONL file."""
        if self._telemetry is None:
            self._telemetry = TelemetryWriter(path=self.telemetry_path)
        return self._telemetry

    def _executor(self) -> JobExecutor:
        return JobExecutor(
            scale=self.scale, system=self.system, jobs=self.jobs,
            store=self.store, telemetry=self._writer(),
            timeout=self.timeout, retries=self.retries,
            progress=self.progress)

    def prefetch(self, requests: Iterable[RunRequest]
                 ) -> Dict[RunRequest, RunMetrics]:
        """Execute (or load from cache) a batch of requests in one
        executor run; requests already in memory need none.

        Returns the requested cells' metrics, and no other cell's.
        """
        requests = list(requests)
        todo = [r for r in requests if r not in self._results]
        if todo:
            self._results.update(self._executor().run(todo))
        return {r: self._results[r] for r in requests}

    def walks(self, requests: Iterable[WalkRequest]
              ) -> Dict[WalkRequest, int]:
        """Cycles of each functional-engine walk (see
        :meth:`~repro.jobs.executor.JobExecutor.walks`); walks already
        in memory need no executor.

        Returns the requested walks' cycles, and no other walk's.
        """
        requests = list(requests)
        todo = [w for w in requests if w not in self._walks]
        if todo:
            self._walks.update(self._executor().walks(todo))
        return {w: self._walks[w] for w in requests}

    # -- simulation --------------------------------------------------------

    def run(self, app: str, scheme, dataset: str,
            preprocessing: str = "none", **kwargs) -> RunMetrics:
        """Simulate one configuration.

        ``scheme`` is a name (including ablation brackets, e.g.
        ``phi+spzip[parts=adjacency]``) or a
        :class:`~repro.schemes.SchemeSpec`; kwargs feed the legacy
        ablation knobs (``parts``, ``decoupled_only``), which
        canonicalization folds into the scheme name, so both spellings
        share one request, memo entry and cache key.  A cell no
        prefetch brought is priced by a one-cell :meth:`prefetch`.
        """
        request = canonical_request(app, scheme, dataset, preprocessing,
                                    **kwargs)
        hit = self._results.get(request)
        if hit is not None:
            return hit
        # One span per (app, scheme, input) cell, tagged with the
        # canonical scheme string — the unit the paper's sweep (and
        # `repro perf diff`) attributes wall time to.
        with TRACER.span("runner.cell", app=app, scheme=request.scheme,
                         dataset=dataset, preprocessing=preprocessing):
            return self.prefetch([request])[request]

    def run_all_schemes(self, app: str, dataset: str,
                        preprocessing: str = "none",
                        schemes=None) -> Dict[str, RunMetrics]:
        """Run one app against a set of schemes.

        ``schemes`` is a registry group name (``"paper"``, ``"cmh"``,
        ``"extensions"``, ``"all"``), an iterable of scheme
        names/specs, or ``None`` for the paper's six schemes.  Keys of
        the result are the scheme names as given (canonical form for
        specs).
        """
        from repro.schemes import SchemeSpec, scheme_names
        if schemes is None:
            schemes = scheme_names("paper")
        elif isinstance(schemes, str):
            schemes = scheme_names(schemes)
        out: Dict[str, RunMetrics] = {}
        for scheme in schemes:
            key = scheme.canonical() if isinstance(scheme, SchemeSpec) \
                else str(scheme)
            out[key] = self.run(app, scheme, dataset, preprocessing)
        return out

    def profiles(self, app: str, dataset: str,
                 preprocessing: str = "none") -> List[IterationProfile]:
        """The assembled iteration profiles of one identity."""
        return self._pricer().bundle(app, dataset, preprocessing).profiles
