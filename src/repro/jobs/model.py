"""The job model: experiments as an explicit dependency graph.

One *profile* job exists per ``(app, dataset, preprocessing)`` triple —
the expensive step (workload construction, cache replays, compression
measurement).  One *price* job exists per requested
``(app, scheme, dataset, preprocessing)`` simulation; it depends
on its profile job, so the six schemes of a Fig 15 bar group share a
single profiling pass, as a :class:`~repro.stages.StagePricer`'s
per-identity bundle memo shares it in-process.

The executor (:mod:`repro.jobs.executor`) schedules profile jobs and
their dependent price jobs onto one worker as a *group*, which keeps the
shared profiles in the worker's memory instead of shipping them across
process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


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
    def profile_key(self) -> Tuple[str, str, str]:
        return (self.app, self.dataset, self.preprocessing)

    def describe(self) -> str:
        return (f"{self.app}/{self.dataset}/{self.preprocessing}/"
                f"{self.scheme}")


@dataclass(frozen=True)
class JobSpec:
    """One node of the job graph."""

    job_id: str
    kind: str  # "profile" or "price"
    app: str
    dataset: str
    preprocessing: str
    scheme: str = ""  # empty for profile jobs
    deps: Tuple[str, ...] = ()


@dataclass
class JobGraph:
    """A dependency-ordered set of jobs built from run requests."""

    jobs: Dict[str, JobSpec] = field(default_factory=dict)
    #: request -> price job id, in first-seen request order.
    request_jobs: Dict[RunRequest, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def profile_jobs(self) -> List[JobSpec]:
        return sorted((j for j in self.jobs.values()
                       if j.kind == "profile"),
                      key=lambda j: j.job_id)

    @property
    def price_jobs(self) -> List[JobSpec]:
        return sorted((j for j in self.jobs.values() if j.kind == "price"),
                      key=lambda j: j.job_id)

    def groups(self) -> List[Tuple[JobSpec, List[JobSpec]]]:
        """(profile job, dependent price jobs) pairs, deterministically
        ordered — the executor's unit of dispatch."""
        by_profile: Dict[str, List[JobSpec]] = {}
        for job in self.price_jobs:
            for dep in job.deps:
                by_profile.setdefault(dep, []).append(job)
        return [(profile, by_profile.get(profile.job_id, []))
                for profile in self.profile_jobs]

    def topological(self) -> List[JobSpec]:
        """All jobs with every dependency before its dependents."""
        order: List[JobSpec] = []
        for profile, prices in self.groups():
            order.append(profile)
            order.extend(prices)
        return order


def profile_job_id(app: str, dataset: str, preprocessing: str) -> str:
    return f"profile:{app}/{dataset}/{preprocessing}"


def price_job_id(request: RunRequest) -> str:
    return f"price:{request.describe()}"


def build_job_graph(requests: Iterable[RunRequest]) -> JobGraph:
    """Deduplicate requests and link each to its shared profile job."""
    graph = JobGraph()
    for request in requests:
        if request in graph.request_jobs:
            continue
        pid = profile_job_id(*request.profile_key)
        if pid not in graph.jobs:
            graph.jobs[pid] = JobSpec(
                job_id=pid, kind="profile", app=request.app,
                dataset=request.dataset,
                preprocessing=request.preprocessing)
        jid = price_job_id(request)
        if jid not in graph.jobs:
            graph.jobs[jid] = JobSpec(
                job_id=jid, kind="price", app=request.app,
                dataset=request.dataset,
                preprocessing=request.preprocessing,
                scheme=request.scheme, deps=(pid,))
        graph.request_jobs[request] = jid
    return graph
