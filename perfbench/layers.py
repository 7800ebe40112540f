"""Per-layer tracing from outside the program.

:class:`LayerTrace` wraps the public entry points of each layer in
``repro.obs.TRACER`` spans named ``layer.<layer>``.  Nothing under
``src/`` changes: the wrappers replace module and class attributes for
the length of a traced run and :meth:`LayerTrace.restore` puts the
originals back.  They are installed before any pool forks, so pool
workers inherit them and their spans come back through the tracer's
part-file protocol.

:func:`layer_totals` turns the spans into per-layer self time: a span's
duration minus the part of its interval covered by nested layer spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from typing import Callable, Dict, Iterable, List, Optional, Tuple

PREFIX = "layer."

#: The pricing stages, in pipeline order.
STAGES = ("stream", "replay", "compress", "timing")


def _attach(wrapper: Callable, original: Callable) -> Callable:
    """Copy identity (so pool pickling by name still resolves) and the
    ``lru_cache`` controls some callers reach through."""
    functools.update_wrapper(wrapper, original)
    for name in ("cache_clear", "cache_info"):
        if hasattr(original, name):
            setattr(wrapper, name, getattr(original, name))
    return wrapper


def _timed(name: str, original: Callable,
           attrs: Optional[Callable] = None) -> Callable:
    """Wrap ``original`` in a span; ``attrs(result, args)`` may tag it."""
    from repro.obs import TRACER

    if inspect.iscoroutinefunction(original):
        async def wrapper(*args, **kwargs):
            with TRACER.span(PREFIX + name) as span:
                result = await original(*args, **kwargs)
                if attrs is not None:
                    span.set(**attrs(result, args))
                return result
    else:
        def wrapper(*args, **kwargs):
            with TRACER.span(PREFIX + name) as span:
                result = original(*args, **kwargs)
                if attrs is not None:
                    span.set(**attrs(result, args))
                return result
    return _attach(wrapper, original)


def _partition_counting(original: Callable) -> Callable:
    """Count partitions requested and built through the ``fetch`` hook
    of ``generate_streams_partitioned``."""
    from repro.obs import TRACER

    def wrapper(workload, partitions, fetch=None):
        if fetch is None:
            return original(workload, partitions, fetch)
        counts = {"requested": 0, "built": 0}

        def counting_fetch(key, build):
            counts["requested"] += 1

            def counted_build():
                counts["built"] += 1
                return build()
            return fetch(key, counted_build)

        result = original(workload, partitions, counting_fetch)
        TRACER.manual_span(PREFIX + "stage.partition", 0.0, **counts)
        return result
    return _attach(wrapper, original)


def _admission_timing(original: Callable) -> Callable:
    """Record the wait ``AdmissionController.slot`` reports."""
    from repro.obs import TRACER

    @contextlib.asynccontextmanager
    async def slot(self):
        async with original(self) as waited_s:
            TRACER.manual_span(PREFIX + "serve.admission", waited_s)
            yield waited_s
    return _attach(slot, original)


def _targets() -> List[Tuple[object, str, Callable]]:
    """(owner, attribute, wrapper factory) for every traced entry point."""
    import repro.engine
    import repro.engine.driver
    import repro.graph.datasets
    import repro.jobs.executor
    import repro.serve.app
    import repro.serve.pool
    import repro.sim.runner
    import repro.stages.pipeline
    import repro.stages.streams
    from repro.harness.experiments import EXPERIMENTS
    from repro.jobs.orchestrator import JobRunner
    from repro.serve.admission import AdmissionController

    def plain(name, attrs=None):
        return lambda original: _timed(name, original, attrs)

    def group_attrs(result, args):
        return {"cells": len(args[3])}

    def lookup_attrs(result, _args):
        hits, keys = result
        return {"hits": len(hits), "keys": len(keys)}

    def drive_attrs(result, _args):
        return {"cycles": int(result.cycles)}

    def evaluate_attrs(_result, args):
        return {"stage": args[1]}

    def run_group_attrs(_result, args):
        return {"cells": len(args[4])}

    targets = [
        (repro.graph.datasets, "load_preprocessed", plain("graph.load")),
        (repro.sim.runner, "load_preprocessed", plain("graph.load")),
        (repro.graph.datasets, "apply_delta", plain("graph.delta")),
        (repro.sim.runner, "profile_workload", plain("runtime.profile")),
        (repro.stages.pipeline, "_generate", plain("stage.stream")),
        (repro.stages.pipeline, "_replay", plain("stage.replay")),
        (repro.stages.pipeline, "_compress", plain("stage.compress")),
        (repro.stages.pipeline, "price_staged", plain("stage.timing")),
        (repro.stages.pipeline.StagePricer, "_evaluate",
         plain("stage.evaluate", evaluate_attrs)),
        (repro.stages.streams, "generate_streams_partitioned",
         _partition_counting),
        (repro.jobs.executor.JobExecutor, "run", plain("jobs.run")),
        (repro.jobs.executor.JobExecutor, "_lookup",
         plain("jobs.cache.get", lookup_attrs)),
        (repro.jobs.executor.JobExecutor, "_absorb",
         plain("jobs.cache.put")),
        (repro.jobs.executor, "_execute_group",
         plain("jobs.group", group_attrs)),
        (repro.engine, "drive", plain("engine.drive", drive_attrs)),
        (repro.engine.driver, "drive", plain("engine.drive", drive_attrs)),
        (JobRunner, "prefetch", plain("harness.prefetch")),
        (repro.serve.pool.ProcessBackend, "run_group",
         plain("serve.compute", run_group_attrs)),
        (repro.serve.app.ServeApp, "_lookup_sync", plain("serve.lookup")),
        (AdmissionController, "slot", _admission_timing),
    ]
    for experiment in EXPERIMENTS:
        targets.append((EXPERIMENTS, experiment,
                        plain("harness.experiment",
                              lambda _r, _a, e=experiment:
                              {"experiment": e})))
    return targets


class LayerTrace:
    """Installs the layer wrappers; restores the originals on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, Callable]] = []

    def install(self) -> "LayerTrace":
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        wrapped: Dict[int, Callable] = {}
        for owner, attr, factory in _targets():
            original = owner[attr] if isinstance(owner, dict) \
                else owner.__dict__[attr]
            # One function bound under two names gets one wrapper.
            wrapper = wrapped.get(id(original))
            if wrapper is None:
                wrapper = wrapped[id(original)] = factory(original)
            self._saved.append((owner, attr, original))
            _set(owner, attr, wrapper)
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)


def _set(owner: object, attr: str, value: Callable) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def traced_callables() -> List[Tuple[object, str]]:
    """(owner, attribute) of every wrapped entry point (smoke test)."""
    return [(owner, attr) for owner, attr, _f in _targets()]


# -- aggregation -----------------------------------------------------------

def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_totals(spans: Iterable) -> Dict[str, Dict[str, object]]:
    """Per layer name: calls, inclusive and self seconds, and the spans.

    A layer span's parent is its nearest ancestor that is itself a layer
    span; the program's own spans in between are looked through.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    layers = [span for span in spans if span.name.startswith(PREFIX)]
    children: Dict[str, List] = {}
    for span in layers:
        parent = by_id.get(span.parent_id)
        while parent is not None and not parent.name.startswith(PREFIX):
            parent = by_id.get(parent.parent_id)
        if parent is not None:
            children.setdefault(parent.span_id, []).append(span)
    totals: Dict[str, Dict[str, object]] = {}
    for span in layers:
        end = span.start_s + span.duration_s
        nested = [(max(c.start_s, span.start_s),
                   min(c.start_s + c.duration_s, end))
                  for c in children.get(span.span_id, ())]
        self_s = span.duration_s - _covered(
            [(lo, hi) for lo, hi in nested if hi > lo])
        stat = totals.setdefault(span.name[len(PREFIX):], {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "spans": []})
        stat["calls"] += 1
        stat["total_s"] += span.duration_s
        stat["self_s"] += max(0.0, self_s)
        stat["spans"].append(span)
    return totals


def layer_metrics(totals: Dict[str, Dict[str, object]]
                  ) -> Dict[str, float]:
    """The per-layer rows every workload reports, from
    :func:`layer_totals`: self time and calls of the graph, runtime,
    stage, job and engine layers, and the exact counts they carry.
    Workloads add their own rows (harness sections, serving)."""

    def self_s(name: str) -> float:
        return float(totals.get(name, {}).get("self_s", 0.0))

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def spans_of(name: str):
        return totals.get(name, {}).get("spans", [])

    def attr_sum(name: str, attr: str) -> int:
        return sum(int(span.attrs.get(attr, 0)) for span in spans_of(name))

    out: Dict[str, float] = {
        "graph.load.s": self_s("graph.load"),
        "graph.load.calls": calls("graph.load"),
        "graph.delta.s": self_s("graph.delta"),
        "runtime.profile.s": self_s("runtime.profile"),
        "jobs.cache.get.s": self_s("jobs.cache.get"),
        "jobs.cache.put.s": self_s("jobs.cache.put"),
        "jobs.group.s": self_s("jobs.group"),
        "jobs.pool.wait.s": self_s("jobs.run"),
        "stage.store.s": self_s("stage.evaluate"),
        "engine.drive.s": self_s("engine.drive"),
    }
    keys = attr_sum("jobs.cache.get", "keys")
    out["jobs.cache.hit_ratio"] = \
        attr_sum("jobs.cache.get", "hits") / keys if keys else 0.0
    for stage in STAGES:
        computed = calls(f"stage.{stage}")
        evaluated = sum(1 for span in spans_of("stage.evaluate")
                        if span.attrs.get("stage") == stage)
        out[f"stage.{stage}.s"] = self_s(f"stage.{stage}")
        out[f"stage.{stage}.calls"] = computed
        out[f"count.stage.{stage}.computed"] = computed
        out[f"count.stage.{stage}.hit"] = evaluated - computed
    requested = attr_sum("stage.partition", "requested")
    built = attr_sum("stage.partition", "built")
    out["stage.partition.reuse"] = \
        (requested - built) / requested if requested else 0.0
    cycles = attr_sum("engine.drive", "cycles")
    out["engine.sim_cycles"] = cycles
    out["engine.host_ns_per_cycle"] = \
        out["engine.drive.s"] * 1e9 / cycles if cycles else 0.0
    return out
