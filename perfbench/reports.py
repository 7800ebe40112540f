"""The report workloads: a full ``generate_report`` through the job layer.

Every report runs in a freshly forked child of a process that has only
imported the package, so no in-process memo (graph registry, stage
pricer, worker pricers) survives from one report to the next: each one
pays exactly what a ``repro report`` invocation pays after start-up.

``report_cold``
    an empty store per report: every stage computes.
``report_warm``
    a store pre-warmed once at the baseline system, copied afresh for
    each report; the report runs with memory bandwidth doubled, so every
    cell key misses while every stream/replay/compress artifact hits.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import replace
from typing import Dict, List, Optional

from common import (
    DriftCheck,
    SetupProbe,
    digest,
    log,
    median,
    metric,
    peak_rss_mb,
    percentile,
    results_digest,
)

#: Model scale of the report workloads (graphs are 1/scale of the
#: paper's inputs).  Chosen so one cold report takes a few seconds on a
#: two-core machine and a run fits several of them.
REPORT_SCALE = 65536


def knob_system(scale: int):
    """The baseline system with per-controller memory bandwidth doubled:
    a timing-only knob, so only the timing stage may recompute."""
    from repro.config import SystemConfig
    system = SystemConfig().scaled(scale)
    return replace(system, memory=replace(
        system.memory,
        gb_per_sec_per_controller=2
        * system.memory.gb_per_sec_per_controller))


def _timed_sections():
    """Wrap every experiment so the moment its section of the report is
    ready is recorded (two clock reads per section; no tracing)."""
    from repro.harness.experiments import EXPERIMENTS
    done: List[float] = []
    for name, function in list(EXPERIMENTS.items()):
        def timed(runner, _function=function):
            try:
                return _function(runner)
            finally:
                done.append(time.perf_counter())
        EXPERIMENTS[name] = timed
    return done


def _join_children() -> None:
    for child in multiprocessing.active_children():
        child.join()


def _report_child(conn, scale: int, cache_dir: str, knob: bool,
                  trace: bool) -> None:
    """One report in this (forked) process; sends its record back."""
    try:
        conn.send(_one_report(scale, cache_dir, knob, trace))
    except BaseException as exc:  # report the failure, then exit
        conn.send({"error": repr(exc)})
        raise
    finally:
        conn.close()


def _one_report(scale: int, cache_dir: str, knob: bool,
                trace: bool) -> Dict[str, object]:
    from repro.harness.report import generate_report
    from repro.jobs import JobRunner
    from repro.obs import TRACER

    sections = _timed_sections()
    layers = None
    if trace:
        from layers import LayerTrace
        layers = LayerTrace().install()
        TRACER.start(trace_id="perfbench-report")
    system = knob_system(scale) if knob else None
    jobs = os.cpu_count() or 1
    start = time.perf_counter()
    runner = JobRunner(scale=scale, system=system, jobs=jobs,
                       cache_dir=cache_dir)
    markdown = generate_report(runner)
    report_s = time.perf_counter() - start
    if trace:
        TRACER.stop()
        layers.restore()
    _join_children()
    record: Dict[str, object] = {
        "report_s": report_s,
        # Latency of each section: report start to the section's table.
        "sections_s": [done - start for done in sections],
        "peak_rss_mb": peak_rss_mb(),
        "markdown": digest([markdown]),
        "results": results_digest(runner._results),
        "cells": len(runner._results),
    }
    if trace:
        record["layers"] = report_layers(TRACER.spans, report_s)
    return record


def report_layers(spans, report_s: float) -> Dict[str, float]:
    """Per-layer self time and exact counts of one traced report."""
    from layers import layer_metrics, layer_totals
    totals = layer_totals(spans)
    out = layer_metrics(totals)
    # The harness rows break the report's top line down, so they are
    # inclusive of the layers beneath them.
    experiments = totals.get("harness.experiment", {})
    out["harness.prefetch.s"] = float(
        totals.get("harness.prefetch", {}).get("total_s", 0.0))
    out["harness.experiments.s"] = float(experiments.get("total_s", 0.0))
    for experiment in ("fig21", "sorting", "fig18"):
        out[f"harness.{experiment}.s"] = sum(
            s.duration_s for s in experiments.get("spans", [])
            if s.attrs.get("experiment") == experiment)
    out["trace.report_s"] = report_s
    return out


def run_report(cache_dir: str, knob: bool, trace: bool,
               scale: int = REPORT_SCALE) -> Dict[str, object]:
    """Fork one report child and collect its record."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_report_child,
                            args=(send, scale, cache_dir, knob, trace))
    child.start()
    send.close()
    try:
        record = receive.recv()
    except EOFError:
        record = {"error": "report process died without a result"}
    child.join()
    if child.exitcode and "error" not in record:
        record = {"error": f"report process exited {child.exitcode}"}
    return record


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_dir: str, scale: int = REPORT_SCALE
                 ) -> Dict[str, object]:
    """Reports for ``seconds``; the report's inputs are the registered
    experiments, so ``seed`` changes nothing here."""
    # Import what the start-up probe imports, so every forked report
    # starts from the state that probe times.
    import repro.harness.report  # noqa: F401
    import repro.jobs  # noqa: F401
    knob = name == "report_warm"
    failures: List[str] = []

    log(f"{name}: timing start-up (fresh interpreter + JobRunner)")
    probe_store = tempfile.mkdtemp(dir=work_dir, prefix="probe-")
    probe = SetupProbe(
        "import os, repro.harness.report, repro.jobs;"
        f"repro.jobs.JobRunner(scale={scale}, jobs=os.cpu_count() or 1,"
        f" cache_dir={probe_store!r})")
    probe.sample(3)

    cold_digests: Optional[Dict[str, object]] = None
    snapshot = os.path.join(work_dir, "snapshot")
    if knob:
        log(f"{name}: pre-warming the store at the baseline system")
        cold = run_report(snapshot, knob=False, trace=False, scale=scale)
        if "error" in cold:
            raise RuntimeError(f"pre-warm report failed: {cold['error']}")
        cold_digests = cold
        log(f"{name}: pre-warm report {cold['report_s']:.2f}s")

    records: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    first_store: Optional[str] = None
    attempted = 0
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        complete = records and (traced or not trace)
        if time.monotonic() >= deadline and (complete or failures):
            break
        # A traced run alternates untraced and traced reports, so the
        # tracing overhead is measured against the same conditions.
        traced_now = trace and index % 2 == 1
        # One start-up sample before each report; its time does not
        # count against the reports' share of the run.
        probe_start = time.monotonic()
        probe.sample()
        deadline += time.monotonic() - probe_start
        store = os.path.join(work_dir, f"store-{index}")
        if knob:
            shutil.copytree(snapshot, store)
        attempted += 1
        record = run_report(store, knob=knob, trace=traced_now,
                            scale=scale)
        index += 1
        if "error" in record:
            failures.append(f"report {index}: {record['error']}")
            shutil.rmtree(store, ignore_errors=True)
            continue
        log(f"{name}: report {index} {record['report_s']:.2f}s "
            f"peak {record['peak_rss_mb']:.0f}MB"
            f"{' (traced)' if traced_now else ''}")
        (traced if traced_now else records).append(record)
        if knob or first_store is not None:
            shutil.rmtree(store, ignore_errors=True)
        else:
            first_store = store

    all_records = records + traced
    for key in ("markdown", "results", "cells"):
        values = {r[key] for r in all_records}
        if len(values) != 1:
            failures.append(f"{key} differs between reports: {values}")

    # The identical-warm report must reproduce the cold report exactly.
    if knob:
        ident_store = os.path.join(work_dir, "store-identical")
        shutil.copytree(snapshot, ident_store)
        reference = cold_digests
    else:
        ident_store = first_store
        reference = all_records[0] if all_records else None
    identical = run_report(ident_store, knob=False, trace=False,
                           scale=scale) if ident_store else \
        {"error": "no cold report completed"}
    if "error" in identical:
        failures.append(f"identical-warm report: {identical['error']}")
    elif reference is not None:
        for key in ("markdown", "results"):
            if identical[key] != reference[key]:
                failures.append(f"identical-warm {key} "
                                f"{identical[key]} != cold "
                                f"{reference[key]}")
        log(f"{name}: identical-warm report "
            f"{identical['report_s']:.2f}s, digest "
            f"{'matches' if not failures else 'MISMATCH'}")

    if all_records:
        drift = DriftCheck(f"{name}-{scale}").check({
            "markdown": all_records[0]["markdown"],
            "results": all_records[0]["results"],
            "cells": all_records[0]["cells"]})
        failures += [f"drift since an earlier run: {d}" for d in drift]

    result: Dict[str, object] = {"attempted": attempted,
                                 "failures": failures}
    if not records:
        return result
    sections = [s for r in records for s in r["sections_s"]]
    busy = sum(r["report_s"] for r in records)

    def section_ms(q: float) -> float:
        # Per report, then the median over reports: one slow report
        # must not decide the run's tail.
        return 1e3 * median([percentile(r["sections_s"], q)
                             for r in records])
    result["end_to_end"] = {
        "setup_s": metric(probe.median(), "s"),
        "report_s": metric(median([r["report_s"] for r in records]),
                           "s"),
        "peak_rss_mb": metric(median([r["peak_rss_mb"]
                                      for r in records]), "MB"),
        "p50_ms": metric(section_ms(50), "ms"),
        "p99_ms": metric(section_ms(99), "ms"),
        # A report section has no latency limit: this is sections per
        # second of report time, ``report_s`` restated as a rate.
        "goodput_rps": metric(len(sections) / busy, "1/s"),
    }
    result["samples"] = {"reports": len(records),
                         "sections": len(sections)}
    if trace and traced:
        result["layers"] = _median_layers(traced, records)
        result["layers"]["tail.p99_ms"] = section_ms(99)
        # Reported as measured in the first traced report.
        result["layers"].update(
            {k: v for k, v in traced[0]["layers"].items()
             if k.startswith("count.")})
        result["layers"]["count.cells"] = traced[0]["cells"]
        exact = [_exact_counts(r) for r in traced]
        failures += [f"exact counts differ between traced reports: "
                     f"{exact[0]} vs {other}"
                     for other in exact[1:] if other != exact[0]]
        failures += [f"count drift since an earlier run: {d}" for d in
                     DriftCheck(f"{name}-{scale}-counts").check(exact[0])]
    return result


def _exact_counts(record: Dict[str, object]) -> Dict[str, int]:
    """The simulated statistics that must repeat exactly.

    A stage's hit/computed split is not among them: when two pool
    workers meet the same content-addressed artifact at once, both
    compute it, so only their sum (the stage's evaluations) repeats.
    """
    from layers import STAGES
    layers = record["layers"]
    counts = {"count.cells": record["cells"],
              "engine.sim_cycles": layers["engine.sim_cycles"]}
    for stage in STAGES:
        counts[f"count.stage.{stage}.evaluated"] = \
            layers[f"count.stage.{stage}.computed"] \
            + layers[f"count.stage.{stage}.hit"]
    return counts


def _median_layers(traced, untraced) -> Dict[str, float]:
    names = traced[0]["layers"].keys()
    out = {name: median([r["layers"][name] for r in traced])
           for name in names}
    plain = median([r["report_s"] for r in untraced])
    out["trace.overhead"] = out["trace.report_s"] / plain - 1.0
    return out
