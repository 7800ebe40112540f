"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.app == "bfs"
        assert args.scheme == "phi+spzip"

    def test_experiment_takes_id(self):
        args = build_parser().parse_args(["experiment", "table1"])
        assert args.id == "table1"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8377
        assert args.workers == 4
        assert args.max_concurrency is None
        assert args.scale == 4096
        assert args.hot_capacity == 1024
        assert args.drain_timeout == 30.0
        assert not args.no_cache

    def test_serve_rejects_nonpositive_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "0"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig15a" in out
        assert "nibble" in out
        assert "phi+spzip" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "DecompU" in out
        assert "47300" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_compress_roundtrip_reported(self, capsys):
        assert main(["compress", "--codec", "delta",
                     "--data", "sorted-ids"]) == 0
        out = capsys.readouterr().out
        assert "roundtrip OK" in out

    def test_compress_unknown_data(self):
        assert main(["compress", "--data", "zeros"]) == 2

    def test_traverse_small(self, capsys):
        assert main(["traverse", "--dataset", "arb", "--rows", "40",
                     "--scale", "65536"]) == 0
        out = capsys.readouterr().out
        assert "verification OK" in out

    def test_simulate_small(self, capsys):
        assert main(["simulate", "--app", "dc", "--scheme", "phi",
                     "--dataset", "arb", "--scale", "65536"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs push" in out
        assert "traffic by class" in out

    def test_simulate_bracket_scheme(self, capsys):
        assert main(["simulate", "--app", "dc", "--scheme",
                     "phi+spzip[parts=adjacency]", "--dataset", "arb",
                     "--scale", "65536"]) == 0
        out = capsys.readouterr().out
        assert "scheme=phi+spzip" in out

    def test_simulate_rejects_unknown_scheme(self, capsys):
        assert main(["simulate", "--app", "dc", "--scheme",
                     "push+bogus", "--dataset", "arb",
                     "--scale", "65536"]) == 2
        err = capsys.readouterr().err
        assert "registered schemes" in err
        assert "phi+spzip" in err

    def test_simulate_rejects_malformed_scheme(self, capsys):
        assert main(["simulate", "--app", "dc", "--scheme",
                     "phi+spzip[turbo]", "--dataset", "arb",
                     "--scale", "65536"]) == 2

    def test_schemes_lists_registry(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "total: 10 schemes" in out
        assert "phi+spzip" in out
        assert "pull+spzip" in out
        assert "groups: all, paper, cmh, extensions" in out

    def test_schemes_group_filter(self, capsys):
        assert main(["schemes", "--group", "cmh"]) == 0
        out = capsys.readouterr().out
        assert "total: 2 schemes" in out
        assert main(["schemes", "--group", "nope"]) == 2


#: Bad input, each naming the bad value last.  Every one must be refused
#: before any work starts: no traceback, no run with a silly value.
BAD_INPUT = [
    ["simulate", "--app", "nope"],
    ["simulate", "--dataset", "nope"],
    ["simulate", "--preprocessing", "nope"],
    ["traverse", "--dataset", "nope"],
    ["compress", "--codec", "nope"],
    ["report", "--no-cache", "--experiments", "nope"],
    ["report", "--scale", "0"],
    ["experiment", "table1", "--scale", "0"],
    ["simulate", "--scale", "0"],
    ["serve", "--scale", "0"],
    ["traverse", "--rows", "-1"],
    ["report", "--experiments", "table1", "--no-cache", "--timeout", "-1"],
    ["report", "--experiments", "table1", "--no-cache", "--retries", "-1"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_is_refused_with_exit_2(argv, capsys):
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse rejects malformed values
        status = exc.code
    out, err = capsys.readouterr()
    assert status == 2
    assert out == ""
    assert argv[-1] in err.strip().splitlines()[-1]


class TestReport:
    def test_report_selected_experiments(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--experiments", "table1", "table2",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# SpZip reproduction")
        assert "## table1" in text
        assert "| fetcher | Total | 47300 |" in text

    def test_report_unknown_experiment(self, capsys):
        assert main(["report", "--experiments", "table1", "fig99"]) == 2
        assert "unknown experiment 'fig99'" in capsys.readouterr().err

    def test_generate_report_api(self):
        from repro.harness import generate_report
        text = generate_report(experiment_ids=["table2"])
        assert "L3 cache" in text


class TestReportOrchestration:
    """`report` through the jobs layer: parallel + cached runs."""

    #: fig07 + fig08 span two profiling groups (none/dfs), so --jobs 2
    #: genuinely exercises the process pool; tiny scale keeps it quick.
    ARGS = ["report", "--experiments", "fig07", "fig08",
            "--scale", "65536"]

    def _report(self, tmp_path, name, *extra):
        out = tmp_path / name
        assert main(self.ARGS + ["--out", str(out), *extra]) == 0
        return out.read_text()

    def test_jobs_1_and_2_produce_identical_tables(self, tmp_path):
        serial = self._report(tmp_path, "serial.md", "--no-cache")
        parallel = self._report(tmp_path, "parallel.md", "--no-cache",
                                "--jobs", "2")
        assert serial == parallel
        assert "## fig07" in serial and "## fig08" in serial

    def test_warm_cache_rerun_is_byte_identical_and_all_hits(
            self, tmp_path, capsys):
        from repro.jobs import latest_telemetry, summarize
        cache = str(tmp_path / "cache")
        cold = self._report(tmp_path, "cold.md", "--cache-dir", cache)
        warm = self._report(tmp_path, "warm.md", "--cache-dir", cache)
        assert warm == cold
        from repro.obs import read_trace
        path = latest_telemetry(cache)
        summary = summarize(path)
        assert summary["by_status"]["miss"] == 0
        assert summary["by_status"]["failed"] == 0
        assert summary["hit_rate"] == 1.0
        # Warm runs never profile: every profile job is skipped.
        _header, spans = read_trace(path)
        profile_jobs = [s for s in spans if s.name == "jobs.job"
                        and s.attrs["kind"] == "profile"]
        assert profile_jobs
        assert all(s.attrs["status"] == "skipped" for s in profile_jobs)

    def test_cold_parallel_telemetry_names_every_executed_job(
            self, tmp_path):
        from repro.jobs import latest_telemetry
        from repro.obs import read_trace
        cache = str(tmp_path / "cache")
        self._report(tmp_path, "run.md", "--cache-dir", cache,
                     "--jobs", "2")
        _header, spans = read_trace(latest_telemetry(cache))
        executed = [s for s in spans if s.name == "jobs.job"
                    and s.attrs["status"] == "miss"]
        assert len(executed) == 14  # 2 profile jobs + 12 price jobs
        for span in executed:
            assert (span.attrs["app"], span.attrs["dataset"]) == \
                ("bfs", "ukl"), span.attrs
            assert span.attrs["preprocessing"] in ("none", "dfs")
            assert bool(span.attrs["scheme"]) == \
                (span.attrs["kind"] == "price"), span.attrs

    def test_hit_rate_counts_price_lookups_only(self, tmp_path):
        from repro.jobs import latest_telemetry, summarize
        cache = str(tmp_path / "cache")
        assert main(["report", "--experiments", "fig07", "--scale",
                     "65536", "--cache-dir", cache,
                     "--out", str(tmp_path / "fig07.md")]) == 0
        self._report(tmp_path, "both.md", "--cache-dir", cache)
        summary = summarize(latest_telemetry(cache))
        # fig07's six cells hit and fig08's six miss; fig08's profile
        # job runs too, but it never looks anything up in the cache.
        assert summary["by_status"]["hit"] == 6
        assert summary["by_status"]["miss"] == 7
        assert summary["hit_rate"] == 0.5

    def test_jobs_command_summarizes_latest_run(self, tmp_path,
                                                capsys):
        cache = str(tmp_path / "cache")
        self._report(tmp_path, "run.md", "--cache-dir", cache)
        capsys.readouterr()
        assert main(["jobs", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "entries" in out

    def test_jobs_command_reports_store_entries_and_segments(
            self, tmp_path, capsys):
        import re

        from repro.jobs import ResultCache
        cache = str(tmp_path / "cache")
        self._report(tmp_path, "run.md", "--cache-dir", cache)
        capsys.readouterr()
        assert main(["jobs", "--cache-dir", cache]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        stats = ResultCache(cache).stats()
        match = re.fullmatch(r"cache: +(\d+) entries, ([\d.]+) KiB in "
                             r"(\d+) segment\(s\) under (.+)", line)
        assert match, line
        assert int(match[1]) == stats["entries"] > 0
        assert float(match[2]) == round(stats["bytes"] / 1024, 1)
        assert int(match[3]) == 1  # one process wrote the whole report
        assert match[4] == cache

    def test_jobs_command_without_telemetry_fails_cleanly(
            self, tmp_path, capsys):
        assert main(["jobs", "--cache-dir",
                     str(tmp_path / "empty")]) == 1

    @pytest.mark.parametrize("damage", ["missing", "torn"])
    def test_jobs_command_reports_an_unreadable_telemetry_file(
            self, tmp_path, capsys, damage):
        """A missing file, or one whose last line a killed run left
        torn, is reported as `perf summary` reports it: exit 2."""
        path = tmp_path / "run.jsonl"
        if damage == "torn":
            path.write_text('{"event": "trace_start", "pid": 1}\n'
                            '{"event": "span", "name": "jobs.j')
        assert main(["jobs", "--telemetry", str(path), "--cache-dir",
                     str(tmp_path / "cache")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot summarize {str(path)!r}: "), err


@pytest.fixture
def cold_pricers(monkeypatch):
    """A fresh per-process pricer memo, so an in-process command prices
    its cells instead of reading an earlier test's from memory."""
    import repro.jobs.executor as executor
    monkeypatch.setattr(executor, "_PRICERS", {})


class TestPerfFlag:
    def test_perf_prints_stage_breakdown(self, capsys, cold_pricers):
        assert main(["simulate", "--app", "dc", "--scheme", "phi",
                     "--dataset", "arb", "--scale", "65536",
                     "--perf"]) == 0
        err = capsys.readouterr().err
        assert "perf:" in err
        assert "pricing.price" in err

    def test_perf_covers_pool_workers(self, tmp_path, capsys):
        """Stage spans recorded in ``--jobs 2`` pool workers reach the
        ``--perf`` table, not just the dispatching process's spans."""
        # A fresh store: forked workers cannot reuse profile bundles a
        # rootless pricer in this process built for an earlier test.
        assert main(["report", "--experiments", "fig07", "fig08",
                     "--scale", "65536", "--jobs", "2", "--cache-dir",
                     str(tmp_path / "cache"),
                     "--out", str(tmp_path / "r.md"), "--perf"]) == 0
        err = capsys.readouterr().err
        assert "perf:" in err
        calls = {line.split()[0]: int(line.split()[2])
                 for line in err.splitlines()
                 if line.startswith("stage.")}
        # Two profile groups (bfs/ukl/none and bfs/ukl/dfs), twelve
        # cells: exactly this run's work, all of it done in workers.
        for stage in ("stream", "replay", "compress"):
            assert calls.get(f"stage.{stage}.computed") == 2, calls
        assert calls.get("stage.timing.computed") == 12, calls


class TestTrace:
    def test_simulate_trace_has_cell_and_stage_spans(self, tmp_path,
                                                     capsys,
                                                     cold_pricers):
        from repro.obs import read_trace
        path = str(tmp_path / "trace.jsonl")
        assert main(["simulate", "--app", "dc", "--scheme", "phi",
                     "--dataset", "arb", "--scale", "65536",
                     "--trace", path]) == 0
        assert "trace:" in capsys.readouterr().err
        header, spans = read_trace(path)
        assert header["trace_id"]
        names = {s.name for s in spans}
        assert {"runner.cell", "jobs.price",
                "pricing.price"} <= names
        cell = next(s for s in spans if s.name == "runner.cell"
                    and s.attrs.get("scheme") == "phi")
        children = [s for s in spans if s.parent_id == cell.span_id]
        assert children, "cell span has no children"

    def test_experiment_prices_its_cells_in_one_prefetch(self, tmp_path,
                                                         capsys):
        """An experiment prices the cells it declares in one executor
        run, not one cell at a time."""
        from repro.obs import read_trace
        path = str(tmp_path / "trace.jsonl")
        assert main(["experiment", "fig07", "--scale", "65536",
                     "--trace", path]) == 0
        assert "== fig07:" in capsys.readouterr().out
        _header, spans = read_trace(path)
        names = [s.name for s in spans]
        assert (names.count("jobs.run"), names.count("runner.cell")) == \
            (1, 0)
        assert len([s for s in spans if s.name == "jobs.price"]) == 6

    def test_parallel_report_trace_covers_every_cell(self, tmp_path):
        """The acceptance trace: a --jobs 2 cold-cache report produces
        one merged trace where every (app, scheme, dataset,
        preprocessing) cell has a span, and worker spans hang under
        their dispatching jobs.task span."""
        from repro.harness import declared_cells
        from repro.obs import read_trace
        path = str(tmp_path / "trace.jsonl")
        out = tmp_path / "report.md"
        assert main(["report", "--experiments", "fig07", "fig08",
                     "--scale", "65536", "--jobs", "2", "--no-cache",
                     "--out", str(out), "--trace", path]) == 0
        header, spans = read_trace(path)
        by_id = {s.span_id: s for s in spans}
        # No dangling parents anywhere in the merged trace.
        assert all(s.parent_id in by_id for s in spans if s.parent_id)
        # Every requested cell priced, with the canonical scheme tag.
        cells = {(s.attrs.get("app"), s.attrs.get("scheme"),
                  s.attrs.get("dataset"), s.attrs.get("preprocessing"))
                 for s in spans if s.name == "jobs.price"}
        for request in declared_cells(["fig07", "fig08"]):
            assert (request.app, request.scheme, request.dataset,
                    request.preprocessing) in cells
        # Worker-side group spans re-parent under their jobs.task.
        parent_pid = header["pid"]
        groups = [s for s in spans if s.name == "jobs.group"]
        assert groups
        for group in groups:
            parent = by_id[group.parent_id]
            if group.pid != parent_pid:
                assert parent.name == "jobs.task"
                assert parent.attrs["job_id"] == \
                    group.attrs["job_id"]
        # Telemetry job records are mirrored into the same trace.
        assert any(s.name == "jobs.job" for s in spans)
        assert any(s.name == "harness.experiment" for s in spans)


class TestPerfCommand:
    def _trace(self, tmp_path, name, replay_s):
        """A span trace whose ``stage.replay`` spans total ``replay_s``."""
        from repro.obs import Span
        spans = [Span(name=span_name, span_id=f"1-{i}", parent_id=None,
                      start_s=float(i), duration_s=seconds, pid=1,
                      attrs={})
                 for i, (span_name, seconds) in enumerate(
                     [("stage.replay", replay_s / 2),
                      ("stage.replay", replay_s / 2),
                      ("stage.compress", 0.4)])]
        path = tmp_path / name
        path.write_text(
            json.dumps({"event": "trace_start", "trace_id": name}) + "\n"
            + "".join(span.to_json() + "\n" for span in spans))
        return str(path)

    def test_diff_identical_exits_zero(self, tmp_path, capsys):
        base = self._trace(tmp_path, "base.jsonl", 0.1)
        cur = self._trace(tmp_path, "cur.jsonl", 0.1)
        assert main(["perf", "diff", base, "--against", cur]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_flags_injected_2x_slowdown(self, tmp_path, capsys):
        base = self._trace(tmp_path, "base.jsonl", 0.1)
        cur = self._trace(tmp_path, "cur.jsonl", 0.2)
        assert main(["perf", "diff", base, "--against", cur]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "trace_summary/stage.replay/seconds" in out
        assert "stage.compress" not in out

    def test_diff_respects_threshold(self, tmp_path):
        base = self._trace(tmp_path, "base.jsonl", 0.1)
        cur = self._trace(tmp_path, "cur.jsonl", 0.2)
        assert main(["perf", "diff", base, "--against", cur,
                     "--threshold", "2.5"]) == 0

    def test_diff_bad_inputs_exit_two(self, tmp_path, capsys):
        base = self._trace(tmp_path, "base.jsonl", 0.1)
        assert main(["perf", "diff", str(tmp_path / "missing.jsonl"),
                     "--against", base]) == 2
        assert main(["perf", "diff", base, "--against", base,
                     "--threshold", "1.0"]) == 2

    def test_bench_json_is_refused(self, tmp_path, capsys):
        """Only span traces are timing files; a ``.json`` exits 2."""
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"section": {"batch_s": 0.1}}))
        trace = self._trace(tmp_path, "trace.jsonl", 0.1)
        assert main(["perf", "diff", str(bench), "--against",
                     trace]) == 2
        assert "expected a span trace" in capsys.readouterr().err
        assert main(["perf", "summary", str(bench)]) == 2
        assert "expected a span trace" in capsys.readouterr().err

    def test_diff_against_trace_jsonl(self, tmp_path, capsys):
        from repro.obs import Tracer
        t = Tracer()
        t.start()
        with t.span("stage"):
            pass
        trace = str(tmp_path / "trace.jsonl")
        t.save(trace)
        t.stop()
        assert main(["perf", "diff", trace, "--against", trace]) == 0
        assert "1 shared" in capsys.readouterr().out

    def test_summary_renders_trace(self, tmp_path, capsys):
        from repro.obs import Tracer
        t = Tracer()
        t.start(trace_id="t-cli")
        with t.span("stage", count=4):
            pass
        trace = str(tmp_path / "trace.jsonl")
        t.save(trace)
        t.stop()
        assert main(["perf", "summary", trace]) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "t-cli" in out

    def test_summary_missing_file_exits_two(self, tmp_path):
        assert main(["perf", "summary",
                     str(tmp_path / "nope.jsonl")]) == 2
