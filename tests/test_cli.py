"""Tests for the command-line interface."""

import json
from collections import Counter

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
        from repro.schemes import scheme_names
        for scheme in ("push+bogus", "pull"):
            assert main(["simulate", "--app", "dc", "--scheme", scheme,
                         "--dataset", "arb", "--scale", "65536"]) == 2
            err = capsys.readouterr().err
            assert "registered schemes" in err
            assert all(name in err for name in scheme_names("all"))

    def test_simulate_rejects_malformed_scheme(self, capsys):
        assert main(["simulate", "--app", "dc", "--scheme",
                     "phi+spzip[turbo]", "--dataset", "arb",
                     "--scale", "65536"]) == 2

    def test_schemes_lists_registry(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "total: 8 schemes" in out
        assert "phi+spzip" in out
        assert "groups: all, paper, cmh\n" in out

    def test_schemes_group_filter(self, capsys):
        assert main(["schemes", "--group", "cmh"]) == 0
        out = capsys.readouterr().out
        assert "total: 2 schemes" in out
        assert main(["schemes", "--group", "nope"]) == 2
        assert main(["schemes", "--group", "extensions"]) == 2


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
    ["report", "--partitions", "4"],
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

    def _counted_report(self, tmp_path, name, *extra):
        """The report's markdown, and the stage counts it added."""
        from repro.stages import stage_counters
        before = Counter(stage_counters())
        text = self._report(tmp_path, name, *extra)
        return text, dict(Counter(stage_counters()) - before)

    def test_warm_cache_rerun_is_byte_identical_and_all_hits(
            self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        cold = self._report(tmp_path, "cold.md", "--cache-dir", cache)
        warm, counts = self._counted_report(tmp_path, "warm.md",
                                            "--cache-dir", cache)
        assert warm == cold
        # Every cell hit the store: no stage ran, timing included.
        assert not [name for name in counts if name.endswith(".computed")]

    def test_hit_rate_counts_price_lookups_only(self, tmp_path):
        """A report over a store that holds fig07's cells prices only
        fig08's."""
        cache = str(tmp_path / "cache")
        assert main(["report", "--experiments", "fig07", "--scale",
                     "65536", "--cache-dir", cache,
                     "--out", str(tmp_path / "fig07.md")]) == 0
        _text, counts = self._counted_report(tmp_path, "both.md",
                                             "--cache-dir", cache)
        # fig07's six cells hit; fig08's six, on their one profile, do
        # not.
        assert counts["timing.computed"] == 6
        assert counts["stream.computed"] == 1

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
        """``jobs`` on a store that does not exist reports it empty,
        and creates nothing."""
        missing = tmp_path / "empty"
        assert main(["jobs", "--cache-dir", str(missing)]) == 0
        assert " 0 entries," in capsys.readouterr().out
        assert not missing.exists()


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
        # Exactly the requested cells priced, with the canonical scheme
        # tag, on one profile per group.
        cells = {(s.attrs.get("app"), s.attrs.get("scheme"),
                  s.attrs.get("dataset"), s.attrs.get("preprocessing"))
                 for s in spans if s.name == "jobs.price"}
        assert cells == {(request.app, request.scheme, request.dataset,
                          request.preprocessing)
                         for request in declared_cells(["fig07", "fig08"])}
        assert len(cells) == 12
        assert [s.name for s in spans].count("jobs.profile") == 2
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
        assert any(s.name == "harness.experiment" for s in spans)


class TestPerfCommand:
    def test_bench_json_is_refused(self, tmp_path, capsys):
        """Only span traces are timing files; a ``.json`` exits 2."""
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"section": {"batch_s": 0.1}}))
        assert main(["perf", "summary", str(bench)]) == 2
        assert "expected a span trace" in capsys.readouterr().err

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
