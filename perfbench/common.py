"""Shared helpers: statistics, digests, environment, cross-run checks."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Sequence

#: Root of the checkout the benchmark runs in (the parent of this
#: package's directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Everything a run writes lives under here; ``.gitignore`` names it.
WORK_ROOT = os.path.join(ROOT, ".perfbench")


def log(message: str) -> None:
    """Progress goes to stderr; stdout carries only the result line."""
    print(message, file=sys.stderr, flush=True)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of nothing")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of nothing")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def digest(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def metrics_record(metrics) -> str:
    """Canonical text of one ``RunMetrics`` (every field, exact floats)."""
    from repro.serve.protocol import metrics_to_json
    return json.dumps(metrics_to_json(metrics), sort_keys=True)


def results_digest(results: Dict) -> str:
    """Digest of a ``{RunRequest: RunMetrics}`` mapping, order-free."""
    return digest(sorted(f"{request.describe()}={metrics_record(m)}"
                         for request, m in results.items()))


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped descendant's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def code_digest() -> str:
    """Content digest of the program's and the benchmark's sources (the
    checkout may not be a git repository, so this identifies the code)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        h.update(handle.read())
    return h.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload: str, seed: int, scale: int,
                trace: bool) -> Dict[str, object]:
    import numpy
    return {"workload": workload, "seed": seed, "scale": scale,
            "trace": trace, "nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(),
            "code": code_digest()}


class DriftCheck:
    """Values that must repeat exactly between runs of the same code.

    The first run of the same code under the same ``key`` records them
    under ``.perfbench/expected``; every later run compares and reports
    any value that moved.
    """

    def __init__(self, key: str) -> None:
        self.path = os.path.join(WORK_ROOT, "expected",
                                 f"{code_digest()}-{key}.json")

    def check(self, values: Dict[str, object],
              partial: bool = False) -> List[str]:
        """Compare with the recorded values.  With ``partial``, a run may
        carry only some of the names: those both sides have must match,
        and new ones join the record."""
        try:
            with open(self.path) as handle:
                expected = json.load(handle)
        except (OSError, ValueError):
            expected = None
        if expected is None or partial:
            self._write({**values, **(expected or {})})
        if expected is None:
            return []
        return [f"{name}: {expected[name]!r} -> {values.get(name)!r}"
                for name in sorted(expected)
                if (name in values or not partial)
                and values.get(name) != expected[name]]

    def _write(self, values: Dict[str, object]) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(values, handle, sort_keys=True)
        os.replace(tmp, self.path)


class SetupProbe:
    """Times fresh interpreters running ``code``: the fixed start-up
    every ``repro`` invocation pays before its first cell.

    A workload takes samples spread over its run (a few at a time,
    between measured operations), because the host's speed drifts in
    phases of several seconds and samples taken back to back would all
    land in one phase.  One untimed interpreter runs first, so every
    timed one finds the sources and bytecode in the file cache.  Each
    child is reaped with a blocking wait: ``Popen.wait(timeout=...)``
    polls with sleeps of up to 50 ms, which would round every time up
    to that step.
    """

    def __init__(self, code: str) -> None:
        self.code = code
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else "")
        self.times: List[float] = []
        self._run()

    def _run(self) -> float:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", self.code],
                                 cwd=ROOT, env=self.env)
        if child.wait() != 0:
            raise subprocess.CalledProcessError(child.returncode, self.code)
        return time.perf_counter() - start

    def sample(self, count: int = 1) -> None:
        self.times += [self._run() for _ in range(count)]

    def median(self) -> float:
        return median(self.times)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}
