"""Content-addressed cache keys for job results.

A price job's result is a pure function of (a) the model code, (b) the
system configuration and scale, and (c) the job's own identity — app,
dataset, preprocessing, scheme, extra parameters.  Datasets themselves
are deterministic functions of ``(name, preprocessing, scale)`` (seeded
synthetic generators, see :mod:`repro.graph.datasets`), so naming them
is enough; no graph bytes need hashing.

The *code salt* folds the source text of every module that can affect a
simulation result into the key, so any model change automatically
invalidates stale cache entries — no manual version bumping.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict, is_dataclass
from functools import lru_cache
from typing import Dict, Iterable, Tuple

from repro.config import SpZipConfig, SystemConfig
from repro.jobs.model import JobSpec

#: Top-level entries under ``src/repro`` that cannot change simulation
#: results: orchestration, rendering, serving, and interface layers.
_SALT_EXCLUDE = {"jobs", "harness", "serve", "cli.py", "__main__.py"}


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Digest of all result-affecting source files, for invalidation."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        rel = os.path.relpath(dirpath, root)
        top = rel.split(os.sep, 1)[0]
        if top in _SALT_EXCLUDE or "__pycache__" in rel:
            dirnames[:] = []
            continue
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py") or \
                    (rel == "." and name in _SALT_EXCLUDE):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------
# Stage-level fingerprints (the staged pricing pipeline, repro.stages)
# --------------------------------------------------------------------------

#: Source dependencies of each pricing stage, relative to ``src/repro``
#: (a directory hashes every ``.py`` beneath it).  A stage's salt
#: rotates only when code that can change *its* output changes, so an
#: edit to the timing model leaves stream/replay/compress artifacts
#: valid.  Shared low-level modules (``runtime/traffic.py``,
#: ``memory/address.py``) appear in several stages deliberately: an
#: edit there conservatively invalidates them all.
STAGE_DEPS: Dict[str, Tuple[str, ...]] = {
    # sim/runner.py: identity_workload maps identities to workloads.
    "stream": ("stages/artifacts.py", "stages/streams.py",
               "sim/runner.py",
               "runtime/traffic.py", "runtime/traffic_array.py",
               "runtime/workload.py", "apps",
               "graph", "sparse", "utils", "memory/address.py"),
    "replay": ("stages/artifacts.py", "stages/replay.py",
               "runtime/traffic.py", "runtime/traffic_array.py",
               "memory/address.py", "memory/batch.py"),
    "compress": ("stages/artifacts.py", "stages/compress.py",
                 "runtime/traffic.py", "runtime/traffic_array.py",
                 "compression", "graph/idspace.py", "memory/address.py",
                 "schemes/pricing.py"),
    "timing": ("stages/artifacts.py", "stages/timing.py", "schemes",
               "sim", "runtime/traffic.py", "runtime/traffic_array.py",
               "runtime/scheduling.py", "config.py",
               "memory/address.py"),
}

#: Stage evaluation order (each stage keys on the digests of the ones
#: before it that it consumes).
STAGE_NAMES = ("stream", "replay", "compress", "timing")


@lru_cache(maxsize=None)
def stage_salt(stage: str) -> str:
    """Digest of one stage's source dependencies."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for rel in STAGE_DEPS[stage]:
        path = os.path.join(root, rel)
        if os.path.isfile(path):
            digest.update(rel.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
            continue
        for dirpath, dirnames, filenames in sorted(os.walk(path)):
            if "__pycache__" in dirpath:
                dirnames[:] = []
                continue
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(dirpath, name)
                digest.update(os.path.relpath(full, root).encode())
                with open(full, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def stage_config_slice(stage: str, cfg) -> Dict[str, object]:
    """The model-config knobs one stage's output actually depends on.

    ``cfg`` is a resolved :class:`~repro.runtime.traffic.ModelConfig`
    (per-input LLC sizing already applied).  Slices hold *resolved*
    values, so config-construction code changes flow into keys through
    the values they produce; everything else about the system config is
    deliberately absent — that is what makes a bandwidth edit reuse
    frozen replay artifacts.
    """
    if stage == "stream":
        return {}
    if stage == "replay":
        return {"llc_lines": cfg.llc_lines,
                "llc_size_bytes": cfg.system.llc.size_bytes,
                "bin_llc_fraction": cfg.bin_llc_fraction}
    if stage == "compress":
        return {"id_scale": cfg.id_scale,
                "sort_updates": cfg.sort_updates}
    if stage == "timing":
        return {"num_cores": cfg.system.num_cores,
                "bytes_per_cycle": cfg.system.bytes_per_cycle,
                "llc_lines": cfg.llc_lines}
    raise KeyError(f"unknown stage {stage!r}")


def stream_fingerprint(app: str, dataset: str, preprocessing: str,
                       scale: int) -> str:
    """Cache key of the stream-gen artifact: identity + stream salt.

    Datasets are deterministic functions of (name, preprocessing,
    scale), so the identity tuple is the content address.
    """
    return fingerprint({"stage": "stream",
                        "salt": stage_salt("stream"),
                        "app": app, "dataset": dataset,
                        "preprocessing": preprocessing,
                        "scale": scale})


def stream_partition_fingerprint(lo: int, hi: int,
                                 payload_digest: str) -> str:
    """Cache key of one vertex-range stream partition.

    ``payload_digest`` hashes the partition's *actual inputs* — the
    graph rows in ``[lo, hi)`` and each iteration's active-source slice
    (see ``stages/streams.py``) — so the key is self-validating: a
    graph delta rotates it exactly for the partitions whose rows or
    active sources changed, and reuse is bit-correct for every app by
    construction.  The stream stage salt folds in code changes.
    """
    return fingerprint({"stage": "stream.partition",
                        "salt": stage_salt("stream"),
                        "lo": lo, "hi": hi,
                        "payload": payload_digest})


def engine_fingerprint(graph_digest: str, config: SpZipConfig, rows: int,
                       mem_latency: int) -> str:
    """Cache key of one functional-engine traversal (Fig 21).

    ``rows`` is the walked row count (already clamped to the graph).
    The walk reads engine, DCL, compression, memory, graph and config
    code — nearly the whole model — so the key takes the whole
    :func:`code_salt` rather than a hand-kept dependency list that could
    miss one.  No system field enters it: the walk reads only
    ``config`` and ``mem_latency``, so a system knob edit reuses it.
    """
    return fingerprint({"kind": "engine.traversal", "salt": code_salt(),
                        "graph": graph_digest, "config": config,
                        "rows": rows, "mem_latency": mem_latency})


def stage_fingerprint(stage: str, upstream: Iterable[str],
                      config_slice: Dict[str, object]) -> str:
    """Cache key of a downstream stage's artifact.

    ``upstream`` is the *content digests* of the consumed artifacts
    (not their keys): a stage whose code changed but whose output did
    not leaves every downstream key intact — early cutoff.
    """
    return fingerprint({"stage": stage, "salt": stage_salt(stage),
                        "upstream": list(upstream),
                        "config": config_slice})


def artifact_digest(value: object) -> str:
    """Content digest of one stage artifact (chains stage keys).

    Pickled at a pinned protocol so the digest is stable across
    processes of one interpreter install; artifacts are plain
    dataclasses of numpy arrays and scalars, which pickle
    deterministically.
    """
    return hashlib.sha256(
        pickle.dumps(value, protocol=4)).hexdigest()[:16]


def _jsonable(value: object) -> object:
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in value]
        return sorted(items, key=repr) if isinstance(
            value, (set, frozenset)) else items
    return value


def fingerprint(payload: object) -> str:
    """SHA-256 of a canonical-JSON rendering of ``payload``."""
    text = json.dumps(_jsonable(payload), sort_keys=True,
                      separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def job_fingerprint(job: JobSpec, scale: int,
                    system: SystemConfig) -> str:
    """Cache key for one price job under one model configuration.

    ``job.scheme`` is the spec's canonical string (see
    :func:`repro.jobs.model.canonical_request`): ablation variants like
    ``phi+spzip[parts=adjacency]`` are distinct scheme identities here,
    so Fig 19/20 runs cache independently of the plain scheme.
    """
    return fingerprint({
        "salt": code_salt(),
        "scale": scale,
        "system": system,
        "kind": job.kind,
        "app": job.app,
        "dataset": job.dataset,
        "preprocessing": job.preprocessing,
        "scheme": job.scheme,
    })
