"""Shared memory-mapped graph arrays for process pools.

Pool workers look graphs up by name, and a worker that rebuilt its own
graphs would regenerate them from scratch per process.  This module
gives every process one content-addressed, memory-mapped store:

* :meth:`GraphStore.put_array` spills an array to ``<root>/<digest>.npy``
  exactly once (atomic ``os.replace`` publish, so concurrent writers of
  the same content race benignly);
* :meth:`GraphStore.load_array` opens it with ``np.load(mmap_mode="r")``
  — every process on the machine then shares the same page-cache pages
  instead of holding a private copy;
* :func:`cached_graph` backs the dataset registry, so pool workers map
  the dispatcher's generated graphs instead of regenerating them.

The store is activated by :class:`~repro.stages.StagePricer` whenever its
result cache has an on-disk root (the jobs executor and the serve
backends both arrange that), and :func:`release_graphs` drops the mapped
segments at pool teardown.  With no store active, :func:`cached_graph`
just builds the graph.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Callable, Dict, Optional

import numpy as np

from repro.graph.csr import CsrGraph

_ACTIVE: Optional["GraphStore"] = None


class GraphStore:
    """Content-addressed ``.npy`` array store with memmap reads."""

    def __init__(self, root: str) -> None:
        os.makedirs(root, exist_ok=True)
        self.root = root
        # path -> mapped array; one mapping per file per process.
        self._open: Dict[str, np.ndarray] = {}

    # -- arrays -----------------------------------------------------------

    def put_array(self, array: np.ndarray) -> str:
        """Persist ``array`` (idempotent); returns its store path."""
        array = np.ascontiguousarray(array)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
        path = os.path.join(self.root, digest.hexdigest() + ".npy")
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.save(handle, array)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        return path

    def load_array(self, path: str) -> np.ndarray:
        """Map a stored array read-only (memoized per process)."""
        array = self._open.get(path)
        if array is None:
            array = np.load(path, mmap_mode="r")
            self._open[path] = array
        return array

    # -- whole graphs -----------------------------------------------------

    def _manifest_path(self, key: str) -> str:
        digest = hashlib.blake2b(key.encode(),
                                 digest_size=16).hexdigest()
        return os.path.join(self.root, f"graph-{digest}.json")

    def put_graph(self, key: str, graph: CsrGraph) -> None:
        """Publish a named graph: arrays plus a small manifest."""
        manifest = {
            "offsets": self.put_array(graph.offsets),
            "neighbors": self.put_array(graph.neighbors),
            "values": None if graph.values is None
            else self.put_array(graph.values),
            "digest": graph.content_digest(),
        }
        path = self._manifest_path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(manifest, handle)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get_graph(self, key: str) -> Optional[CsrGraph]:
        """Map a named graph back in, or None if never published."""
        path = self._manifest_path(key)
        try:
            with open(path) as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        load = self.load_array
        try:
            graph = CsrGraph(load(manifest["offsets"]),
                             load(manifest["neighbors"]),
                             None if manifest["values"] is None
                             else load(manifest["values"]),
                             check=False)
        except OSError:  # manifest survived but an array was pruned
            return None
        graph._digest = manifest["digest"]
        return graph

    def release(self) -> None:
        """Drop this process's mappings.

        Only the store's references are dropped — a mapping still held
        by a live graph stays valid (numpy closes the underlying mmap
        when the last array referencing it is collected); forcing the
        segments closed here would turn later reads into crashes.
        """
        self._open.clear()

    @property
    def open_segments(self) -> int:
        return len(self._open)


def enable_graph_store(root: str) -> GraphStore:
    """Activate the process-wide store rooted at ``root``.

    Re-activating the same root keeps the existing store (and its
    mappings); a different root replaces it.
    """
    global _ACTIVE
    if _ACTIVE is None or _ACTIVE.root != root:
        _ACTIVE = GraphStore(root)
    return _ACTIVE


def active_graph_store() -> Optional[GraphStore]:
    return _ACTIVE


def disable_graph_store() -> None:
    """Deactivate and release the process-wide store (tests)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.release()
    _ACTIVE = None


def release_graphs() -> None:
    """Drop the active store's mappings (pool teardown)."""
    if _ACTIVE is not None:
        _ACTIVE.release()


def cached_graph(key: str, build: Callable[[], CsrGraph]) -> CsrGraph:
    """Fetch a named graph from the active store, else build + publish.

    With no store active this is just ``build()`` — the dataset
    registry's lru_cache keeps per-process memoization either way.
    """
    store = _ACTIVE
    if store is None:
        return build()
    graph = store.get_graph(key)
    if graph is None:
        graph = build()
        store.put_graph(key, graph)
    return graph
