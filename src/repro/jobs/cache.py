"""Content-addressed on-disk result cache.

Entries are pickled results — priced cells, stage artifacts and
functional-engine runs — stored under
``<root>/objects/<key[:2]>/<key>.pkl`` where ``key`` is the result's
fingerprint (:mod:`repro.jobs.fingerprint`).  Writes are atomic
(temp file + ``os.replace``) so concurrent workers and interrupted runs
can never leave a torn entry; a write that fails is dropped, and reads
treat any unpicklable entry as a miss and delete it.  Invalidation is
purely key-based: a model change rotates the code salt, old keys stop
being looked up, and ``prune`` removes them.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import TRACER

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default hot-tier entry budget of the serving store (see
#: :class:`repro.serve.store.TieredStore`).
DEFAULT_HOT_CAPACITY = 1024


@dataclass(frozen=True)
class StoreConfig:
    """One frozen description of every store a pricing run touches.

    Cache-root plumbing used to travel as four ad-hoc parameters —
    ``execute_group(..., cache_root=)``, the ``TieredStore`` disk root,
    the ``StagePricer`` bundle memo's cache, and the ``GraphStore``
    activation path.  This object consolidates them: it is hashable
    (it keys per-process worker-pricer memo tables), picklable (it
    crosses pool boundaries verbatim), and explicit (every layer
    receives the same resolved configuration instead of re-deriving
    roots from whatever cache object happens to be nearby).
    """

    #: On-disk root shared by the result cache, the tiered store's disk
    #: tier, and the graph store (``<root>/graphs``); None disables
    #: every disk tier.
    root: Optional[str] = None
    #: Vertex-range partition count of the stream stage (K=1 keeps the
    #: whole-graph path; K>1 enables graph-delta partition reuse).
    stream_partitions: int = 1
    #: Hot-tier entry budget of the serving store.
    hot_capacity: int = DEFAULT_HOT_CAPACITY

    @classmethod
    def from_cache(cls, cache: Any,
                   stream_partitions: int = 1) -> "StoreConfig":
        """Adopt an existing cache object's root (compat shim for the
        ``cache=``-only call sites)."""
        return cls(root=getattr(cache, "root", None),
                   stream_partitions=stream_partitions)

    def result_cache(self) -> Any:
        """A result cache rooted at :attr:`root` (Null when disabled)."""
        return ResultCache(self.root) if self.root else NullCache()

    @property
    def graph_root(self) -> Optional[str]:
        return os.path.join(self.root, "graphs") if self.root else None

    def activate_graph_store(self):
        """Enable the shared graph store under this root (no-op when
        disk-less); returns the active store or None."""
        if not self.root:
            return None
        from repro.graph.shared import enable_graph_store
        return enable_graph_store(self.graph_root)


class ResultCache:
    """Pickle-on-disk store addressed by content fingerprint.

    Corruption, write and cleanup failures are survivable (an
    unreadable or unwritten entry is just a miss), but never silent:
    they are reported through ``on_error``, which the job executor
    wires to its progress/telemetry channel.  Dropped entries and
    failed writes are also counted on :data:`~repro.obs.TRACER` as
    ``stage.store.corrupt_dropped`` / ``stage.store.write_failed``, so
    a pool worker's store failures travel home with its group's count
    delta like its other stage counts.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 on_error: Optional[Callable[[str], None]] = None
                 ) -> None:
        self.root = root
        self.on_error = on_error
        #: Unreadable/undecodable entries dropped by :meth:`get` since
        #: construction — the store's corruption telemetry counter.
        self.corrupt_dropped = 0
        #: Writes :meth:`put` gave up on (an ``OSError``) since
        #: construction.
        self.write_failed = 0
        self._objects = os.path.join(root, "objects")

    def _report(self, message: str) -> None:
        if self.on_error is not None:
            self.on_error(f"cache: {message}")

    @property
    def enabled(self) -> bool:
        return True

    def _path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], f"{key}.pkl")

    def get(self, key: str) -> Optional[Any]:
        """Stored object for ``key``, or None on miss/corruption.

        Any failure to read *or* decode an entry — truncation, torn
        bytes, a pickle referencing renamed code — is a miss, never an
        exception: the bad file is deleted, the drop is counted in
        :attr:`corrupt_dropped`, and the event is reported through
        ``on_error``.  Live traffic must not die on a bad cache file.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as exc:
            self.corrupt_dropped += 1
            TRACER.count("stage.store.corrupt_dropped")
            self._report(f"dropping unreadable entry {key} ({exc!r})")
            try:
                os.remove(path)
            except OSError as remove_exc:
                self._report(f"could not remove corrupt entry {key} "
                             f"({remove_exc!r})")
            return None

    def put(self, key: str, value: Any) -> None:
        """Atomically store ``value`` under ``key``.

        A failed write (full disk, read-only root) costs only the entry,
        never the caller's computed result: the ``OSError`` is counted
        in :attr:`write_failed`, reported through ``on_error``, and
        swallowed.  Pickling errors still raise.
        """
        path = self._path(key)
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError as exc:
            self.write_failed += 1
            TRACER.count("stage.store.write_failed")
            self._report(f"could not store entry {key} ({exc!r})")
        finally:
            if tmp is not None and os.path.exists(tmp):
                try:
                    os.remove(tmp)
                except OSError as exc:
                    self._report(f"could not clean up temp file {tmp} "
                                 f"({exc!r})")

    def keys(self) -> List[str]:
        found = []
        for dirpath, _dirnames, filenames in os.walk(self._objects):
            for name in filenames:
                if name.endswith(".pkl"):
                    found.append(name[:-len(".pkl")])
        return sorted(found)

    def stats(self) -> Dict[str, int]:
        """Entry count, total size in bytes, corruption drops and
        failed writes."""
        entries, nbytes = 0, 0
        for dirpath, _dirnames, filenames in os.walk(self._objects):
            for name in filenames:
                if name.endswith(".pkl"):
                    try:
                        size = os.path.getsize(os.path.join(dirpath,
                                                            name))
                    except OSError:
                        # A concurrent prune/get raced us; the entry is
                        # simply gone — don't count it, don't die.
                        continue
                    entries += 1
                    nbytes += size
        return {"entries": entries, "bytes": nbytes,
                "corrupt_dropped": self.corrupt_dropped,
                "write_failed": self.write_failed}

    def prune(self, live_keys) -> Tuple[int, int]:
        """Drop entries not in ``live_keys``; returns (kept, removed).

        Safe against concurrent writers: an entry that vanishes between
        the scan and the unlink counts as removed (someone beat us to
        it), not as an error.  Also sweeps orphaned ``*.tmp`` files a
        crashed writer may have left next to the objects.
        """
        live = set(live_keys)
        kept = removed = 0
        for key in self.keys():
            if key in live:
                kept += 1
            else:
                try:
                    os.remove(self._path(key))
                    removed += 1
                except FileNotFoundError:
                    removed += 1
                except OSError as exc:
                    self._report(f"could not prune entry {key} "
                                 f"({exc!r})")
        for dirpath, _dirnames, filenames in os.walk(self._objects):
            for name in filenames:
                if name.endswith(".tmp"):
                    try:
                        os.remove(os.path.join(dirpath, name))
                    except OSError:
                        pass
        return kept, removed


class NullCache:
    """Cache interface that stores nothing (``--no-cache``)."""

    root = None
    on_error: Optional[Callable[[str], None]] = None
    corrupt_dropped = 0

    @property
    def enabled(self) -> bool:
        return False

    def get(self, key: str) -> Optional[Any]:
        return None

    def put(self, key: str, value: Any) -> None:
        pass

    def keys(self) -> List[str]:
        return []

    def stats(self) -> Dict[str, int]:
        return {"entries": 0, "bytes": 0, "corrupt_dropped": 0,
                "write_failed": 0}
