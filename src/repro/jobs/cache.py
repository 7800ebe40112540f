"""Content-addressed on-disk result cache in append-only segment files.

Entries are pickled results — priced cells, stage artifacts and
functional-engine runs — addressed by their fingerprint
(:mod:`repro.jobs.fingerprint`) and appended as records to a few
segment files, ``<root>/segments/NNNNNN.seg``.  A record is a fixed
header (magic, key length, value length, CRC-32 over key and value,
CRC-32 over the header fields and key), then the key, then the pickle.

A writing process claims the first segment no live process holds, with
a non-blocking exclusive ``flock``, and appends to it for as long as it
lives (its threads take turns under a lock); only when every segment is
held does it create the next one.  So a store has as many segments as
it ever had concurrent writers, not one file per entry.  A forked child
claims a segment of its own and never writes through the descriptor it
inherited.  Claiming a segment cuts a torn tail a dead writer left; a
failed append is cut back the same way, and costs only the entry.

Readers keep one in-memory index per process and store directory (key
→ segment, offset, length, CRC), built on the first lookup and
extended on a miss by scanning each segment from where the last scan
stopped.  A scan stops at a record that is cut short (its write may
still be in flight) or damaged; a value whose CRC or pickle fails reads
as a miss and is dropped from the index.  Invalidation is purely
key-based: a model change rotates the code salt and old keys stop being
looked up; deleting the directory reclaims their space.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import struct
import threading
import weakref
import zlib
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

    The one store handle: the runner, the executor, the stage pricer,
    the server and the pool tasks each take this object and build the
    stores they need from it (the result cache, the serving store's
    tiers, the shared graph store).  It is hashable (it keys the
    per-process pricer memo) and picklable (it crosses pool boundaries
    verbatim).
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

    def result_cache(self) -> Any:
        """A result cache rooted at :attr:`root` (Null when disabled)."""
        return ResultCache(self.root) if self.root else NullCache()

    @property
    def graph_root(self) -> Optional[str]:
        return os.path.join(self.root, "graphs") if self.root else None

    def activate_graph_store(self):
        """Make the process-wide graph store this config's: the store
        under this root, or none when disk-less (so a store an earlier
        run left active is not written to); returns it."""
        from repro.graph.shared import disable_graph_store, \
            enable_graph_store
        if not self.root:
            disable_graph_store()
            return None
        return enable_graph_store(self.graph_root)


#: A record's header: magic, key length, value length, CRC-32 over key
#: and value, then CRC-32 over those fields and the key.  The second CRC
#: lets a scan, which reads no values, reject a damaged length or key.
_FIELDS = struct.Struct("<4sHQI")
_HEADER = struct.Struct(_FIELDS.format + "I")
_MAGIC = b"RSG1"
_SUFFIX = ".seg"
#: Bytes per read while scanning headers; a larger value is skipped.
_SCAN_CHUNK = 1 << 16


class _Scan:
    """How far this process has indexed one segment file."""

    __slots__ = ("name", "inode", "offset", "damaged_at")

    def __init__(self, name: str, inode: int) -> None:
        self.name = name
        self.inode = inode
        #: End of the last whole, valid record indexed.
        self.offset = 0
        #: Offset of damage already counted and reported, so a rescan
        #: (or a claim that cuts it) does not count it again.
        self.damaged_at: Optional[int] = None


#: Where a value lives: (segment, value offset, value length, CRC).
_Location = Tuple[_Scan, int, int, int]


class _Segments:
    """One process's view of one segment directory.

    Shared by every :class:`ResultCache` on the directory in this
    process: the key index, and the segment this process appends to.
    The caller's cache is passed in so that damage found here is
    counted and reported on the cache that hit it.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.lock = threading.Lock()
        self.index: Dict[str, _Location] = {}
        self.scans: Dict[str, _Scan] = {}
        #: The claimed segment: an ``O_APPEND`` descriptor holding the
        #: ``flock``, closed when this object is collected.
        self.fd: Optional[int] = None
        self.name: Optional[str] = None
        self._closer: Optional[weakref.finalize] = None

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    # -- reading ------------------------------------------------------------

    def locate(self, key: str, cache: "ResultCache") -> Optional[_Location]:
        with self.lock:
            found = self.index.get(key)
            if found is None:
                self.refresh(cache)
                found = self.index.get(key)
            return found

    def refresh(self, cache: "ResultCache") -> Dict[str, int]:
        """Index what every segment gained since the last scan; returns
        each live segment's size.  Lock held."""
        names = self._listing()
        for gone in set(self.scans) - set(names):
            self.forget_segment(self.scans[gone])
        sizes = {}
        for name in names:
            try:
                stat = os.stat(self.path(name))
                scan = self.scans.get(name)
                if scan is None or scan.inode != stat.st_ino \
                        or scan.offset != stat.st_size:
                    fd = os.open(self.path(name), os.O_RDONLY)
                    try:
                        self._index(fd, name, cache)
                    finally:
                        os.close(fd)
            except FileNotFoundError:  # removed since the listing
                if name in self.scans:
                    self.forget_segment(self.scans[name])
                continue
            sizes[name] = stat.st_size
        return sizes

    def _listing(self) -> List[str]:
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        return sorted(name for name in names if name.endswith(_SUFFIX))

    def _index(self, fd: int, name: str, cache: "ResultCache"
               ) -> Tuple[_Scan, int]:
        """Index segment ``name`` (open as ``fd``) from its last scanned
        offset to its last whole, valid record; returns its scan and
        size.  Reads headers and keys in ``_SCAN_CHUNK`` reads and skips
        values.  Lock held."""
        stat = os.fstat(fd)
        size = stat.st_size
        scan = self.scans.get(name)
        if scan is None or scan.inode != stat.st_ino or size < scan.offset:
            # New, or replaced or cut under us: index it afresh.
            if scan is not None:
                self.forget_segment(scan)
            scan = self.scans[name] = _Scan(name, stat.st_ino)
        pos = scan.offset
        buf, base = b"", pos
        damaged = False
        while pos + _HEADER.size <= size:
            if pos + _HEADER.size > base + len(buf):
                buf, base = os.pread(fd, _SCAN_CHUNK, pos), pos
                if len(buf) < _HEADER.size:
                    break  # cut under us
            magic, key_len, value_len, crc, head_crc = \
                _HEADER.unpack_from(buf, pos - base)
            if magic != _MAGIC:
                damaged = True
                break
            key_end = pos + _HEADER.size + key_len
            if key_end > size:
                break  # cut short
            if key_end > base + len(buf):
                buf, base = os.pread(fd, max(_SCAN_CHUNK, key_end - pos),
                                     pos), pos
                if key_end > base + len(buf):
                    break  # cut under us
            start = pos - base
            key = buf[start + _HEADER.size:key_end - base]
            if zlib.crc32(key, zlib.crc32(
                    buf[start:start + _FIELDS.size])) != head_crc:
                damaged = True
                break
            if key_end + value_len > size:
                break  # cut short: its write may still be in flight
            self.index[key.decode("utf-8", "replace")] = (
                scan, key_end, value_len, crc)
            pos = key_end + value_len
        scan.offset = pos
        if not damaged:
            scan.damaged_at = None
        elif scan.damaged_at != pos:
            scan.damaged_at = pos
            cache._dropped(f"segment {name} is damaged at byte {pos}; "
                           f"no record from there on is readable")
        return scan, size

    def forget(self, key: str, location: _Location) -> None:
        with self.lock:
            if self.index.get(key) is location:
                del self.index[key]

    def forget_segment(self, scan: _Scan) -> None:
        """Drop a vanished or replaced segment's keys.  Lock held."""
        if self.scans.get(scan.name) is scan:
            del self.scans[scan.name]
        for key in [key for key, found in self.index.items()
                    if found[0] is scan]:
            del self.index[key]

    # -- writing ------------------------------------------------------------

    def append(self, key: str, blob: bytes, cache: "ResultCache") -> None:
        """Append one record to this process's segment, claiming one
        first if needed.  Raises ``OSError`` with the segment cut back
        to where the record began."""
        key_bytes = key.encode("utf-8")
        crc = zlib.crc32(blob, zlib.crc32(key_bytes))
        fields = _FIELDS.pack(_MAGIC, len(key_bytes), len(blob), crc)
        head = fields + struct.pack(
            "<I", zlib.crc32(key_bytes, zlib.crc32(fields)))
        with self.lock:
            scan = self._writable(cache)
            start = scan.offset
            total = len(head) + len(key_bytes) + len(blob)
            try:
                written = os.writev(self.fd, (head, key_bytes, blob))
                if written != total:
                    raise OSError(f"short write: {written} of {total} "
                                  f"bytes")
            except OSError:
                try:
                    os.ftruncate(self.fd, start)
                except OSError:
                    self.release()  # the next claimer cuts the tail
                raise
            self.index[key] = (scan, start + len(head) + len(key_bytes),
                               len(blob), crc)
            scan.offset = start + total

    def _writable(self, cache: "ResultCache") -> _Scan:
        """The claimed segment's scan, ending at the segment's end;
        claims a segment first if this process holds none.  Lock
        held."""
        if self.fd is not None:
            stat = os.fstat(self.fd)
            scan = self.scans.get(self.name)
            if stat.st_nlink == 0 or scan is None \
                    or scan.inode != stat.st_ino:
                self.release()  # deleted or replaced under us
            elif stat.st_size != scan.offset:
                self._settle(self.fd, self.name, cache)  # cut under us
        if self.fd is None:
            self._claim(cache)
        return self.scans[self.name]

    def _claim(self, cache: "ResultCache") -> None:
        """Lock the first segment no live process holds, else create the
        next one; index it and cut any torn tail.  Lock held."""
        os.makedirs(self.directory, exist_ok=True)
        names = self._listing()
        for name in names:
            fd = self._open_locked(name, os.O_RDWR | os.O_APPEND)
            if fd is not None:
                self._adopt(fd, name, cache)
                return
        number = 1 + max((int(name[:-len(_SUFFIX)]) for name in names
                          if name[:-len(_SUFFIX)].isdigit()), default=-1)
        while True:
            name = f"{number:06d}{_SUFFIX}"
            number += 1
            try:
                fd = self._open_locked(name, os.O_RDWR | os.O_APPEND
                                       | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                continue
            if fd is not None:
                self._adopt(fd, name, cache)
                return

    def _open_locked(self, name: str, flags: int) -> Optional[int]:
        """Open segment ``name`` and take its lock; None if it vanished
        or another open file holds it."""
        try:
            fd = os.open(self.path(name), flags, 0o666)
        except FileNotFoundError:
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            return None
        except BaseException:
            os.close(fd)
            raise
        return fd

    def _adopt(self, fd: int, name: str, cache: "ResultCache") -> None:
        try:
            self._settle(fd, name, cache)
        except BaseException:
            os.close(fd)
            raise
        self.fd, self.name = fd, name
        self._closer = weakref.finalize(self, os.close, fd)

    def _settle(self, fd: int, name: str, cache: "ResultCache") -> None:
        """Index a segment this process holds to its last whole, valid
        record and cut what follows: a dead writer's torn tail, or
        damage.  Lock held."""
        scan, size = self._index(fd, name, cache)
        if size > scan.offset:
            os.ftruncate(fd, scan.offset)
            if scan.damaged_at != scan.offset:
                cache._dropped(f"cut a torn tail of {size - scan.offset} "
                               f"bytes from segment {name}")
            scan.damaged_at = None

    def release(self) -> None:
        """Close the claimed segment, which drops its lock."""
        if self._closer is not None:
            self._closer()
        self.fd = self.name = self._closer = None

    def forked(self) -> None:
        """In a forked child: fresh lock, and no claimed segment.  The
        inherited descriptor is closed without unlocking, since the
        ``flock`` belongs to the open file the parent still holds."""
        self.lock = threading.Lock()
        if self._closer is not None and self._closer.detach():
            os.close(self.fd)
        self.fd = self.name = self._closer = None


#: Each store directory's :class:`_Segments`, alive while a cache on it
#: is.  Per process, not per cache: an ``flock`` belongs to an open
#: file, so two caches on one directory, each with its own descriptor,
#: would claim two segments from one process.
_OPEN: "weakref.WeakValueDictionary[str, _Segments]" = \
    weakref.WeakValueDictionary()
_OPEN_LOCK = threading.Lock()


def _segments_for(directory: str) -> _Segments:
    directory = os.path.abspath(directory)
    with _OPEN_LOCK:
        segments = _OPEN.get(directory)
        if segments is None:
            segments = _OPEN[directory] = _Segments(directory)
    return segments


def _after_fork_in_child() -> None:
    global _OPEN_LOCK
    _OPEN_LOCK = threading.Lock()
    for segments in list(_OPEN.values()):
        segments.forked()


os.register_at_fork(after_in_child=_after_fork_in_child)


class ResultCache:
    """Pickle store addressed by content fingerprint, kept in append-only
    segment files (see the module docstring for the format).

    Corruption and write failures are survivable (an unreadable or
    unwritten entry is just a miss), but never silent: they are
    reported through ``on_error``, which the job executor wires to its
    progress channel.  Dropped records, damaged segment tails
    and failed writes are also counted on :data:`~repro.obs.TRACER` as
    ``stage.store.corrupt_dropped`` / ``stage.store.write_failed``, so
    a pool worker's store failures travel home with its group's count
    delta like its other stage counts.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 on_error: Optional[Callable[[str], None]] = None
                 ) -> None:
        self.root = root
        self.on_error = on_error
        #: Damaged records and segment tails this cache dropped since
        #: construction.
        self.corrupt_dropped = 0
        #: Writes :meth:`put` gave up on (an ``OSError``) since
        #: construction.
        self.write_failed = 0
        self._segments = _segments_for(os.path.join(root, "segments"))

    def _report(self, message: str) -> None:
        if self.on_error is not None:
            self.on_error(f"cache: {message}")

    def _dropped(self, message: str) -> None:
        self.corrupt_dropped += 1
        TRACER.count("stage.store.corrupt_dropped")
        self._report(message)

    def get(self, key: str) -> Optional[Any]:
        """Stored object for ``key``, or None on miss/corruption.

        Any failure to read *or* decode a record — a checksum mismatch,
        a pickle referencing renamed code — is a miss, never an
        exception: the key is dropped from the index, the drop is
        counted in :attr:`corrupt_dropped`, and the event is reported
        through ``on_error``.  A later :meth:`put` of the key wins.
        Live traffic must not die on a bad cache file.
        """
        segments = self._segments
        try:
            found = segments.locate(key, self)
        except OSError as exc:
            self._report(f"could not index {segments.directory} "
                         f"({exc!r})")
            return None
        if found is None:
            return None
        scan, offset, length, crc = found
        try:
            fd = os.open(segments.path(scan.name), os.O_RDONLY)
            try:
                if os.fstat(fd).st_ino != scan.inode:
                    raise FileNotFoundError(scan.name)
                data = os.pread(fd, length, offset)
            finally:
                os.close(fd)
            if len(data) != length or zlib.crc32(
                    data, zlib.crc32(key.encode("utf-8"))) != crc:
                raise ValueError("checksum mismatch")
            return pickle.loads(data)
        except FileNotFoundError:  # the directory was deleted or remade
            with segments.lock:
                segments.forget_segment(scan)
            return None
        except Exception as exc:
            segments.forget(key, found)
            self._dropped(f"dropping unreadable entry {key} ({exc!r})")
            return None

    def put(self, key: str, value: Any) -> None:
        """Append ``value`` under ``key`` to this process's segment.

        A failed write (full disk, read-only root) costs only the entry,
        never the caller's computed result: the ``OSError`` is counted
        in :attr:`write_failed`, reported through ``on_error``, and
        swallowed.  Pickling errors still raise, before any I/O.
        """
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._segments.append(key, blob, self)
        except OSError as exc:
            self.write_failed += 1
            TRACER.count("stage.store.write_failed")
            self._report(f"could not store entry {key} ({exc!r})")

    def keys(self) -> List[str]:
        with self._segments.lock:
            self._segments.refresh(self)
            return sorted(self._segments.index)

    def stats(self) -> Dict[str, int]:
        """Entry count, total segment bytes, segment count, corruption
        drops and failed writes."""
        with self._segments.lock:
            sizes = self._segments.refresh(self)
            entries = len(self._segments.index)
        return {"entries": entries, "bytes": sum(sizes.values()),
                "segments": len(sizes),
                "corrupt_dropped": self.corrupt_dropped,
                "write_failed": self.write_failed}


class NullCache:
    """Cache interface that stores nothing (``--no-cache``)."""

    root = None
    on_error: Optional[Callable[[str], None]] = None
    corrupt_dropped = 0

    def get(self, key: str) -> Optional[Any]:
        return None

    def put(self, key: str, value: Any) -> None:
        pass

    def keys(self) -> List[str]:
        return []

    def stats(self) -> Dict[str, int]:
        return {"entries": 0, "bytes": 0, "segments": 0,
                "corrupt_dropped": 0, "write_failed": 0}
