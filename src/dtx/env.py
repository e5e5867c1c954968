"""Durable-storage backends.

A NodeEnv owns everything on a server that survives a crash: fixed-length
regions, which hold the write-ahead log and the GCLog (the restart epoch
and the watermark table, gc.py).
Three region flavors exist:

* mapped  - a memory-mapped file; the persist barrier is a store fence with
  no syscall, modelling DRAM-emulated persistent memory (durable across a
  process crash; an msync is issued on clean close).
* file    - buffered file writes with fsync as the persist barrier,
  modelling an SSD-backed log.
* memory  - an in-process bytearray with explicit durable-watermark
  bookkeeping; used by the deterministic simulator, where a crash is
  injected by discarding every byte not covered by a persist barrier.

Only the memory flavor models a crash: it tracks its unpersisted write
ranges, and crash() zeroes them, exactly as if the writes never reached the
medium.  The other two bound every access and issue their barrier.
"""

from __future__ import annotations

import mmap
import os
import time

from .storage import fsync_dir


class RegionFullError(Exception):
    """Append would exceed the region's fixed length."""


class Region:
    """Fixed-length random-access byte region with an explicit persist barrier."""

    def __init__(self, length: int) -> None:
        self.length = length

    def write_at(self, offset: int, data: bytes) -> None:
        if offset < 0 or offset + len(data) > self.length:
            raise RegionFullError(
                f"write of {len(data)} at {offset} exceeds region length {self.length}"
            )
        self._write(offset, data)

    def read_at(self, offset: int, n: int) -> bytes:
        if offset < 0 or offset + n > self.length:
            raise ValueError("read out of range")
        return self._read(offset, n)

    def persist(self, offset: int = 0, n: int | None = None) -> None:
        """Durability barrier for [offset, offset+n); default: everything."""
        self._barrier(offset, self.length - offset if n is None else n)

    def close(self) -> None:
        pass

    # backend hooks
    def _write(self, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def _read(self, offset: int, n: int) -> bytes:
        raise NotImplementedError

    def _barrier(self, offset: int, n: int) -> None:
        raise NotImplementedError


class MemoryRegion(Region):
    """Grows as it is written, by at least doubling, up to its length; bytes
    past the end of the buffer read as zero.  Keeps the sorted, disjoint
    byte ranges written since their last persist, which crash() loses."""

    def __init__(self, length: int) -> None:
        super().__init__(length)
        self._buf = bytearray()
        self._dirty: list[tuple[int, int]] = []

    @staticmethod
    def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
        ranges.sort()
        out = [ranges[0]]
        for lo, hi in ranges[1:]:
            if lo <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], hi))
            else:
                out.append((lo, hi))
        return out

    def _write(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if end > len(self._buf):
            self._buf += bytes(min(self.length, max(end, 2 * len(self._buf))) - len(self._buf))
        self._buf[offset:end] = data
        self._dirty = self._merge_ranges(self._dirty + [(offset, end)])

    def _read(self, offset: int, n: int) -> bytes:
        return bytes(self._buf[offset : offset + n]).ljust(n, b"\0")

    def _barrier(self, offset: int, n: int) -> None:
        hi = offset + n
        self._dirty = [(lo, rhi) for lo, rhi in self._dirty if lo < offset or rhi > hi]

    def crash(self) -> None:
        """Simulate power loss: unpersisted writes are lost (zeroed)."""
        for lo, hi in self._dirty:
            self._buf[lo:hi] = bytes(hi - lo)
        self._dirty = []


class MappedRegion(Region):
    """mmap-backed region; persist is a fence, not a syscall (pmem model)."""

    def __init__(self, path: str, length: int) -> None:
        super().__init__(length)
        self.path = path
        existed = os.path.exists(path)
        self._f = open(path, "r+b" if existed else "w+b")
        if not existed or os.path.getsize(path) < length:
            self._f.truncate(length)
        self._mm = mmap.mmap(self._f.fileno(), length)

    def _write(self, offset: int, data: bytes) -> None:
        self._mm[offset : offset + len(data)] = data

    def _read(self, offset: int, n: int) -> bytes:
        return bytes(self._mm[offset : offset + n])

    def _barrier(self, offset: int, n: int) -> None:
        # Stores to the mapping are visible to the kernel immediately; the
        # pmem model needs only ordering here.  A real clflush has no
        # Python equivalent and the kernel keeps the pages on process death.
        pass

    def close(self) -> None:
        self._mm.flush()
        self._mm.close()
        self._f.close()


class FileSyncRegion(Region):
    """Plain file with fsync barriers (SSD log model)."""

    def __init__(self, path: str, length: int) -> None:
        super().__init__(length)
        self.path = path
        existed = os.path.exists(path)
        self._f = open(path, "r+b" if existed else "w+b")
        if not existed or os.path.getsize(path) < length:
            self._f.truncate(length)

    def _write(self, offset: int, data: bytes) -> None:
        self._f.seek(offset)
        self._f.write(data)

    def _read(self, offset: int, n: int) -> bytes:
        self._f.seek(offset)
        return self._f.read(n)

    def _barrier(self, offset: int, n: int) -> None:
        self._f.flush()
        os.fsync(self._f.fileno())

    def close(self) -> None:
        self._f.flush()
        self._f.close()


class NodeEnv:
    """Abstract durable environment of one server."""

    def create_region(self, name: str, length: int) -> Region:
        raise NotImplementedError

    def open_region(self, name: str) -> Region:
        raise NotImplementedError

    def region_exists(self, name: str) -> bool:
        raise NotImplementedError

    def list_regions(self, suffix: str) -> list[str]:
        """Names with the given suffix, sorted ascending (== creation order)."""
        raise NotImplementedError

    def delete_region(self, name: str) -> None:
        raise NotImplementedError

    def next_ts(self) -> int:
        """Monotone, collision-free creation timestamp for log file names."""
        raise NotImplementedError


class MemEnv(NodeEnv):
    """In-process environment for the deterministic simulator.

    The object itself plays the role of the durable medium: a simulated
    server crash discards the ServerNode but keeps its MemEnv (after
    calling crash_all() to drop unpersisted bytes).
    """

    def __init__(self) -> None:
        self._regions: dict[str, MemoryRegion] = {}
        self._ts = 0

    def create_region(self, name: str, length: int) -> MemoryRegion:
        if name in self._regions:
            raise FileExistsError(name)
        r = MemoryRegion(length)
        self._regions[name] = r
        return r

    def open_region(self, name: str) -> MemoryRegion:
        return self._regions[name]

    def region_exists(self, name: str) -> bool:
        return name in self._regions

    def list_regions(self, suffix: str) -> list[str]:
        return sorted(n for n in self._regions if n.endswith(suffix))

    def delete_region(self, name: str) -> None:
        del self._regions[name]

    def next_ts(self) -> int:
        self._ts += 1
        return self._ts

    def crash_all(self) -> None:
        for r in self._regions.values():
            r.crash()


class DiskEnv(NodeEnv):
    """Directory-backed environment: <dir>/wal/*.log, <dir>/gclog, <dir>/db/.

    Each file or directory it creates has its directory synced, so the
    name is as durable as its contents."""

    def __init__(self, root: str, backend: str = "mapped") -> None:
        if backend not in ("mapped", "file"):
            raise ValueError(f"unknown region backend {backend!r}")
        self.root = root
        self.backend = backend
        for d in (root, os.path.join(root, "wal"), os.path.join(root, "db")):
            if not os.path.isdir(d):
                os.makedirs(d)
                fsync_dir(os.path.dirname(os.path.abspath(d)))
        self._last_ts = 0

    def _path(self, name: str) -> str:
        if name.endswith(".log"):
            return os.path.join(self.root, "wal", name)
        return os.path.join(self.root, name)

    def _make(self, path: str, length: int) -> Region:
        if self.backend == "mapped":
            return MappedRegion(path, length)
        return FileSyncRegion(path, length)

    def create_region(self, name: str, length: int) -> Region:
        path = self._path(name)
        if os.path.exists(path):
            raise FileExistsError(path)
        region = self._make(path, length)
        fsync_dir(os.path.dirname(path))
        return region

    def open_region(self, name: str) -> Region:
        path = self._path(name)
        return self._make(path, os.path.getsize(path))

    def region_exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def list_regions(self, suffix: str) -> list[str]:
        if suffix == ".log":
            return sorted(os.listdir(os.path.join(self.root, "wal")))
        return sorted(
            n
            for n in os.listdir(self.root)
            if n.endswith(suffix) and os.path.isfile(os.path.join(self.root, n))
        )

    def delete_region(self, name: str) -> None:
        os.unlink(self._path(name))

    def next_ts(self) -> int:
        ts = max(time.time_ns(), self._last_ts + 1)
        self._last_ts = ts
        return ts
