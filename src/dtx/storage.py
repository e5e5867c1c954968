"""Per-server versioned key-value storage.

Every stored value carries its version as a fixed 8-byte little-endian
field (binary-safe, unlike a text delimiter).  The durable
map sits behind a narrow interface (get/apply/sync/items) with two
backends: an in-process one for the deterministic simulator, where crash
durability is modelled by a volatile overlay that a restart discards, and
an append-log file store for real data directories.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import OrderedDict


def read_store_log(data: bytes):
    """Parse a db/data.log image into (rows, stop).

    rows are the (key, value, version) writes in log order.  Parsing stops
    at the first frame that is cut short or fails its checksum; stop is then
    ("torn", offset) or ("corrupt", offset), and None when the image ends
    cleanly.
    """
    rows = []
    pos = 0
    while pos < len(data):
        if pos + 8 > len(data):  # not even a whole frame header
            return rows, ("torn", pos)
        n, crc = struct.unpack_from("<II", data, pos)
        if pos + 8 + n > len(data):
            return rows, ("torn", pos)
        frame = data[pos + 8 : pos + 8 + n]
        if zlib.crc32(frame) & 0xFFFFFFFF != crc:
            return rows, ("corrupt", pos)
        klen, vlen = struct.unpack_from("<II", frame, 0)
        (version,) = struct.unpack_from("<Q", frame, 8 + klen + vlen)
        rows.append((frame[8 : 8 + klen], frame[8 + klen : 8 + klen + vlen], version))
        pos += 8 + n
    return rows, None

class KvStore:
    """Durable key -> (value, version) map."""

    def get(self, key: bytes) -> tuple[bytes, int] | None:
        raise NotImplementedError

    def apply(self, writes: list[tuple[bytes, bytes, int]]) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class MemKvStore(KvStore):
    """Simulator store: `durable` survives a crash, the overlay does not.

    The durable dict is owned by the caller (the simulated server's
    environment) so a restarted server reopens the same one.
    """

    def __init__(self, durable: dict[bytes, tuple[bytes, int]]) -> None:
        self.durable = durable
        self.overlay: dict[bytes, tuple[bytes, int]] = {}

    def get(self, key: bytes) -> tuple[bytes, int] | None:
        if key in self.overlay:
            return self.overlay[key]
        return self.durable.get(key)

    def apply(self, writes: list[tuple[bytes, bytes, int]]) -> None:
        for key, value, version in writes:
            self.overlay[key] = (value, version)

    def sync(self) -> None:
        self.durable.update(self.overlay)
        self.overlay.clear()


class FileKvStore(KvStore):
    """Append-log backed store: <dir>/db/data.log holds framed writes.

    Open replays the log up to a torn or corrupt tail and truncates the
    file there, so the rows appended next are replayed too; sync is
    flush+fsync.
    """

    def __init__(self, root: str) -> None:
        self.path = os.path.join(root, "db", "data.log")
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        self._map: dict[bytes, tuple[bytes, int]] = {}
        self._replay()
        self._f = open(self.path, "ab")

    def _replay(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r+b") as f:
            rows, stop = read_store_log(f.read())
            if stop is not None:
                f.truncate(stop[1])
        for key, value, version in rows:
            self._map[key] = (value, version)

    def get(self, key: bytes) -> tuple[bytes, int] | None:
        return self._map.get(key)

    def apply(self, writes: list[tuple[bytes, bytes, int]]) -> None:
        for key, value, version in writes:
            frame = struct.pack("<II", len(key), len(value)) + key + value + struct.pack(
                "<Q", version
            )
            self._f.write(struct.pack("<II", len(frame), zlib.crc32(frame) & 0xFFFFFFFF))
            self._f.write(frame)
            self._map[key] = (value, version)

    def sync(self) -> None:
        self._f.flush()
        os.fsync(self._f.fileno())

    def close(self) -> None:
        self._f.flush()
        self._f.close()


class ServerCache:
    """Bounded LRU of key -> (value, version); never replaces with a stale version."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._map: OrderedDict[bytes, tuple[bytes, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: bytes) -> tuple[bytes, int] | None:
        entry = self._map.get(key)
        if entry is not None:
            self._map.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, key: bytes, value: bytes, version: int) -> bool:
        if self.capacity <= 0:
            return False
        old = self._map.get(key)
        if old is not None and old[1] > version:
            return False  # stale put
        self._map[key] = (value, version)
        self._map.move_to_end(key)
        while len(self._map) > self.capacity:
            self._map.popitem(last=False)
        return True

    def invalidate(self, keys) -> None:
        for key in keys:
            self._map.pop(key, None)

    def __len__(self) -> int:
        return len(self._map)


class StorageEngine:
    """get/apply facade that enforces the version discipline."""

    def __init__(self, store: KvStore) -> None:
        self.store = store

    def get(self, key: bytes) -> tuple[bytes, int] | None:
        return self.store.get(key)

    def current_version(self, key: bytes) -> int:
        entry = self.store.get(key)
        return entry[1] if entry is not None else 0

    def apply_writes(
        self, writes: list[tuple[bytes, bytes, int]], replay: bool = False
    ) -> None:
        """Apply (key, value, post_version) writes.

        On the live commit path the post-version must be exactly current+1
        (1 for an insert); during WAL replay already-applied writes are
        no-ops so replay is idempotent.
        """
        effective = []
        for key, value, version in writes:
            current = self.current_version(key)
            if replay:
                if version <= current:
                    continue
            else:
                assert version == current + 1, (
                    f"post-version {version} for key {key!r} is not current {current}+1"
                )
            effective.append((key, value, version))
        if effective:
            self.store.apply(effective)

    def sync(self) -> None:
        self.store.sync()
