"""Three-layer write-ahead log.

Bottom: a persistence Region (see env.py) with explicit flush barriers.
Middle: LogManager frames payloads into fixed 4 KiB checksummed blocks over
a list of timestamp-named files and rotates to a new file when full.
Top: TranxLog appends typed protocol records, each persisted before the
append returns, tracks a per-file summary of the largest sequence number
seen per coordinator (driving reclamation), and provides the oldest-first
recovery scan.

Disk format, bit exact:
  file name        <creation_ts, 20 decimal digits>.log
  file             sequence of 4096-byte blocks
  block            used_len: u32 LE | crc32: u32 LE over payload[0:used_len]
                   | payload | zero padding
  payload          concatenation of entries: entry_len: u32 LE | entry bytes
  unwritten block  used_len == 0

A record never spans blocks; a block is entirely within one file.  Blocks
are sealed exactly once (at flush time or when the next entry does not
fit), so a torn write can only affect a block that held no durable data.
After a restart the first append continues the newest file at the first
block a recovery scan found torn or unwritten, so only the newest file
ever ends torn.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from .env import NodeEnv, Region
from .model import (
    LogRecord,
    MalformedRecordError,
    ServerId,
    decode_record,
    encode_record,
)

BLOCK_SIZE = 4096
BLOCK_HEADER = 8
BLOCK_PAYLOAD_CAP = BLOCK_SIZE - BLOCK_HEADER
MAX_ENTRY = BLOCK_PAYLOAD_CAP - 4
FILE_CAPACITY = 1 << 20  # the size of each log file a server writes


class CorruptionError(Exception):
    """Interior checksum mismatch or a torn block outside the newest file."""


class RecordTooLargeError(Exception):
    pass


def _checksum(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def wal_file_name(ts: int) -> str:
    return f"{ts:020d}.log"


@dataclass
class _ActiveFile:
    name: str
    region: Region
    next_block: int = 0


class LogManager:
    """Block framing and checksums over a rotating list of log files."""

    def __init__(self, env: NodeEnv, file_capacity: int) -> None:
        if file_capacity < BLOCK_SIZE:
            raise ValueError("file capacity below one block")
        self.env = env
        self.file_capacity = file_capacity
        self.blocks_per_file = file_capacity // BLOCK_SIZE
        self._active: _ActiveFile | None = None
        self._buf: list[bytes] = []  # entries of the unsealed block
        self._buf_len = 0
        self._buf_block: tuple[str, int] | None = None  # (file, block index)

    # -- appending ------------------------------------------------------

    def append(self, payload: bytes) -> tuple[str, int]:
        """Buffer one payload; returns (file name, block index) it will land in."""
        entry_len = 4 + len(payload)
        if len(payload) > MAX_ENTRY:
            raise RecordTooLargeError(
                f"payload of {len(payload)} exceeds block capacity {MAX_ENTRY}"
            )
        if self._buf_block is not None and self._buf_len + entry_len > BLOCK_PAYLOAD_CAP:
            self._seal()
        if self._buf_block is None:
            self._start_block()
        self._buf.append(struct.pack("<I", len(payload)) + payload)
        self._buf_len += entry_len
        assert self._buf_block is not None
        return self._buf_block

    def flush(self) -> None:
        """Seal and persist the current partial block; idempotent when empty."""
        if self._buf_block is not None:
            self._seal()

    def _start_block(self) -> None:
        if self._active is None or self._active.next_block >= self.blocks_per_file:
            self._rotate()
        assert self._active is not None
        self._buf_block = (self._active.name, self._active.next_block)
        self._active.next_block += 1

    def _rotate(self) -> None:
        if self._active is not None:
            self._active.region.close()
        name = wal_file_name(self.env.next_ts())
        region = self.env.create_region(name, self.file_capacity)
        self._active = _ActiveFile(name, region)

    def _seal(self) -> None:
        assert self._active is not None and self._buf_block is not None
        payload = b"".join(self._buf)
        header = struct.pack("<II", len(payload), _checksum(payload))
        offset = self._buf_block[1] * BLOCK_SIZE
        self._active.region.write_at(offset, header + payload)
        self._active.region.persist(offset, BLOCK_HEADER + len(payload))
        self._buf = []
        self._buf_len = 0
        self._buf_block = None

    # -- reading ----------------------------------------------------------

    def file_names(self) -> list[str]:
        return self.env.list_regions(".log")

    @property
    def active_file(self) -> str | None:
        return self._active.name if self._active else None

    def read_file(self, name: str, newest: bool) -> list[bytes]:
        """All intact payload entries of one file, in append order.

        In the newest file the scan stops cleanly at the first torn or
        unwritten block (provided nothing valid follows it), and with no
        file open for appending yet, that block is where the next append
        goes; anywhere else a bad block is hard corruption.
        """
        if self._active is not None and name == self._active.name:
            region, close_after = self._active.region, False
        else:
            region, close_after = self.env.open_region(name), True
        try:
            blocks = region.length // BLOCK_SIZE
            out: list[bytes] = []
            for i in range(blocks):
                payload = self._read_block(region, i)
                if payload is None:
                    if not newest:
                        raise CorruptionError(f"torn block {i} in non-newest file {name}")
                    for j in range(i + 1, blocks):
                        if self._read_block(region, j) is not None:
                            raise CorruptionError(
                                f"valid block {j} after torn block {i} in {name}"
                            )
                    if self._active is None:
                        self._active = _ActiveFile(name, region, i)
                        close_after = False
                    return out
                pos = 0
                while pos < len(payload):
                    (n,) = struct.unpack_from("<I", payload, pos)
                    pos += 4
                    if pos + n > len(payload):
                        raise CorruptionError(f"entry overruns block {i} of {name}")
                    out.append(payload[pos : pos + n])
                    pos += n
            return out
        finally:
            if close_after:
                region.close()

    def _read_block(self, region: Region, index: int) -> bytes | None:
        hdr = region.read_at(index * BLOCK_SIZE, BLOCK_HEADER)
        used, crc = struct.unpack("<II", hdr)
        if used == 0:
            return None
        if used > BLOCK_PAYLOAD_CAP:
            return None
        payload = region.read_at(index * BLOCK_SIZE + BLOCK_HEADER, used)
        if _checksum(payload) != crc:
            return None
        return payload

    def close(self) -> None:
        self.flush()
        if self._active is not None:
            self._active.region.close()
            self._active = None


class TranxLog:
    """Append-only typed transaction log with per-file coordinator summaries."""

    def __init__(self, env: NodeEnv, file_capacity: int) -> None:
        self.env = env
        self.manager = LogManager(env, file_capacity)
        # file name -> {coordinator: max seq in file}
        self.summaries: dict[str, dict[ServerId, int]] = {}

    def append(self, record: LogRecord) -> None:
        """Append one record and persist it: every record is forced."""
        fname, _ = self.manager.append(encode_record(record))
        summary = self.summaries.setdefault(fname, {})
        t = record.tranx
        if t.seq > summary.get(t.coordinator, 0):
            summary[t.coordinator] = t.seq
        self.manager.flush()

    def scan(self):
        """Yield every intact record, oldest file first (recovery path).

        Also rebuilds the per-file summaries as a side effect, so a freshly
        opened log knows what each surviving file covers.
        """
        names = self.manager.file_names()
        for idx, name in enumerate(names):
            if name == self.manager.active_file:
                self.manager.flush()
            summary = self.summaries.setdefault(name, {})
            for entry in self.manager.read_file(name, newest=idx == len(names) - 1):
                try:
                    rec = decode_record(entry)
                except MalformedRecordError as e:
                    raise CorruptionError(f"undecodable record in {name}: {e}") from e
                t = rec.tranx
                if t.seq > summary.get(t.coordinator, 0):
                    summary[t.coordinator] = t.seq
                yield rec

    def reclaim_oldest(self, lc: dict[ServerId, int]) -> int:
        """Delete oldest files whose every record is covered by the watermarks.

        The active file is never deleted.  Files are removed strictly in
        creation order; the first uncovered file stops the pass.
        """
        deleted = 0
        for name in self.manager.file_names():
            if name == self.manager.active_file:
                break
            summary = self.summaries.get(name, {})
            if not all(seq <= lc.get(coord, 0) for coord, seq in summary.items()):
                break
            self.env.delete_region(name)
            self.summaries.pop(name, None)
            deleted += 1
        return deleted

    def file_count(self) -> int:
        return len(self.manager.file_names())

    def close(self) -> None:
        self.manager.close()
