"""State-transition garbage collection, and the ids a server incarnation issues.

GcManager issues the TranxID seqs of its server and tracks their
completion.  Its local watermark is the largest sequence k such that every
id at or below k that this server issued is aborted, or committed *and
acknowledged by every remote participant*; an id an earlier incarnation
issued and never committed is aborted too (presumed abort: an abort is
neither logged nor acked).  Watermarks are persisted in the fixed-size
GCLog, broadcast to peers, and drive WAL file reclamation and the server's
pruning of its coordinator and participant records
(ServerNode._reclaim_records).  They also settle a participant's
undecided slice, live or at restart (a PartReady with no PartCommit):
one they passed aborted, as a commit completes only once every remote
participant forced PartCommit, and WAL files are reclaimed oldest first.

The GCLog also keeps the server's restart epoch.  GcManager.restart takes
the next one and persists it with one GCLog write before any TranxID or
client id carrying it is issued, so a restart torn before that write is
taken again and reuses nothing.

Ordering contract (matters for crash safety): volatile GC state changes
strictly before the GCLog write, the GCLog write before any file
reclamation, and the key-value store is synced before files are deleted so
no applied write depends on a reclaimed record.

GCLog format, bit exact: two halves of identical layout, written
alternately (generation % 2 picks the half); the valid half with the
larger generation is the one read at open.
  half = generation: u64 LE | epoch: u32 LE | slot_count: u32 LE
         | slot_count x (server: u32 LE, seq: u64 LE)
         | crc32: u32 LE over everything before it
A file whose length is not two such halves is refused with CorruptionError,
and so is one with neither a valid nor an all-zero (never written) half: a
write tears only the half it overwrites.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from .env import NodeEnv
from .model import ServerId, TranxID
from .wal import CorruptionError

GCLOG_NAME = "gclog"
EPOCH_SHIFT = 40  # a TranxID's seq is (epoch - 1) << EPOCH_SHIFT | n, n >= 1
_HEAD = struct.Struct("<QII")  # generation, epoch, slot_count
_SLOT = struct.Struct("<IQ")


def _half_size(members: int) -> int:
    return _HEAD.size + members * _SLOT.size + 4


def gclog_member_count(length: int) -> int:
    """The member count of a GCLog of `length` bytes, for a reader that does
    not know the cluster; GcLog refuses a length no count gives."""
    return max(0, (length // 2 - _half_size(0)) // _SLOT.size)


class GcLog:
    """Fixed-size, double-buffered, atomically overwritten file of the
    restart epoch and the watermark table, decoded once at open: a fresh or
    torn-at-first-write file reads as generation 0, epoch 0 and all-zero
    watermarks."""

    def __init__(self, env: NodeEnv, member_ids: list[ServerId]) -> None:
        self.members = sorted(member_ids)
        self.half = _half_size(len(self.members))
        if env.region_exists(GCLOG_NAME):
            self.region = env.open_region(GCLOG_NAME)
            if self.region.length != 2 * self.half:
                self.region.close()
                raise CorruptionError(
                    f"gclog is {self.region.length} B, not two {self.half} B halves"
                )
        else:
            self.region = env.create_region(GCLOG_NAME, 2 * self.half)
        self.generation, self.epoch, self.table = 0, 0, dict.fromkeys(self.members, 0)
        halves = [self.region.read_at(offset, self.half) for offset in (0, self.half)]
        valid = [d for d in map(self._decode_half, halves) if d is not None]
        if not valid and all(any(h) for h in halves):
            self.region.close()
            raise CorruptionError(f"{GCLOG_NAME}: no half is valid and none is unwritten")
        if valid:
            self.generation, self.epoch, self.table = max(valid, key=lambda d: d[0])

    def _encode_half(self, generation: int, table: dict[ServerId, int]) -> bytes:
        body = _HEAD.pack(generation, self.epoch, len(self.members)) + b"".join(
            _SLOT.pack(sid, table.get(sid, 0)) for sid in self.members
        )
        return body + struct.pack("<I", zlib.crc32(body))

    def _decode_half(self, data: bytes) -> tuple[int, int, dict[ServerId, int]] | None:
        body, crc_bytes = data[:-4], data[-4:]
        if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(body):
            return None
        generation, epoch, count = _HEAD.unpack_from(body)
        if count != len(self.members):
            return None
        slots = (_SLOT.unpack_from(body, _HEAD.size + i * _SLOT.size) for i in range(count))
        return generation, epoch, dict(slots)

    def write(self, table: dict[ServerId, int]) -> None:
        """Persist table with the current epoch over the older half."""
        self.generation += 1
        data = self._encode_half(self.generation, table)
        offset = (self.generation % 2) * self.half
        self.region.write_at(offset, data)
        self.region.persist(offset, len(data))

    def close(self) -> None:
        self.region.close()


@dataclass
class GcManager:
    """The server's TranxID issuer and completion record, GCLog and WAL
    reclamation.

    Incarnation `epoch` (GcLog.epoch after restart()) issues seqs base + 1,
    base + 2, ... with base = (epoch - 1) << 40, so the first keeps 1, 2,
    3, ... and no incarnation reuses an id an earlier one sent in a
    PREPARE.  _pending holds the seqs issued, or recovered committed but
    not acked, and not yet complete, ascending in insertion order.  The
    watermark lc sits just below the first of them, or at the last seq
    issued when none is pending: so at a restart it passes every id the old
    incarnation issued, except a commit not yet acked.

    Single-threaded by contract: every call comes from the server's
    protocol thread, as every ServerNode step does.  The manager keeps no
    other per-transaction state: the server's coordinator and participant
    records answer every question about a transaction and are pruned by
    the same watermark table.
    """

    server: ServerId
    gclog: GcLog
    tranxlog: object  # TranxLog
    store: object  # StorageEngine (synced before reclaiming)
    trace: object = None  # callable(event: str, **info), optional
    table: dict[ServerId, int] = field(default_factory=dict)
    base: int = 0
    last_issued: int = 0
    _pending: dict[int, None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.table = dict(self.gclog.table)

    def _emit(self, event: str, **info) -> None:
        if self.trace is not None:
            self.trace(event, **info)

    def restart(self) -> None:
        """Take the next restart epoch and persist it; call once, before the
        first next_seq() and before any client id is assigned."""
        self.gclog.epoch += 1
        self.gclog.write(self.table)
        self.base = self.last_issued = (self.gclog.epoch - 1) << EPOCH_SHIFT

    def next_seq(self) -> int:
        if self.last_issued - self.base >= (1 << EPOCH_SHIFT) - 1:
            raise OverflowError("TranxID sequence space of this epoch exhausted")
        self.last_issued += 1
        self._pending[self.last_issued] = None
        return self.last_issued

    def hold(self, seq: int) -> None:
        """Keep a recovered seq, below base, pending; call in ascending
        order before the first next_seq()."""
        self._pending[seq] = None

    @property
    def lc(self) -> int:
        for seq in self._pending:
            return seq - 1
        return self.last_issued

    def mark_complete(self, tranx: TranxID) -> None:
        """A transaction this server coordinated is finally agreed; marking
        it again changes nothing."""
        assert tranx.coordinator == self.server
        assert tranx.seq <= self.last_issued, f"completion for unissued seq {tranx.seq}"
        self._pending.pop(tranx.seq, None)
        if self.trace is not None:
            self.trace("gc.volatile", tranx=tranx, lc=self.lc)

    def tick(self) -> int:
        """Periodic coordinator-side pass, in the mandated order; returns the
        local watermark, which the server then broadcasts to its peers."""
        self.table[self.server] = self.lc  # snapshot volatile state
        self._persist_and_reclaim()
        return self.lc

    def on_lc_broadcast(self, sender: ServerId, lc_seq: int) -> bool:
        """Participant-side watermark intake; stale or unknown senders ignored."""
        if sender not in self.table:
            return False
        if lc_seq <= self.table[sender]:
            return False
        self.table[sender] = lc_seq
        self._persist_and_reclaim()
        return True

    def _persist_and_reclaim(self) -> None:
        """Persist the table, then sync the store and reclaim WAL files
        under it."""
        self.gclog.write(self.table)
        self._emit("gc.gclog", table=dict(self.table))
        self.store.sync()
        reclaimed = self.tranxlog.reclaim_oldest(self.table)
        if reclaimed:
            self._emit("gc.reclaim", files=reclaimed)

    def is_final_by_watermark(self, tranx: TranxID) -> bool:
        return tranx.seq <= self.table.get(tranx.coordinator, 0)
