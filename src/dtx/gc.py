"""State-transition garbage collection.

Each server tracks completion of the transactions it coordinated.  Its
local watermark is the largest sequence k such that every id at or below k
that this server issued is aborted, or committed *and acknowledged by
every remote participant*; an id an earlier incarnation issued and never
committed is aborted too (presumed abort: an abort is neither logged nor
acked).  Watermarks are persisted in the fixed-size GCLog, broadcast to
peers, and drive WAL file reclamation and the server's pruning of its
coordinator and participant records (ServerNode._reclaim_records).

Ordering contract (matters for crash safety): volatile GC state changes
strictly before the GCLog write, the GCLog write before any file
reclamation, and the key-value store is synced before files are deleted so
no applied write depends on a reclaimed record.

GCLog format, bit exact: two halves of identical layout, written
alternately (generation % 2 picks the half), read side takes the valid
half with the larger generation.
  half = generation: u64 LE | slot_count: u32 LE
         | slot_count x (server: u32 LE, seq: u64 LE)
         | crc32: u32 LE over everything before it
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from .env import NodeEnv
from .model import ServerId, TranxID

GCLOG_NAME = "gclog"


def _half_size(members: int) -> int:
    return 8 + 4 + members * 12 + 4


class GcLog:
    """Fixed-size, double-buffered, atomically overwritten watermark file."""

    def __init__(self, env: NodeEnv, member_ids: list[ServerId]) -> None:
        self.env = env
        self.members = sorted(member_ids)
        self.half = _half_size(len(self.members))
        if env.region_exists(GCLOG_NAME):
            self.region = env.open_region(GCLOG_NAME)
        else:
            self.region = env.create_region(GCLOG_NAME, 2 * self.half)
        self.generation = self._read_generation()

    def _encode_half(self, generation: int, table: dict[ServerId, int]) -> bytes:
        body = struct.pack("<QI", generation, len(self.members))
        for sid in self.members:
            body += struct.pack("<IQ", sid, table.get(sid, 0))
        return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)

    def _decode_half(self, data: bytes) -> tuple[int, dict[ServerId, int]] | None:
        body, crc_bytes = data[:-4], data[-4:]
        if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(body) & 0xFFFFFFFF:
            return None
        generation, count = struct.unpack_from("<QI", body, 0)
        if count != len(self.members):
            return None
        table = {}
        for i in range(count):
            sid, seq = struct.unpack_from("<IQ", body, 12 + i * 12)
            table[sid] = seq
        return generation, table

    def _read_generation(self) -> int:
        gen, _ = self._read_best()
        return gen

    def _read_best(self) -> tuple[int, dict[ServerId, int]]:
        best = (0, {sid: 0 for sid in self.members})
        for half_idx in (0, 1):
            data = self.region.read_at(half_idx * self.half, self.half)
            decoded = self._decode_half(data)
            if decoded is not None and decoded[0] > best[0]:
                best = decoded
        return best

    def read(self) -> dict[ServerId, int]:
        """Highest-generation valid table; all zeros on a fresh or wrecked file."""
        return dict(self._read_best()[1])

    def write(self, table: dict[ServerId, int]) -> None:
        self.generation += 1
        data = self._encode_half(self.generation, table)
        offset = (self.generation % 2) * self.half
        self.region.write_at(offset, data)
        self.region.persist(offset, len(data))

    def close(self) -> None:
        self.region.close()


EPOCH_SHIFT = 40  # a TranxID's seq is (epoch - 1) << EPOCH_SHIFT | n, n >= 1


class CompletionTracker:
    """The TranxID seqs of one server incarnation, and its watermark.

    Incarnation `epoch` (the restart count ServerNode._bump_epoch persists)
    issues seqs base + 1, base + 2, ... with base = (epoch - 1) << 40, so
    the first keeps 1, 2, 3, ... and no incarnation reuses an id an earlier
    one sent in a PREPARE.  pending holds the seqs issued, or recovered
    committed but not acked, and not yet complete, ascending in insertion
    order.  The watermark lc sits just below the first of them, or at the
    last seq issued when none is pending: so at a restart it passes every id
    the old incarnation issued, except a commit not yet acked.
    """

    def __init__(self, epoch: int = 1) -> None:
        self.base = (epoch - 1) << EPOCH_SHIFT
        self.last_issued = self.base
        self._pending: dict[int, None] = {}

    def next(self) -> int:
        if self.last_issued - self.base >= (1 << EPOCH_SHIFT) - 1:
            raise OverflowError("TranxID sequence space of this epoch exhausted")
        self.last_issued += 1
        self._pending[self.last_issued] = None
        return self.last_issued

    def hold(self, seq: int) -> None:
        """Keep a recovered seq, below base, pending; call in ascending
        order before the first next()."""
        self._pending[seq] = None

    def mark(self, seq: int) -> None:
        """seq is complete; marking it again changes nothing."""
        assert seq <= self.last_issued, f"completion for unissued seq {seq}"
        self._pending.pop(seq, None)

    @property
    def lc(self) -> int:
        for seq in self._pending:
            return seq - 1
        return self.last_issued


@dataclass
class GcManager:
    """Glue between the tracker, GCLog and WAL reclamation.

    Single-threaded by contract: every call comes from the server's
    protocol thread, as every ServerNode step does.  The manager keeps no
    per-transaction state: the server's coordinator and participant
    records answer every question about a transaction and are pruned by
    the same watermark table.
    """

    server: ServerId
    gclog: GcLog
    tranxlog: object  # TranxLog
    store: object  # StorageEngine (synced before reclaiming)
    trace: object = None  # callable(event: str, **info), optional
    table: dict[ServerId, int] = field(default_factory=dict)
    # issues this server's seqs; ServerNode's recovery replaces it with its
    # restart epoch's
    tracker: CompletionTracker = field(default_factory=CompletionTracker)

    def __post_init__(self) -> None:
        self.table = self.gclog.read()

    def _emit(self, event: str, **info) -> None:
        if self.trace is not None:
            self.trace(event, **info)

    def mark_complete(self, tranx: TranxID) -> None:
        """Record a finally-agreed transaction this server coordinated."""
        assert tranx.coordinator == self.server
        self.tracker.mark(tranx.seq)
        if self.trace is not None:
            self.trace("gc.volatile", tranx=tranx, lc=self.tracker.lc)

    def tick(self) -> int:
        """Periodic coordinator-side pass, in the mandated order; returns the
        local watermark, which the server then broadcasts to its peers."""
        self.table[self.server] = self.tracker.lc  # snapshot volatile state
        self._persist_and_reclaim()
        return self.tracker.lc

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
