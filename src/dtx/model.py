"""Shared identifiers, transaction payloads, protocol states, and log records.

All wire/disk encodings in this package are built from the same three
primitives: fixed-width little-endian integers, a single kind/tag byte,
and 32-bit length-prefixed byte strings.  Text delimiters are never used
because keys and values are arbitrary binary.
"""

from __future__ import annotations

import enum
import struct
import threading
from dataclasses import dataclass, field

ServerId = int  # index into the static cluster membership

MAX_U64 = (1 << 64) - 1


class MalformedRecordError(Exception):
    """Decoding failed: truncated, garbled, or unknown tag."""


class ByteWriter:
    """Accumulates the little-endian primitive encodings."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, v: int) -> None:
        self._parts.append(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self._parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self._parts.append(struct.pack("<Q", v))

    def blob(self, b: bytes) -> None:
        self._parts.append(struct.pack("<I", len(b)))
        self._parts.append(b)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    """Cursor over an encoded buffer; raises MalformedRecordError on underrun."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise MalformedRecordError(
                f"need {n} bytes at offset {self._pos}, have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def blob(self) -> bytes:
        n = self.u32()
        return self._take(n)

    def done(self) -> bool:
        return self._pos == len(self._data)

    def expect_done(self) -> None:
        if not self.done():
            raise MalformedRecordError(
                f"{len(self._data) - self._pos} trailing bytes after record"
            )


@dataclass(frozen=True, order=True)
class TranxID:
    """Globally unique transaction id: (coordinator server, local sequence).

    Total order is lexicographic, which dataclass ordering gives us.
    """

    coordinator: ServerId
    seq: int

    def encode_into(self, w: ByteWriter) -> None:
        w.u32(self.coordinator)
        w.u64(self.seq)

    @staticmethod
    def decode_from(r: ByteReader) -> "TranxID":
        return TranxID(r.u32(), r.u64())

    def __str__(self) -> str:
        return f"({self.coordinator},{self.seq})"


class TranxIdIssuer:
    """Monotone per-server TranxID source, atomic under concurrent callers.

    last_persisted_seq must be the highest seq ever issued by this server
    (recovered from a WAL scan after a crash).
    """

    def __init__(self, server: ServerId, last_persisted_seq: int = 0) -> None:
        self.server = server
        self._last = last_persisted_seq
        self._lock = threading.Lock()

    def next(self) -> TranxID:
        with self._lock:
            if self._last >= MAX_U64:
                raise OverflowError("TranxID sequence space exhausted")
            self._last += 1
            return TranxID(self.server, self._last)

    @property
    def last_issued(self) -> int:
        return self._last


@dataclass(frozen=True)
class Transaction:
    """Read set (key, observed version) and write set.

    The client's whole transaction, and also one participant's slice of it.
    """

    reads: tuple[tuple[bytes, int], ...]
    writes: tuple[tuple[bytes, bytes], ...]

    def __post_init__(self) -> None:
        rk = [k for k, _ in self.reads]
        wk = [k for k, _ in self.writes]
        if len(set(rk)) != len(rk):
            raise ValueError("duplicate key in read set")
        if len(set(wk)) != len(wk):
            raise ValueError("duplicate key in write set")

    @property
    def keys(self) -> set[bytes]:
        return {k for k, _ in self.reads} | {k for k, _ in self.writes}

    def encode_into(self, w: ByteWriter) -> None:
        w.u32(len(self.reads))
        for k, v in self.reads:
            w.blob(k)
            w.u64(v)
        w.u32(len(self.writes))
        for k, val in self.writes:
            w.blob(k)
            w.blob(val)

    @staticmethod
    def decode_from(r: ByteReader) -> "Transaction":
        reads = tuple((r.blob(), r.u64()) for _ in range(r.u32()))
        writes = tuple((r.blob(), r.blob()) for _ in range(r.u32()))
        try:
            return Transaction(reads, writes)
        except ValueError as e:
            raise MalformedRecordError(str(e)) from e


class CoordState(enum.Enum):
    START = "Start"
    PREPARE = "Prepare"
    COMMIT = "Commit"
    ABORT = "Abort"


class PartState(enum.Enum):
    START = "Start"
    READY = "Ready"
    COMMIT = "Commit"
    ABORT = "Abort"


COORD_TRANSITIONS = {
    (CoordState.START, CoordState.PREPARE),
    (CoordState.PREPARE, CoordState.COMMIT),
    (CoordState.PREPARE, CoordState.ABORT),
}

PART_TRANSITIONS = {
    (PartState.START, PartState.READY),
    (PartState.START, PartState.ABORT),
    (PartState.READY, PartState.COMMIT),
    (PartState.READY, PartState.ABORT),
}


def coord_transition_legal(a: CoordState, b: CoordState) -> bool:
    return (a, b) in COORD_TRANSITIONS


def part_transition_legal(a: PartState, b: PartState) -> bool:
    return (a, b) in PART_TRANSITIONS


# --- WAL record kinds -------------------------------------------------------

_KIND_COORD_PREPARE = 1
_KIND_COORD_COMMIT = 2
_KIND_COORD_ABORT = 3
_KIND_PART_READY = 4
_KIND_PART_COMMIT = 5
_KIND_PART_ABORT = 6


@dataclass(frozen=True)
class CoordPrepare:
    tranx: TranxID
    participants: tuple[tuple[ServerId, Transaction], ...]  # sorted by server id

    kind = _KIND_COORD_PREPARE


@dataclass(frozen=True)
class CoordCommit:
    tranx: TranxID
    # (client_id, message_id) of the request being acked, so a restarted
    # coordinator can still deduplicate resent commit requests instead of
    # re-executing them as new transactions.  None for internal records.
    client: tuple[int, int] | None = None

    kind = _KIND_COORD_COMMIT


@dataclass(frozen=True)
class CoordAbort:
    tranx: TranxID
    client: tuple[int, int] | None = None

    kind = _KIND_COORD_ABORT


@dataclass(frozen=True)
class PartReady:
    tranx: TranxID
    reads: tuple[tuple[bytes, int], ...]
    # Post-versions are frozen at prepare time so commit replay is idempotent.
    writes: tuple[tuple[bytes, bytes, int], ...]

    kind = _KIND_PART_READY


@dataclass(frozen=True)
class PartCommit:
    tranx: TranxID

    kind = _KIND_PART_COMMIT


@dataclass(frozen=True)
class PartAbort:
    tranx: TranxID

    kind = _KIND_PART_ABORT


LogRecord = CoordPrepare | CoordCommit | CoordAbort | PartReady | PartCommit | PartAbort


def encode_record(rec: LogRecord) -> bytes:
    w = ByteWriter()
    w.u8(rec.kind)
    if isinstance(rec, CoordPrepare):
        rec.tranx.encode_into(w)
        w.u32(len(rec.participants))
        for sid, sub in rec.participants:
            w.u32(sid)
            sub.encode_into(w)
    elif isinstance(rec, (CoordCommit, CoordAbort)):
        rec.tranx.encode_into(w)
        if rec.client is None:
            w.u8(0)
        else:
            w.u8(1)
            w.u64(rec.client[0])
            w.u64(rec.client[1])
    elif isinstance(rec, (PartCommit, PartAbort)):
        rec.tranx.encode_into(w)
    elif isinstance(rec, PartReady):
        rec.tranx.encode_into(w)
        w.u32(len(rec.reads))
        for k, v in rec.reads:
            w.blob(k)
            w.u64(v)
        w.u32(len(rec.writes))
        for k, val, pv in rec.writes:
            w.blob(k)
            w.blob(val)
            w.u64(pv)
    else:  # pragma: no cover - exhaustive over LogRecord
        raise TypeError(f"unknown record type {type(rec)!r}")
    return w.getvalue()


def decode_record(data: bytes) -> LogRecord:
    r = ByteReader(data)
    kind = r.u8()
    rec: LogRecord
    if kind == _KIND_COORD_PREPARE:
        tranx = TranxID.decode_from(r)
        parts = tuple((r.u32(), Transaction.decode_from(r)) for _ in range(r.u32()))
        rec = CoordPrepare(tranx, parts)
    elif kind in (_KIND_COORD_COMMIT, _KIND_COORD_ABORT):
        tranx = TranxID.decode_from(r)
        client = (r.u64(), r.u64()) if r.u8() else None
        cls = CoordCommit if kind == _KIND_COORD_COMMIT else CoordAbort
        rec = cls(tranx, client)
    elif kind == _KIND_PART_READY:
        tranx = TranxID.decode_from(r)
        reads = tuple((r.blob(), r.u64()) for _ in range(r.u32()))
        writes = tuple((r.blob(), r.blob(), r.u64()) for _ in range(r.u32()))
        rec = PartReady(tranx, reads, writes)
    elif kind == _KIND_PART_COMMIT:
        rec = PartCommit(TranxID.decode_from(r))
    elif kind == _KIND_PART_ABORT:
        rec = PartAbort(TranxID.decode_from(r))
    else:
        raise MalformedRecordError(f"unknown record kind {kind}")
    r.expect_done()
    return rec
