"""Shared identifiers, transaction payloads, protocol states, and log records.

All wire/disk encodings in this package are built from the same three
primitives: fixed-width little-endian integers, a single kind/tag byte,
and 32-bit length-prefixed byte strings (blobs).  Text delimiters are never
used because keys and values are arbitrary binary.

Each codec is written out field by field, with no cursor object or call
per field; rpc.py builds the wire codecs from the same pieces.  Encoders
pack fixed-width runs with module-level struct.Struct objects, collect them
and the blobs in one list, and join it once.  Decoders unpack_from at a
running position: a read past the end raises struct.error, and the final
check that the position is the buffer's end catches a last blob cut short
and trailing bytes.  Either makes the input a MalformedRecordError.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import NamedTuple

ServerId = int  # index into the static cluster membership

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_TRANX = struct.Struct("<IQ")  # TranxID: coordinator, seq
_KIND_TRANX = struct.Struct("<BIQ")  # a log record's kind and TranxID
_CLIENT = struct.Struct("<QQ")  # (client id, message id)
_new_tuple = tuple.__new__


class MalformedRecordError(Exception):
    """Decoding failed: truncated, garbled, or unknown tag."""


class TranxID(NamedTuple):
    """Globally unique transaction id: (coordinator server, local sequence).

    Total order is lexicographic, which tuple ordering gives us; so is the
    hash, that of the field tuple.
    """

    coordinator: ServerId
    seq: int

    def __str__(self) -> str:
        return f"({self.coordinator},{self.seq})"


@dataclass(frozen=True)
class Transaction:
    """Read set (key, observed version) and write set.

    The client's whole transaction, and also one participant's slice of it.
    """

    reads: tuple[tuple[bytes, int], ...]
    writes: tuple[tuple[bytes, bytes], ...]

    def __post_init__(self) -> None:
        if len({k for k, _ in self.reads}) != len(self.reads):
            raise ValueError("duplicate key in read set")
        if len({k for k, _ in self.writes}) != len(self.writes):
            raise ValueError("duplicate key in write set")

    @property
    def keys(self) -> set[bytes]:
        return {k for k, _ in self.reads} | {k for k, _ in self.writes}


def _pack_reads(out: list, reads) -> None:
    """n: u32 | (key blob | version u64)*, appended to out."""
    out.append(_U32.pack(len(reads)))
    for k, v in reads:
        out += (_U32.pack(len(k)), k, _U64.pack(v))


def _pack_entries(out: list, entries) -> None:
    """n: u32 | (key blob | value blob | version u64)*, appended to out."""
    out.append(_U32.pack(len(entries)))
    for k, v, ver in entries:
        out += (_U32.pack(len(k)), k, _U32.pack(len(v)), v, _U64.pack(ver))


def _pack_txn(out: list, txn: Transaction) -> None:
    """A Transaction, appended to out: its reads, then n: u32 | (key blob | value blob)*."""
    _pack_reads(out, txn.reads)
    out.append(_U32.pack(len(txn.writes)))
    for k, v in txn.writes:
        out += (_U32.pack(len(k)), k, _U32.pack(len(v)), v)


def _decode_whole(unpack, b: bytes, what: str):
    """The value of unpack(b, 0) -> (value, end) if it spans all of b.  Every
    _unpack_* helper returns (value, position after it) for the bytes at pos."""
    try:
        value, pos = unpack(b, 0)
    except struct.error as e:
        raise MalformedRecordError(f"truncated {what}: {e}") from None
    if pos != len(b):
        raise MalformedRecordError(f"{what} ends at byte {pos} of {len(b)}")
    return value


def _unpack_reads(b: bytes, pos: int) -> tuple[tuple, int]:
    count = _U32.unpack_from(b, pos)[0]
    pos += 4
    reads = []
    for _ in range(count):
        start = pos + 4
        end = start + _U32.unpack_from(b, pos)[0]
        reads.append((b[start:end], _U64.unpack_from(b, end)[0]))
        pos = end + 8
    return tuple(reads), pos


def _unpack_entries(b: bytes, pos: int) -> tuple[list, int]:
    count = _U32.unpack_from(b, pos)[0]
    pos += 4
    entries = []
    for _ in range(count):
        start = pos + 4
        end = start + _U32.unpack_from(b, pos)[0]
        vstart = end + 4
        pos = vstart + _U32.unpack_from(b, end)[0]
        entries.append((b[start:end], b[vstart:pos], _U64.unpack_from(b, pos)[0]))
        pos += 8
    return entries, pos


def _unpack_txn(b: bytes, pos: int) -> tuple[Transaction, int]:
    reads, pos = _unpack_reads(b, pos)
    count = _U32.unpack_from(b, pos)[0]
    pos += 4
    writes = []
    for _ in range(count):
        start = pos + 4
        end = start + _U32.unpack_from(b, pos)[0]
        vstart = end + 4
        pos = vstart + _U32.unpack_from(b, end)[0]
        writes.append((b[start:end], b[vstart:pos]))
    try:
        return Transaction(reads, tuple(writes)), pos
    except ValueError as e:
        raise MalformedRecordError(str(e)) from None


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

_KIND_COORD_COMMIT = 2  # kind 1, the retired prepare record, is not read
_KIND_COORD_ABORT = 3
_KIND_PART_READY = 4
_KIND_PART_COMMIT = 5
_KIND_PART_ABORT = 6


@dataclass(frozen=True)
class CoordCommit:
    """The coordinator's decision to commit, its only forced record before
    the decision goes out.  It names the owners, as the commit record does
    in R*: each slice lives in its owner's PartReady, and a restarted
    coordinator needs only the ids, to resend the decision to the owners
    that have not acked."""

    tranx: TranxID
    # (client_id, message_id) of the request being acked, so a restarted
    # coordinator can still deduplicate resent commit requests instead of
    # re-executing them as new transactions.  None for internal records.
    client: tuple[int, int] | None = None
    participants: tuple[ServerId, ...] = ()  # ascending

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


LogRecord = CoordCommit | CoordAbort | PartReady | PartCommit | PartAbort


def encode_record(rec: LogRecord) -> bytes:
    """kind: u8 | tranx (coordinator u32 | seq u64) | the kind's fields."""
    kind = rec.kind
    head = _KIND_TRANX.pack(kind, *rec.tranx)
    if kind == _KIND_COORD_COMMIT or kind == _KIND_COORD_ABORT:
        # has_client: u8 | [client id u64 | message id u64]
        head += b"\x00" if rec.client is None else b"\x01" + _CLIENT.pack(*rec.client)
        if kind == _KIND_COORD_ABORT:
            return head
        # a commit then names its owners: n: u32 | server u32 * n
        n = len(rec.participants)
        return head + struct.pack(f"<I{n}I", n, *rec.participants)
    if kind == _KIND_PART_COMMIT or kind == _KIND_PART_ABORT:
        return head
    if kind != _KIND_PART_READY:  # pragma: no cover - exhaustive over LogRecord
        raise TypeError(f"unknown record type {type(rec)!r}")
    out = [head]  # reads, then writes with post-versions
    _pack_reads(out, rec.reads)
    _pack_entries(out, rec.writes)
    return b"".join(out)


def decode_record(data: bytes) -> LogRecord:
    return _decode_whole(_unpack_record, data, "record")


def _unpack_record(b: bytes, pos: int) -> tuple[LogRecord, int]:
    kind, coordinator, seq = _KIND_TRANX.unpack_from(b, pos)
    tranx = _new_tuple(TranxID, (coordinator, seq))
    pos += _KIND_TRANX.size
    if kind == _KIND_COORD_COMMIT or kind == _KIND_COORD_ABORT:
        has_client = _U8.unpack_from(b, pos)[0]
        if has_client == 1:
            client, pos = _CLIENT.unpack_from(b, pos + 1), pos + 1 + _CLIENT.size
        elif has_client:
            raise MalformedRecordError(f"has_client byte {has_client}")
        else:
            client, pos = None, pos + 1
        if kind == _KIND_COORD_ABORT:
            return CoordAbort(tranx, client), pos
        count = _U32.unpack_from(b, pos)[0]
        pos += 4
        return CoordCommit(tranx, client, struct.unpack_from(f"<{count}I", b, pos)), pos + 4 * count
    if kind == _KIND_PART_COMMIT:
        return PartCommit(tranx), pos
    if kind == _KIND_PART_ABORT:
        return PartAbort(tranx), pos
    if kind != _KIND_PART_READY:
        raise MalformedRecordError(f"unknown record kind {kind}")
    reads, pos = _unpack_reads(b, pos)
    writes, pos = _unpack_entries(b, pos)
    return PartReady(tranx, reads, tuple(writes)), pos
