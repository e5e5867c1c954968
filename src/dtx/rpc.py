"""Framed message envelopes and exactly-once bookkeeping.

At-least-once delivery comes from sender retries (identical envelope,
identical ids); at-most-once processing comes from receiver-side dedup:

* READ and VALIDATE requests are idempotent and never deduplicated.  A
  transaction that wrote nothing never sends COMMIT: its client sends each
  owner one VALIDATE, so no server keeps state for it and a resend simply
  checks again.
* Commit requests dedup on (client id, message id); the client's message
  ids are contiguous, so a bounded sliding window of cached responses
  suffices.
* Transaction messages (prepare/votes/decisions/acks) keep no entry
  here: the receiving server's coordinator or participant record for the
  transaction answers a duplicate (server.py), and a message for a
  transaction the GC watermark has passed is answered as already final.

Wire format, bit exact: frame = total_len: u32 LE | version: u8 (=1) |
envelope.  envelope = msg_type: u8 | sender_kind: u8 (0 client, 1 server)
| sender_id: u64 LE | message_id: u64 LE | has_tranx: u8 | [tranx:
coordinator u32 LE + seq u64 LE] | payload bytes (rest of frame).

Payloads (blob = len: u32 LE | bytes):

* READ request: key blob+, one or more keys of one owner.  Answer
  (RESPONSE): (found: u8 | [value blob | version u64 LE])+, one per key in
  request order, then locked: u8, which is 1 if any of the keys was
  exclusively locked, i.e. held by a writer between prepare and apply,
  when the owner read them.  The owner reads every key in one step, so
  the answer shows them at one instant.
* VALIDATE request, client to owner: a Transaction holding that owner's
  read keys and versions and no writes (n_reads: u32 LE | (key blob |
  version u64 LE)* | n_writes: u32 LE = 0).  Answer: the COMMIT answer,
  committed: u8 | reason: u8 | n: u32 LE | (key blob | value blob |
  version u64 LE)*, with committed 1 when no read key is exclusively locked
  and every read version is current, else the reason and the current
  entries of the stale keys.
* COMMIT_DECISION and ABORT_DECISION, coordinator to participant, and the
  participant's ACK of either: the TranxID in the envelope, an empty
  payload.  One message names one transaction.

A server drops a message whose type names a transaction (PREPARE, READY,
the decisions, ACK, TRANX_STATUS) but whose envelope carries none, and a
message whose payload does not decode; a COMMIT or VALIDATE whose payload
does not decode is answered UNKNOWN.
"""

from __future__ import annotations

import enum
import struct
from collections import OrderedDict
from dataclasses import dataclass

from .model import (
    ByteReader,
    ByteWriter,
    MalformedRecordError,
    Transaction,
    TranxID,
)

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

FRAME_VERSION = 1
MAX_FRAME = 16 * 1024 * 1024

CLIENT = 0
SERVER = 1


class FrameError(Exception):
    pass


class MsgType(enum.IntEnum):
    READ = 1
    COMMIT = 2
    PREPARE = 3
    READY = 4
    COMMIT_DECISION = 5
    ABORT_DECISION = 6
    ACK = 7
    GC_LC = 8
    TRANX_STATUS = 9
    RESPONSE = 10
    CLIENT_HELLO = 11  # connection handshake: server assigns a client id
    VALIDATE = 12  # read-only commit: a client asks one owner to check its reads


class AbortReason(enum.Enum):
    LOCK_DENIED_READ = "lock-denied-read"
    LOCK_DENIED_WRITE = "lock-denied-write"
    STALE_READ = "stale-read"
    TIMEOUT = "timeout"
    LOG_FAILURE = "log-failure"
    ALREADY_ABORTED = "already-aborted"
    UNKNOWN = "unknown"


_REASON_CODE = {r: i for i, r in enumerate(AbortReason, start=1)}
_CODE_REASON = {i: r for r, i in _REASON_CODE.items()}


@dataclass(frozen=True)
class Envelope:
    msg_type: MsgType
    sender_kind: int
    sender_id: int
    message_id: int
    tranx: TranxID | None
    payload: bytes

    def encode(self) -> bytes:
        w = ByteWriter()
        w.u8(int(self.msg_type))
        w.u8(self.sender_kind)
        w.u64(self.sender_id)
        w.u64(self.message_id)
        if self.tranx is not None:
            w.u8(1)
            self.tranx.encode_into(w)
        else:
            w.u8(0)
        body = w.getvalue() + self.payload
        return body

    @staticmethod
    def decode(data: bytes) -> "Envelope":
        r = ByteReader(data)
        try:
            msg_type = MsgType(r.u8())
            sender_kind = r.u8()
            sender_id = r.u64()
            message_id = r.u64()
            tranx = TranxID.decode_from(r) if r.u8() else None
        except (ValueError, MalformedRecordError) as e:
            raise FrameError(f"malformed envelope: {e}") from e
        payload = data[r._pos :]
        return Envelope(msg_type, sender_kind, sender_id, message_id, tranx, payload)


def frame_encode(env: Envelope) -> bytes:
    body = env.encode()
    if 1 + len(body) > MAX_FRAME:
        raise FrameError("frame too large")
    w = ByteWriter()
    w.u32(1 + len(body))
    w.u8(FRAME_VERSION)
    return w.getvalue() + body


def frame_decode(data: bytes) -> Envelope:
    r = ByteReader(data)
    try:
        n = r.u32()
    except MalformedRecordError as e:
        raise FrameError(str(e)) from e
    if n > MAX_FRAME:
        raise FrameError("frame length overflow")
    if 4 + n != len(data):
        raise FrameError(f"frame length {n} does not match buffer {len(data) - 4}")
    if data[4] != FRAME_VERSION:
        raise FrameError(f"unsupported frame version {data[4]}")
    return Envelope.decode(data[5:])


# --- payload codecs -----------------------------------------------------------


def enc_read_req(keys: list[bytes]) -> bytes:
    w = ByteWriter()
    for k in keys:
        w.blob(k)
    return w.getvalue()


def dec_read_req(b: bytes) -> list[bytes]:
    """The READ's keys; raises MalformedRecordError on no key or a torn blob."""
    r = ByteReader(b)
    keys = [r.blob()]
    while not r.done():
        keys.append(r.blob())
    return keys


def enc_read_resp(entries: list[tuple[bytes, int] | None], locked: bool) -> bytes:
    w = ByteWriter()
    for entry in entries:
        if entry is None:
            w.u8(0)
        else:
            w.u8(1)
            w.blob(entry[0])
            w.u64(entry[1])
    w.u8(1 if locked else 0)
    return w.getvalue()


def dec_read_resp(b: bytes) -> tuple[list[tuple[bytes, int] | None], bool]:
    """(entry or None per key, in request order; locked).  Every entry is at
    least one byte and locked is the last one, so the answer needs no count.

    Decoded with struct directly rather than ByteReader: a client decodes
    one answer per owner of every read round."""
    entries: list[tuple[bytes, int] | None] = []
    pos, last = 0, len(b) - 1
    try:
        while pos < last:
            if b[pos]:
                start = pos + 5
                end = start + _U32.unpack_from(b, pos + 1)[0]
                entries.append((b[start:end], _U64.unpack_from(b, end)[0]))
                pos = end + 8
            else:
                entries.append(None)
                pos += 1
    except struct.error as e:
        raise MalformedRecordError(f"truncated READ answer: {e}") from None
    if pos != last:
        raise MalformedRecordError(f"READ answer of {len(b)} bytes has no locked byte")
    return entries, b[last] != 0


def enc_txn(txn: Transaction) -> bytes:
    """COMMIT request payload (the whole transaction) and PREPARE payload
    (one participant's slice)."""
    w = ByteWriter()
    txn.encode_into(w)
    return w.getvalue()


def dec_txn(b: bytes) -> Transaction:
    return Transaction.decode_from(ByteReader(b))


def enc_commit_resp(
    committed: bool,
    reason: AbortReason | None,
    piggyback: list[tuple[bytes, bytes, int]],
) -> bytes:
    w = ByteWriter()
    w.u8(1 if committed else 0)
    w.u8(0 if reason is None else _REASON_CODE[reason])
    w.u32(len(piggyback))
    for k, v, ver in piggyback:
        w.blob(k)
        w.blob(v)
        w.u64(ver)
    return w.getvalue()


def dec_commit_resp(b: bytes):
    r = ByteReader(b)
    committed = bool(r.u8())
    code = r.u8()
    reason = _CODE_REASON.get(code)
    piggyback = [(r.blob(), r.blob(), r.u64()) for _ in range(r.u32())]
    return committed, reason, piggyback


def enc_vote_abort(reason: AbortReason, piggyback: list[tuple[bytes, bytes, int]]) -> bytes:
    return enc_commit_resp(False, reason, piggyback)


def dec_vote_abort(b: bytes):
    _, reason, piggyback = dec_commit_resp(b)
    return reason, piggyback


def enc_gc_lc(lc_seq: int) -> bytes:
    w = ByteWriter()
    w.u64(lc_seq)
    return w.getvalue()


def dec_gc_lc(b: bytes) -> int:
    return ByteReader(b).u64()


def enc_status_resp(status: str) -> bytes:
    w = ByteWriter()
    w.blob(status.encode())
    return w.getvalue()


def dec_status_resp(b: bytes) -> str:
    status = ByteReader(b).blob()
    if status not in (b"Commit", b"Abort", b"Pending"):
        raise MalformedRecordError(f"unknown transaction status {status!r}")
    return status.decode()


# --- dedup ---------------------------------------------------------------------


class ClientWindow:
    """Sliding window of cached Commit responses for one client."""

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self.responses: OrderedDict[int, bytes] = OrderedDict()

    def check(self, message_id: int) -> bytes | None:
        return self.responses.get(message_id)

    def record(self, message_id: int, response_payload: bytes) -> None:
        self.responses[message_id] = response_payload
        while len(self.responses) > self.capacity:
            self.responses.popitem(last=False)


class DedupTable:
    """At-most-once processing state for one server's Commit requests."""

    def __init__(self) -> None:
        self._clients: dict[int, ClientWindow] = {}
        self.duplicates_blocked = 0

    def check_client(self, client_id: int, message_id: int) -> bytes | None:
        win = self._clients.get(client_id)
        if win is None:
            return None
        hit = win.check(message_id)
        if hit is not None:
            self.duplicates_blocked += 1
        return hit

    def record_client(self, client_id: int, message_id: int, response_payload: bytes) -> None:
        win = self._clients.setdefault(client_id, ClientWindow())
        win.record(message_id, response_payload)

    def size(self) -> int:
        return sum(len(w.responses) for w in self._clients.values())
