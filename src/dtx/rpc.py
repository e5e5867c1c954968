"""Framed message envelopes and exactly-once bookkeeping.

At-least-once delivery comes from sender retries (identical envelope,
identical ids); at-most-once processing comes from receiver-side dedup:

* READ requests are idempotent and never deduplicated.  A transaction
  that wrote nothing never sends COMMIT: its client validates its reads
  with one READ per owner, so no server keeps state for it and a resend
  simply reads again.  The owners of a group READ round keep it until
  they answer, and its id until the next GC tick, so a resent or
  duplicated group READ is answered at once, unvalidated (server.py).
* Commit requests dedup on (client id, message id); the client's message
  ids are contiguous, so a bounded sliding window per client suffices.
  The window holds a COMMIT's TranxID while the transaction is in flight,
  and its answer bytes once it is decided: a resend finds the TranxID and
  is dropped, as the decision answers it, or finds the answer and gets it
  again.  Either counts as a duplicate blocked.
* Transaction messages (prepare/votes/decisions/acks) keep no entry
  here: the receiving server's coordinator or participant record for the
  transaction answers a duplicate (server.py), and a message for a
  transaction the GC watermark has passed is answered as already final.

Wire format, bit exact: frame = total_len: u32 LE | version: u8 (=1) |
envelope.  envelope = msg_type: u8 | sender_kind: u8 (0 client, 1 server)
| sender_id: u64 LE | message_id: u64 LE | has_tranx: u8 | [tranx:
coordinator u32 LE + seq u64 LE] | payload bytes (rest of frame).

Payloads (blob = len: u32 LE | bytes):

* RESPONSE, every answer a server sends a client: updates block | body.
  The block is n: u8 | (key blob | value blob | version u64 LE)*, the
  entry codec of the STALE_READ piggyback below with a one-byte count: the
  current entry of each key the server applied since its last answer to
  that client (see server.py).  An empty block is the one byte 0.  The
  body is the answer to the request, one of those below.  A client drops
  an answer whose block does not decode, as malformed.
* READ request: key blob+, one or more keys of one owner.  Answer
  (RESPONSE): (found: u8 | [value blob | version u64 LE])+, one per key in
  request order, then locked: u8, which is 1 if any of the keys was
  exclusively locked, i.e. held by a writer between prepare and apply,
  when the owner read them.  The owner reads every key in one step, so
  the answer shows them at one instant.
* Group READ request, one READ of an owner-validated round (client.py):
  0xffffffff, where a READ has its first key's length (no key is 4 GiB) |
  group: u64 LE, the id of the round, unique per client | n: u8 >= 2 |
  owner: u32 LE * n, strictly ascending, the owners of the round | key
  blob+.  Its answer is a READ answer, or, when it vouches for the round:
  2 | n: u8 | token: u64 LE * n, one per owner in owner order | a READ
  answer whose locked byte is 0.  The token at the answering owner's
  place names the step in which it served the READ, and every other one
  the step named by the READ_NOTICE it heard from that owner.
* READ_NOTICE, owner to owner of one group round: client: u64 LE |
  group: u64 LE | token: u64 LE; the sender served its READ of that round
  in the step the token names.
* COMMIT request, client to coordinator, and PREPARE, coordinator to
  participant: a Transaction, the whole one or one owner's slice
  (n_reads: u32 LE | (key blob | version u64 LE)* | n_writes: u32 LE |
  (key blob | value blob)*).  The COMMIT answer: committed: u8 | reason:
  u8 | n: u32 LE | (key blob | value blob | version u64 LE)*, the reason
  and, for STALE_READ, the current entries of the stale keys.
* READY, participant to coordinator, is the participant's vote: an empty
  payload votes Ready, any other votes Abort and is the COMMIT answer with
  committed 0, its reason and the stale entries; one marked committed does
  not decode as a vote and is dropped.
* COMMIT_DECISION and ABORT_DECISION, only ever the coordinator's decision
  to a participant, and the participant's ACK of a commit: the TranxID in
  the envelope, an empty payload.  One message names one transaction.  An
  abort is sent once and never acked (presumed abort): a participant
  repeats READY for a slice in doubt, which settles from the coordinator's
  decision, or as aborted once the GC watermark passed it (see server.py).
  Type bytes 5 and 6 come only from the transaction's coordinator.
  The vote and the decision are the only messages that carry an outcome.

Every payload decoder takes exactly one encoding: a payload that is
truncated, garbled, or followed by trailing bytes raises
MalformedRecordError, as a log record does (a READ request and its answer
are self-delimiting lists, so trailing bytes there read as a torn element;
an updates block ends where its body starts, which the body's decoder then
takes whole).
A server drops a message whose type names a transaction (PREPARE, READY,
the decisions, ACK) but whose envelope carries none, any of those, GC_LC
or READ_NOTICE from a sender whose kind is not server, a decision from any
server but the transaction's coordinator, a group READ whose owners leave it
out or name a non-member, every RESPONSE, and a message whose payload does
not decode; a COMMIT whose payload does not decode is answered UNKNOWN.
Type bytes 9, 12 and 13 are unassigned and do not decode.
"""

from __future__ import annotations

import enum
import struct
from collections import OrderedDict
from typing import NamedTuple

from .model import (
    MalformedRecordError,
    Transaction,
    TranxID,
    _TRANX,
    _U8,
    _decode_whole,
    _pack_entries,
    _pack_txn,
    _unpack_entries,
    _unpack_txn,
)

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
# frame header (total_len, version) and envelope, without and with a tranx
_HEAD = struct.Struct("<IBBBQQB")
_HEAD_TRANX = struct.Struct("<IBBBQQBIQ")
_ENV = struct.Struct("<BBQQB")  # the envelope up to has_tranx
_ANSWER = struct.Struct("<BB")  # committed, reason code
_GROUP = struct.Struct("<4sQB")  # a group READ's mark, group id and owner count
_GROUP_MARK = b"\xff\xff\xff\xff"
_NOTICE = struct.Struct("<QQQ")  # client id, group id, token
_VOUCH = b"\x02"  # the first byte of a vouching answer; an entry starts with 0 or 1
_new_tuple = tuple.__new__

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
    RESPONSE = 10
    CLIENT_HELLO = 11  # connection handshake: server assigns a client id
    READ_NOTICE = 14  # an owner of a group READ round served its READ


_MSG_TYPE = {int(t): t for t in MsgType}


class AbortReason(enum.Enum):
    LOCK_DENIED_READ = "lock-denied-read"
    LOCK_DENIED_WRITE = "lock-denied-write"
    STALE_READ = "stale-read"
    TIMEOUT = "timeout"
    LOG_FAILURE = "log-failure"
    UNKNOWN = "unknown"


# the reasons' wire codes; code 6 is retired and does not decode
_REASON_CODE = {None: 0, **dict(zip(AbortReason, (1, 2, 3, 4, 5, 7)))}
_CODE_REASON = {i: r for r, i in _REASON_CODE.items()}


class Envelope(NamedTuple):
    msg_type: MsgType
    sender_kind: int
    sender_id: int
    message_id: int
    tranx: TranxID | None
    payload: bytes


def frame_encode(env: Envelope) -> bytes:
    msg_type, kind, sender, mid, tranx, payload = env
    head = _HEAD if tranx is None else _HEAD_TRANX
    n = head.size - 4 + len(payload)
    if n > MAX_FRAME:
        raise FrameError("frame too large")
    if tranx is None:
        return _HEAD.pack(n, FRAME_VERSION, msg_type, kind, sender, mid, 0) + payload
    return _HEAD_TRANX.pack(n, FRAME_VERSION, msg_type, kind, sender, mid, 1, *tranx) + payload


def frame_decode(data: bytes) -> Envelope:
    if len(data) < 5:
        raise FrameError(f"frame of {len(data)} bytes has no header")
    n = _U32.unpack_from(data)[0]
    if n > MAX_FRAME:
        raise FrameError("frame length overflow")
    if 4 + n != len(data):
        raise FrameError(f"frame length {n} does not match buffer {len(data) - 4}")
    if data[4] != FRAME_VERSION:
        raise FrameError(f"unsupported frame version {data[4]}")
    try:
        mt, kind, sender, mid, has_tranx = _ENV.unpack_from(data, 5)
        pos = 5 + _ENV.size
        tranx = None
        if has_tranx == 1:
            tranx = _new_tuple(TranxID, _TRANX.unpack_from(data, pos))
            pos += _TRANX.size
    except struct.error as e:
        raise FrameError(f"malformed envelope: {e}") from None
    if has_tranx > 1:
        raise FrameError(f"malformed envelope: has_tranx byte {has_tranx}")
    msg_type = _MSG_TYPE.get(mt)
    if msg_type is None:
        raise FrameError(f"malformed envelope: unknown message type {mt}")
    return _new_tuple(Envelope, (msg_type, kind, sender, mid, tranx, data[pos:]))


# --- payload codecs -----------------------------------------------------------
# Helpers are private (leading _): a tracer wraps each public enc_*/dec_*.


def enc_read_req(keys: list[bytes], owners=(), group: int = 0) -> bytes:
    """A READ of `keys`, or with `owners` a group READ of round `group`."""
    out = []
    if owners:
        out.append(_GROUP.pack(_GROUP_MARK, group, len(owners)))
        out += map(_U32.pack, owners)
    for k in keys:
        out += (_U32.pack(len(k)), k)
    return b"".join(out)


def dec_read_req(b: bytes) -> tuple[list[bytes], tuple[int, ...], int]:
    """(keys, owners, group) of a READ or a group READ; a READ has no owners
    and group 0.  Owners number two or more, strictly ascending."""
    if b[:4] != _GROUP_MARK:
        return _decode_whole(_unpack_keys, b, "READ request"), (), 0
    return _decode_whole(_unpack_group_read, b, "group READ")


def _unpack_group_read(b: bytes, pos: int):
    _, group, n = _GROUP.unpack_from(b, pos)
    pos += _GROUP.size
    owners = struct.unpack_from(f"<{n}I", b, pos)
    if n < 2 or any(lo >= hi for lo, hi in zip(owners, owners[1:])):
        raise MalformedRecordError(f"group READ owners {owners} are not two or more, ascending")
    keys, pos = _unpack_keys(b, pos + 4 * n)
    return (keys, owners, group), pos


def _unpack_keys(b: bytes, pos: int) -> tuple[list[bytes], int]:
    keys = []
    while True:  # one key at least
        start = pos + 4
        pos = start + _U32.unpack_from(b, pos)[0]
        keys.append(b[start:pos])
        if pos >= len(b):
            return keys, pos


def enc_read_resp(entries: list[tuple[bytes, int] | None], locked: bool, tokens=()) -> bytes:
    """A READ answer; with `tokens`, one per owner, one that vouches for its
    group round, and no key may be locked."""
    out = []
    if tokens:
        assert not locked
        out += (_VOUCH, _U8.pack(len(tokens)), struct.pack(f"<{len(tokens)}Q", *tokens))
    for entry in entries:
        if entry is None:
            out.append(b"\x00")
        else:
            out += (b"\x01", _U32.pack(len(entry[0])), entry[0], _U64.pack(entry[1]))
    out.append(b"\x01" if locked else b"\x00")
    return b"".join(out)


def dec_read_resp(b: bytes) -> tuple[list[tuple[bytes, int] | None], bool, tuple[int, ...]]:
    """(entry or None per key, in request order; locked; tokens) of a READ
    answer, or of one that vouches for its group round; tokens is empty
    unless it vouches.  Every entry is at least one byte and locked is the
    last one, so the answer needs no count."""
    entries: list[tuple[bytes, int] | None] = []
    pos, last, tokens = 0, len(b) - 1, ()
    try:
        if b[:1] == _VOUCH:
            n = b[1]
            if n < 2:
                raise MalformedRecordError(f"a vouching READ answer has {n} tokens, under two")
            tokens = struct.unpack_from(f"<{n}Q", b, 2)
            pos = 2 + 8 * n
        while pos < last:
            if b[pos] == 1:
                start = pos + 5
                end = start + _U32.unpack_from(b, pos + 1)[0]
                entries.append((b[start:end], _U64.unpack_from(b, end)[0]))
                pos = end + 8
            elif b[pos] == 0:
                entries.append(None)
                pos += 1
            else:
                raise MalformedRecordError(f"READ answer found byte {b[pos]}")
    except (IndexError, struct.error) as e:
        raise MalformedRecordError(f"truncated READ answer: {e}") from None
    if pos != last or b[last] > 1:
        raise MalformedRecordError(f"READ answer of {len(b)} bytes has no locked byte of 0 or 1")
    if tokens and b[last]:
        raise MalformedRecordError("a vouching READ answer is locked")
    return entries, b[last] == 1, tokens


def enc_txn(txn: Transaction) -> bytes:
    """COMMIT request payload (the whole transaction) and PREPARE payload
    (one participant's slice)."""
    out: list = []
    _pack_txn(out, txn)
    return b"".join(out)


def dec_txn(b: bytes) -> Transaction:
    return _decode_whole(_unpack_txn, b, "transaction")


def enc_commit_resp(committed: bool, reason: AbortReason | None, piggyback) -> bytes:
    """The COMMIT answer, and a participant's abort vote."""
    out = [_ANSWER.pack(committed, _REASON_CODE[reason])]
    _pack_entries(out, piggyback)
    return b"".join(out)


def _unpack_answer(b: bytes, pos: int):
    committed, code = _ANSWER.unpack_from(b, pos)
    if committed > 1 or code not in _CODE_REASON:
        raise MalformedRecordError(f"answer flag {committed} or reason code {code} out of range")
    piggyback, pos = _unpack_entries(b, pos + _ANSWER.size)
    return (committed == 1, _CODE_REASON[code], piggyback), pos


def dec_commit_resp(b: bytes):
    return _decode_whole(_unpack_answer, b, "commit answer")


def enc_response(updates, body: bytes) -> bytes:
    """A RESPONSE payload: the updates block, at most 255 entries, then the body."""
    if not updates:
        return b"\x00" + body
    out: list = []
    _pack_entries(out, updates, _U8)
    out.append(body)
    return b"".join(out)


def dec_response(b: bytes) -> tuple[list, bytes]:
    """(updates, body) of a RESPONSE payload; raises MalformedRecordError
    when the block is cut short."""
    if b[:1] == b"\x00":
        return [], b[1:]
    try:
        updates, pos = _unpack_entries(b, 0, _U8)
    except struct.error as e:
        raise MalformedRecordError(f"truncated updates block: {e}") from None
    return updates, b[pos:]


def enc_read_notice(client: int, group: int, token: int) -> bytes:
    return _NOTICE.pack(client, group, token)


def dec_read_notice(b: bytes) -> tuple[int, int, int]:
    """(client id, group id, token) of a READ_NOTICE."""
    if len(b) != _NOTICE.size:
        raise MalformedRecordError(f"READ_NOTICE of {len(b)} bytes, not {_NOTICE.size}")
    return _NOTICE.unpack(b)


def enc_u64(n: int) -> bytes:
    """A GC_LC watermark, or the client id a CLIENT_HELLO answer assigns."""
    return _U64.pack(n)


def dec_u64(b: bytes) -> int:
    if len(b) != _U64.size:
        raise MalformedRecordError(f"u64 payload of {len(b)} bytes, not {_U64.size}")
    return _U64.unpack(b)[0]


# --- dedup ---------------------------------------------------------------------


class ClientWindow:
    """Sliding window of one client's Commit requests: the TranxID of each
    one in flight, the answer bytes of each one decided."""

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self.responses: OrderedDict[int, bytes | TranxID] = OrderedDict()

    def check(self, message_id: int) -> bytes | TranxID | None:
        return self.responses.get(message_id)

    def record(self, message_id: int, entry: bytes | TranxID) -> None:
        self.responses[message_id] = entry
        while len(self.responses) > self.capacity:
            self.responses.popitem(last=False)


class DedupTable:
    """At-most-once processing state for one server's Commit requests."""

    def __init__(self) -> None:
        self._clients: dict[int, ClientWindow] = {}
        self.duplicates_blocked = 0

    def check_client(self, client_id: int, message_id: int) -> bytes | TranxID | None:
        win = self._clients.get(client_id)
        if win is None:
            return None
        hit = win.check(message_id)
        if hit is not None:
            self.duplicates_blocked += 1
        return hit

    def record_client(self, client_id: int, message_id: int, entry: bytes | TranxID) -> None:
        win = self._clients.setdefault(client_id, ClientWindow())
        win.record(message_id, entry)

    def size(self) -> int:
        return sum(len(w.responses) for w in self._clients.values())

    def clients(self) -> int:
        return len(self._clients)
