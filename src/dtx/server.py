"""Coordinator and participant state machines for the hybrid OCC+2PC commit.

A ServerNode is purely reactive: it consumes envelopes and timer callbacks
and produces sends, replies, log appends, and state changes.  It never
blocks, so the same object runs unchanged on the deterministic simulator
(virtual clock, in-process transport) and on the socket runtime's event
loop.

Commit flow, one path for every write transaction:
  1. take a TranxID and send Prepare to every remote owner, logging nothing
     (presumed abort, as in R*); run the coordinator's own slice in-process;
  2. each participant locks (shared for read-only keys, exclusive for
     written keys), validates read versions, freezes post-versions,
     appends PartReady and votes Ready -- or votes Abort.  A remote
     participant forces its PartReady; the own slice does not, as the
     coordinator's decision flush persists it;
  3. all Ready -> persist CoordCommit (durable), which names the owners;
     any Abort vote -> persist CoordAbort without waiting for the other
     votes.  Either way, in that
     same step, answer the client and send the decision to every remote
     participant, so their locks go one hop after the decision;
  4. participants persist the decision, apply frozen post-versions,
     release locks, and acknowledge; once every participant acked, the
     transaction is reported complete to the garbage collector.  The own
     slice logs no decision: CoordCommit or CoordAbort is its decision
     record, as for the coordinator's own site in R*.

A transaction owned only by its coordinator sends no message and makes one
durable flush, CoordCommit, which carries the unforced PartReady with it.

Recovery takes a new restart epoch before anything else, and the TranxIDs
it issues carry it (gc.CompletionTracker), so no id a crashed incarnation
sent in a PREPARE is issued again.  A coordinator record is rebuilt only
for a logged CoordCommit some remote owner may not have acked: it resends
the decision to the owners CoordCommit names.  An own slice is Commit if
its CoordCommit was logged, else Abort; so is every transaction the log
holds no CoordCommit of, whose undecided remote slices learn it from the
coordinator's answer to their READY repeat.

Until it is complete the coordinator repeats, every RESEND, PREPARE to the
owners that have not voted (aborting with TIMEOUT after PREPARE_BUDGET
rounds) and the decision to those that have not acked.  A remote
participant repeats its READY vote on the same schedule for each slice it
holds Ready, from the vote, or the restart that found it Ready, until the
decision lands.  Every repeat waits the same RESEND, so one map ordered by
insertion is also ordered by due time, and one timer armed for its head
serves every pending resend.

A transaction that wrote nothing never reaches a coordinator: its client
sends each owner a VALIDATE with that owner's reads (see client.py), and a
COMMIT with no writes is answered UNKNOWN.  A VALIDATE takes no TranxID,
lock, log record, dedup entry or watermark, and leaves no state behind.
Within one step of the protocol loop the owner checks that no read key is
exclusively locked (else LOCK_DENIED_READ) and that every read key still
has the version the client observed (else STALE_READ with the current
entries piggybacked).  The lock check is what stops a fractured read: a 2PC
participant holds its exclusive locks from prepare until it applies the
decision, so a reader that saw one owner's post-commit value and another
owner's pre-commit value finds the second key locked or its version moved.
For the same reason a READ answer says whether any of its keys was
exclusively locked when they were read, all in one step.

A node keeps one record per transaction it takes part in: a CoordRec for
each transaction it coordinates and a PartRec for each slice it prepares,
and these records answer every repeated message.  A PartRec keeps its
vote, so a duplicate PREPARE gets the same vote back; a decision the
record already shows is acked again with no effect; an abort decision that
overtakes its PREPARE leaves a record in Abort, which drops the late
PREPARE.  A CoordRec answers a READY it already counted with the decision,
once there is one, and the coordinator answers Abort to a READY naming an
id of its own it holds no record of (presumed abort, as in R*): the id was
never decided, or its record went once the watermark passed it, and a
participant acks a commit only once it is durable, so only an abort can be
lost after the record went.  A decision never changes, so a participant
settles a slice still Ready from the coordinator's decision, however late,
and from no other sender.  Records of decided transactions are dropped once the GC
watermark passes them, and a message naming one the node no longer holds
is answered as already final.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar

from . import rpc
from .env import NodeEnv
from .gc import CompletionTracker, GcLog, GcManager
from .locks import LOCK_WAIT, LockTable, RejectReason
from .model import (
    CoordAbort,
    CoordCommit,
    CoordState,
    LogRecord,
    MalformedRecordError,
    PartAbort,
    PartCommit,
    PartReady,
    PartState,
    ServerId,
    Transaction,
    TranxID,
    coord_transition_legal,
    part_transition_legal,
)
from .rpc import AbortReason, DedupTable, Envelope, MsgType
from .storage import KvStore, StorageEngine
from .wal import FILE_CAPACITY, MAX_ENTRY, TranxLog


def owner_of(key: bytes, members: list[ServerId]) -> ServerId:
    """Static key partitioning: crc32 hash modulo cluster size."""
    return members[zlib.crc32(key) % len(members)]


RESEND = 0.200  # repeat PREPARE or a decision an owner has not answered
PREPARE_BUDGET = 8  # PREPARE rounds before the coordinator aborts
# the vote a restarted participant resends for a slice it logged only as
# aborted: the first vote's reason and piggyback were never logged
_ABORTED_VOTE = rpc.enc_vote_abort(AbortReason.ALREADY_ABORTED, [])

# message types that name their transaction in the envelope; with GC_LC
# these are the types only a server sends, and a client sends the others
_TRANX_TYPES = frozenset({
    MsgType.PREPARE, MsgType.READY, MsgType.COMMIT_DECISION, MsgType.ABORT_DECISION, MsgType.ACK,
})
_SENDER_KIND = {t: rpc.SERVER if t in _TRANX_TYPES | {MsgType.GC_LC} else rpc.CLIENT for t in MsgType}
_DECISION = {CoordState.COMMIT: MsgType.COMMIT_DECISION, CoordState.ABORT: MsgType.ABORT_DECISION}
# the handler of each message type a server takes (ServerNode._on_read for
# READ, ...; a server receives no RESPONSE) and the crash-point labels,
# computed once
_HANDLER = {t: f"_on_{t.name.lower()}" for t in MsgType if t is not MsgType.RESPONSE}
_RECV_POINT = {t: f"recv.{t.name}" for t in MsgType}
_SEND_POINT = {t: f"send.{t.name}" for t in MsgType}
_WAL_POINT = {cls: f"wal.{cls.__name__}" for cls in LogRecord.__args__}
_LOCK_REASON = {
    RejectReason.SHARED_DENIED: AbortReason.LOCK_DENIED_READ,
    RejectReason.EXCLUSIVE_DENIED: AbortReason.LOCK_DENIED_WRITE,
    RejectReason.WAIT_TIMEOUT: AbortReason.LOCK_DENIED_WRITE,
    RejectReason.ALREADY_ABORTED: AbortReason.ALREADY_ABORTED,
}


@dataclass
class ServerConfig:
    members: list[ServerId]
    gc_period: float = 0.100
    lock_wait: ClassVar[float] = LOCK_WAIT


@dataclass
class CoordRec:
    tranx: TranxID
    # each owner's slice; a record rebuilt by recovery, always decided,
    # holds only the owners CoordCommit names (slices None)
    subs: dict[ServerId, Transaction | None]
    state: CoordState = CoordState.START
    pending_ready: set[ServerId] = field(default_factory=set)
    pending_ack: set[ServerId] = field(default_factory=set)
    abort_reason: AbortReason | None = None
    piggyback: list = field(default_factory=list)
    client_key: tuple[int, int] | None = None  # (client id, message id)
    reply_to: Envelope | None = None
    retries: int = 0
    complete: bool = False


@dataclass
class PartRec:
    tranx: TranxID
    writes: tuple = ()  # (key, value, post_version) frozen at prepare
    state: PartState = PartState.START
    # the vote sent to a remote coordinator: b"" Ready, else the abort vote;
    # None until voted, and for an own slice, which votes in-process
    vote: bytes | None = None


def _on_slice_locked(node_ref, tranx: TranxID, sub: Transaction, granted: bool, why) -> None:
    """A slice's lock result; a waiting acquire does not keep its node alive."""
    node = node_ref()
    if node is not None:
        node._prepare_locked(tranx, sub, granted, why)


class ServerNode:
    def __init__(self, sid: ServerId, config: ServerConfig, env: NodeEnv, store: KvStore, ctx) -> None:
        assert sid in config.members
        self.sid = sid
        self.config = config
        self.env = env
        self.ctx = ctx
        self.members = sorted(config.members)
        self.peers = [m for m in self.members if m != sid]

        # read once: with tracing off, no step formats or passes trace info
        self._tracer = getattr(ctx, "trace", None)
        self._crash_hook = getattr(ctx, "crash_point", None)
        # what the node's parts hold must not hold the node: no bound method
        # of it, and the lock callbacks reach it through a weak reference
        trace = partial(self._tracer, sid) if self._tracer is not None else None
        self._ref = weakref.ref(self)

        self.tranxlog = TranxLog(env, FILE_CAPACITY)
        self.storage = StorageEngine(store)
        self.locks = LockTable(ctx.set_timer, ctx.cancel_timer)
        self.locks.trace = trace
        self.dedup = DedupTable()
        self.gclog = GcLog(env, self.members)
        self.gc = GcManager(
            server=sid,
            gclog=self.gclog,
            tranxlog=self.tranxlog,
            store=self.storage,
            trace=trace,
        )
        # issues this incarnation's seqs; recover_local replaces it with one
        # at its restart epoch's base
        self.issuer = self.gc.tracker

        self.coord: dict[TranxID, CoordRec] = {}
        self.part: dict[TranxID, PartRec] = {}
        self.pending_client: dict[tuple[int, int], TranxID] = {}
        # 2PC coordinator records still waiting for a vote or an ack, and
        # Ready slices of other coordinators' transactions -> when to
        # resend; each entry is due RESEND after it was (re)inserted, so
        # insertion order is due order
        self._resend: dict[TranxID, float] = {}
        self._resend_timer = None  # armed for the head of _resend, if any
        self._epoch = 0  # restart count: client ids and TranxIDs carry it
        self._next_client = 0
        self.stats = dict.fromkeys(("commits", "aborts", "msgs_sent", "reads", "one_phase"), 0)

    # -- plumbing --------------------------------------------------------------

    def _trace(self, event: str, **info) -> None:
        if self._tracer is not None:
            self._tracer(self.sid, event, **info)

    def _send(self, dest: ServerId, env: Envelope) -> None:
        self.stats["msgs_sent"] += 1
        if self._tracer is not None:
            self._tracer(self.sid, "msg.send", dest=dest, type=env.msg_type.name, tranx=env.tranx)
        self.ctx.send(dest, env)
        if self._crash_hook is not None:
            self._crash_hook(self.sid, _SEND_POINT[env.msg_type])

    def _reply(self, request: Envelope, payload: bytes) -> None:
        resp = Envelope(MsgType.RESPONSE, rpc.SERVER, self.sid, request.message_id, request.tranx, payload)
        self.ctx.reply(request, resp)

    def _server_env(self, msg_type: MsgType, tranx: TranxID | None, payload: bytes) -> Envelope:
        # message id 0: no server answers a server, so nothing matches on it
        return Envelope(msg_type, rpc.SERVER, self.sid, 0, tranx, payload)

    def _append(self, record, durable: bool) -> None:
        self.tranxlog.append(record, durable)
        if durable and self._crash_hook is not None:
            self._crash_hook(self.sid, _WAL_POINT[type(record)])

    def _set_coord_state(self, rec: CoordRec, state: CoordState) -> None:
        assert coord_transition_legal(rec.state, state), (rec.state, state)
        if self._tracer is not None:
            self._trace("coord.state", tranx=rec.tranx, frm=rec.state.value, to=state.value)
        rec.state = state

    def _set_part_state(self, rec: PartRec, state: PartState) -> None:
        assert part_transition_legal(rec.state, state), (rec.state, state)
        if self._tracer is not None:
            self._trace("part.state", tranx=rec.tranx, frm=rec.state.value, to=state.value)
        rec.state = state

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Local recovery, then the GC timer and global recovery; call
        before serving traffic."""
        self.recover_local()
        self.ctx.set_timer(self.config.gc_period, self._gc_tick)
        self.recover_global()

    def assign_client_id(self) -> int:
        """Unique cluster-wide: assigning server + restart epoch + counter."""
        self._next_client += 1
        return (self.sid << 48) | (self._epoch << 32) | self._next_client

    # -- dispatch ---------------------------------------------------------------

    def on_message(self, env: Envelope) -> None:
        mt = env.msg_type
        if self._tracer is not None:
            self._tracer(self.sid, "msg.recv", type=mt.name, tranx=env.tranx, frm=env.sender_id)
        if self._crash_hook is not None:
            self._crash_hook(self.sid, _RECV_POINT[mt])
        if (
            mt is MsgType.RESPONSE
            or env.sender_kind != _SENDER_KIND[mt]
            or env.tranx is None and mt in _TRANX_TYPES
        ):
            self._trace("msg.malformed", type=mt.name, frm=env.sender_id)
            return
        getattr(self, _HANDLER[mt])(env)

    def _decode(self, env: Envelope, decoder):
        """The decoded payload, or None, traced, when it does not decode."""
        try:
            return decoder(env.payload)
        except MalformedRecordError:
            self._trace("msg.malformed", type=env.msg_type.name, frm=env.sender_id)
            return None

    def _on_client_hello(self, env: Envelope) -> None:
        self._reply(env, self.assign_client_id().to_bytes(8, "little"))

    def _on_validate(self, env: Envelope) -> None:
        sub = self._decode(env, rpc.dec_txn)
        reason, piggyback = (AbortReason.UNKNOWN, []) if sub is None else self._validate_slice(sub)
        self._reply(env, rpc.enc_commit_resp(reason is None, reason, piggyback))

    def _on_ready(self, env: Envelope) -> None:
        self._vote(env.tranx, env.sender_id, None, [])

    def _on_abort_decision(self, env: Envelope) -> None:
        """An abort vote when this node coordinates the transaction."""
        if env.tranx.coordinator != self.sid:  # else the coordinator's decision
            return self._on_commit_decision(env)
        vote = self._decode(env, rpc.dec_vote_abort)
        if vote is not None:
            self._vote(env.tranx, env.sender_id, vote[0] or AbortReason.UNKNOWN, vote[1])

    def _on_commit_decision(self, env: Envelope) -> None:
        """Either decision; only the transaction's coordinator settles a
        slice, and it is acked unless the decision changes nothing."""
        tranx = env.tranx
        if env.sender_id != tranx.coordinator:
            return
        if self._handle_decision(tranx, env.msg_type is MsgType.COMMIT_DECISION):
            self._send(tranx.coordinator, self._server_env(MsgType.ACK, tranx, b""))

    def _on_ack(self, env: Envelope) -> None:
        self._handle_ack(env.tranx, env.sender_id)

    def _on_gc_lc(self, env: Envelope) -> None:
        lc_seq = self._decode(env, rpc.dec_gc_lc)
        if lc_seq is not None:
            self.gc.on_lc_broadcast(env.sender_id, lc_seq)

    # -- reads -----------------------------------------------------------------

    def _on_read(self, env: Envelope) -> None:
        # Idempotent, lock-free, never deduplicated.  Every key is read in
        # this one step, so the answer shows them all at one instant.
        keys = self._decode(env, rpc.dec_read_req)
        if keys is None:
            return
        self.stats["reads"] += len(keys)
        locked = any(map(self.locks.exclusively_held, keys))
        self._reply(env, rpc.enc_read_resp(list(map(self.storage.get, keys)), locked))

    # -- coordinator -------------------------------------------------------------

    def _on_commit(self, env: Envelope) -> None:
        cached = self.dedup.check_client(env.sender_id, env.message_id)
        if cached is not None:
            self._reply(env, cached)
            return
        key = (env.sender_id, env.message_id)
        if key in self.pending_client:
            # duplicate while in flight: refresh the reply target, answer later
            rec = self.coord.get(self.pending_client[key])
            if rec is not None:
                rec.reply_to = env
            return
        txn = self._decode(env, rpc.dec_txn)
        if txn is None or not txn.writes:  # a read-only transaction validates from its client
            self._reply(env, rpc.enc_commit_resp(False, AbortReason.UNKNOWN, []))
            return
        # admission bound: every log record derived from this transaction
        # must fit one WAL block, or commit would die midway.  The largest is
        # a participant's PartReady: kind and TranxID (13 bytes), its slice's
        # encoding, and a post-version (8 bytes) per write; no slice encodes
        # longer than the whole, which it equals for a single owner
        if len(env.payload) + 8 * len(txn.writes) + 13 > MAX_ENTRY:
            payload = rpc.enc_commit_resp(False, AbortReason.LOG_FAILURE, [])
            self.dedup.record_client(env.sender_id, env.message_id, payload)
            self._reply(env, payload)
            return
        self.coordinate(txn, env)

    def _split(self, txn: Transaction) -> dict[ServerId, Transaction]:
        per: dict[ServerId, tuple[list, list]] = {}
        for k, ver in txn.reads:
            per.setdefault(owner_of(k, self.members), ([], []))[0].append((k, ver))
        for k, v in txn.writes:
            per.setdefault(owner_of(k, self.members), ([], []))[1].append((k, v))
        if len(per) == 1:  # one owner's slice is the whole transaction
            return dict.fromkeys(per, txn)
        return {
            sid: Transaction(tuple(reads), tuple(writes))
            for sid, (reads, writes) in sorted(per.items())
        }

    def coordinate(self, txn: Transaction, reply_to: Envelope | None) -> TranxID:
        subs = self._split(txn)
        tranx = TranxID(self.sid, self.issuer.next())
        rec = CoordRec(tranx, subs, pending_ready=set(subs), pending_ack=set(subs))
        rec.reply_to = reply_to
        if reply_to is not None:
            rec.client_key = (reply_to.sender_id, reply_to.message_id)
            self.pending_client[rec.client_key] = tranx
        self.coord[tranx] = rec
        if self._tracer is not None:
            self._trace("coord.state", tranx=tranx, frm=None, to=CoordState.START.value)
        self._set_coord_state(rec, CoordState.PREPARE)
        if set(subs) == {self.sid}:
            # nothing to prepare remotely: CoordCommit alone makes it durable
            self.stats["one_phase"] += 1
        else:
            self._send_prepare(rec)
            self._queue_resend(rec)
        if self.sid in subs:
            self._local_prepare(tranx, subs[self.sid])
        return tranx

    def _send_prepare(self, rec: CoordRec) -> None:
        """PREPARE to every remote owner that has not voted."""
        for sid, sub in rec.subs.items():
            if sid != self.sid and sid in rec.pending_ready:
                self._send(sid, self._server_env(MsgType.PREPARE, rec.tranx, rpc.enc_txn(sub)))

    def _vote(self, tranx: TranxID, voter: ServerId, reason, piggyback) -> None:
        """Count a first vote while undecided.  A repeated READY gets the
        decision once there is one, or Abort, traced as a decision, for an
        id of this node's it holds no record of (presumed abort); nothing
        else is answered."""
        rec = self.coord.get(tranx)
        if rec is None:
            if reason is None and tranx.coordinator == self.sid:
                if self._tracer is not None:
                    self._trace("coord.state", tranx=tranx, frm=None, to=CoordState.ABORT.value)
                self._send(voter, self._server_env(MsgType.ABORT_DECISION, tranx, b""))
            return
        if voter not in rec.pending_ready:
            if reason is None and voter in rec.subs and rec.state in _DECISION:
                self._send(voter, self._server_env(_DECISION[rec.state], tranx, b""))
            return
        if rec.state is not CoordState.PREPARE:
            return
        rec.pending_ready.discard(voter)
        if reason is None:
            if not rec.pending_ready:
                self._decide(rec, CoordState.COMMIT, None, [])
        else:
            # abort fan-out goes out immediately, without waiting for the
            # remaining votes
            self._decide(rec, CoordState.ABORT, reason, piggyback)

    def _decide(self, rec: CoordRec, decision: CoordState, reason, piggyback) -> None:
        rec.abort_reason = reason
        rec.piggyback = list(piggyback)
        if decision is CoordState.COMMIT:
            self._append(CoordCommit(rec.tranx, rec.client_key, tuple(rec.subs)), durable=True)
        else:
            self._append(CoordAbort(rec.tranx, rec.client_key), durable=True)
        self._set_coord_state(rec, decision)
        # the client and the participants hear the decision once it is
        # persisted; the resend timer repeats it to owners that do not ack
        self._answer_client(rec)
        self._send_decision(rec)
        if self.sid in rec.pending_ack:
            self._handle_decision(rec.tranx, decision is CoordState.COMMIT)
            self._handle_ack(rec.tranx, self.sid)
        if not rec.complete:
            self._queue_resend(rec)

    def _send_decision(self, rec: CoordRec) -> None:
        """The decision to every remote owner that has not acked."""
        mt = _DECISION[rec.state]
        for sid in rec.pending_ack:
            if sid != self.sid:
                self._send(sid, self._server_env(mt, rec.tranx, b""))

    def _answer_client(self, rec: CoordRec) -> None:
        if rec.reply_to is None:
            return
        committed = rec.state is CoordState.COMMIT
        payload = rpc.enc_commit_resp(committed, rec.abort_reason, rec.piggyback)
        self.stats["commits" if committed else "aborts"] += 1
        if rec.client_key is not None:
            self.dedup.record_client(rec.client_key[0], rec.client_key[1], payload)
            self.pending_client.pop(rec.client_key, None)
        self._reply(rec.reply_to, payload)
        rec.reply_to = None

    def _handle_ack(self, tranx: TranxID, sender: ServerId) -> None:
        rec = self.coord.get(tranx)
        if rec is None or rec.state is CoordState.PREPARE:
            return
        rec.pending_ack.discard(sender)
        if not rec.pending_ack and not rec.complete:
            rec.complete = True
            self._resend.pop(tranx, None)
            self.gc.mark_complete(tranx)

    # -- read-only validation ------------------------------------------------------

    def _validate_slice(self, sub: Transaction):
        """(reason, piggyback) if a read key is exclusively locked or its
        version moved, else (None, []).  Reads only, so it is idempotent."""
        if any(self.locks.exclusively_held(k) for k, _ in sub.reads):
            return AbortReason.LOCK_DENIED_READ, []
        piggyback = self._stale_reads(sub.reads)
        if piggyback is not None:
            return AbortReason.STALE_READ, piggyback
        return None, []

    # -- participant ----------------------------------------------------------------

    def _lock_slice(self, tranx: TranxID, reads, writes, on_result) -> None:
        """Shared locks on the keys a slice only reads, exclusive on those it writes."""
        written = {w[0] for w in writes}
        self.locks.acquire_for_prepare(
            tranx, [k for k, _ in reads if k not in written], sorted(written), on_result
        )

    def _check_locked(self, tranx: TranxID, sub: Transaction, granted: bool, why):
        """Validate a slice once its lock request resolved.

        Returns (reason, piggyback) to abort: the locks were denied, or a
        read is stale, which releases the locks and piggybacks the stored
        entries of the stale keys.  Otherwise returns (None, writes) with
        each post-version frozen at current+1 under the exclusive locks.
        """
        if not granted:
            return _LOCK_REASON[why], []
        piggyback = self._stale_reads(sub.reads)
        if piggyback is not None:
            self.locks.release_all(tranx)
            return AbortReason.STALE_READ, piggyback
        return None, tuple((k, v, self.storage.current_version(k) + 1) for k, v in sub.writes)

    def _stale_reads(self, reads):
        """None when every read version is current; otherwise the stored
        entries of the stale keys, to piggyback on the abort."""
        stale = [k for k, ver in reads if self.storage.current_version(k) != ver]
        if not stale:
            return None
        piggyback = []
        for k in stale:
            entry = self.storage.get(k)
            if entry is not None:
                piggyback.append((k, entry[0], entry[1]))
        return piggyback

    def _on_prepare(self, env: Envelope) -> None:
        sub = self._decode(env, rpc.dec_txn)
        if sub is None:
            return
        tranx = env.tranx
        rec = self.part.get(tranx)
        if rec is not None:
            # a duplicate gets the vote again; with no vote yet the first
            # prepare is still locking, or the abort decision overtook this
            # prepare, and preparing now would take locks nothing releases
            if rec.vote is not None:
                self._send_vote_bytes(tranx, rec.vote)
            return
        if self.gc.is_final_by_watermark(tranx):
            return  # long decided and reclaimed; the coordinator needs nothing
        self._local_prepare(tranx, sub)

    def _local_prepare(self, tranx: TranxID, sub: Transaction) -> None:
        rec = PartRec(tranx)
        self.part[tranx] = rec
        if self._tracer is not None:
            self._trace("part.state", tranx=tranx, frm=None, to=PartState.START.value)
        self._lock_slice(tranx, sub.reads, sub.writes, partial(_on_slice_locked, self._ref, tranx, sub))

    def _prepare_locked(self, tranx: TranxID, sub: Transaction, granted: bool, why) -> None:
        rec = self.part.get(tranx)
        if rec is None or rec.state != PartState.START:
            return  # a concurrent abort decision already settled this one
        reason, out = self._check_locked(tranx, sub, granted, why)
        if reason is not None:
            # an own slice logs nothing: its coordinator's CoordAbort decides it
            if tranx.coordinator != self.sid:
                self._append(PartAbort(tranx), durable=False)
            self._set_part_state(rec, PartState.ABORT)
            self.locks.record_abort(tranx)
            self._cast_vote(rec, reason, out)
            return
        rec.writes = out
        remote = tranx.coordinator != self.sid
        # an own slice's PartReady is persisted by the CoordCommit flush
        self._append(PartReady(tranx, sub.reads, out), durable=remote)
        self._set_part_state(rec, PartState.READY)
        self._cast_vote(rec, None, [])
        if remote:  # READY again every RESEND until the decision lands
            self._queue_resend(rec)

    def _cast_vote(self, rec: PartRec, reason, piggyback) -> None:
        """Vote Ready (reason None) or Abort: in-process for an own slice;
        to a remote coordinator as bytes kept in rec.vote for duplicates."""
        if rec.tranx.coordinator == self.sid:
            self._vote(rec.tranx, self.sid, reason, piggyback)
            return
        rec.vote = b"" if reason is None else rpc.enc_vote_abort(reason, piggyback)
        self._send_vote_bytes(rec.tranx, rec.vote)

    def _send_vote_bytes(self, tranx: TranxID, vote: bytes) -> None:
        """Empty vote payload means Ready; otherwise an abort vote."""
        mt = MsgType.READY if vote == b"" else MsgType.ABORT_DECISION
        self._send(tranx.coordinator, self._server_env(mt, tranx, vote))

    def _handle_decision(self, tranx: TranxID, commit: bool) -> bool:
        """Apply a commit or abort decision; returns whether the sender is
        owed an ack, which is always, except for a commit of a transaction
        this node holds no Ready slice of: that is traced and changes
        nothing, and an ack would claim a commit this node never applied.  A
        slice already decided, or passed by the watermark with no record
        left, acks again with no side effect.  The coordinator's own slice
        logs nothing here: its CoordCommit or CoordAbort is the slice's
        decision record."""
        rec = self.part.get(tranx)
        if rec is None and self.gc.is_final_by_watermark(tranx):
            return True
        remote = tranx.coordinator != self.sid
        if commit:
            if rec is not None and rec.state == PartState.COMMIT:
                return True  # replay
            if rec is None or rec.state != PartState.READY:
                self._trace("msg.unexpected", type=MsgType.COMMIT_DECISION.name, tranx=tranx)
                return False
            if remote:
                self._append(PartCommit(tranx), durable=True)
                self._resend.pop(tranx, None)
            self._set_part_state(rec, PartState.COMMIT)
            if rec.writes:
                self.storage.apply_writes(list(rec.writes))
                if self._tracer is not None:
                    self._trace("part.apply", tranx=tranx, writes=rec.writes)
            self.locks.release_all(tranx)
        elif rec is None or rec.state in (PartState.START, PartState.READY):
            if remote:
                self._append(PartAbort(tranx), durable=False)
                self._resend.pop(tranx, None)
            if rec is None:  # the abort overtook its PREPARE: the record drops it
                self.part[tranx] = PartRec(tranx, state=PartState.ABORT)
            else:
                self._set_part_state(rec, PartState.ABORT)
            self.locks.record_abort(tranx)
        return True

    # -- resend timer --------------------------------------------------------------------

    def _queue_resend(self, rec: CoordRec | PartRec) -> None:
        """(Re)insert rec at the end of _resend, due RESEND from now."""
        self._resend.pop(rec.tranx, None)
        self._resend[rec.tranx] = self.ctx.now() + RESEND
        if self._resend_timer is None:
            self._resend_timer = self.ctx.set_timer(RESEND, self._ack_tick)

    def _ack_tick(self) -> None:
        """Resend for every due entry of _resend, then re-arm for its head.

        An undecided record repeats PREPARE to the owners that have not
        voted, or aborts with TIMEOUT after PREPARE_BUDGET rounds; a decided
        one repeats its decision to the owners that have not acked.  A Ready
        slice of another coordinator's transaction repeats its READY vote;
        its decision takes it out of the map.  The benchmark's tracer wraps
        this timer by its name, _ack_tick.
        """
        now = self.ctx.now()
        while self._resend:
            tranx, due = next(iter(self._resend.items()))
            if due > now:
                break
            if tranx.coordinator != self.sid:
                self._repeat_ready(self.part[tranx])
                continue
            rec = self.coord[tranx]
            if rec.state is not CoordState.PREPARE:
                self._send_decision(rec)
                self._queue_resend(rec)
                continue
            rec.retries += 1
            if rec.retries >= PREPARE_BUDGET:
                self._decide(rec, CoordState.ABORT, AbortReason.TIMEOUT, [])
            else:
                self._send_prepare(rec)
                self._queue_resend(rec)
        # _resend_timer held the fired timer during the loop, so the
        # re-queues above armed none: arm one timer for the new head
        self._resend_timer = None
        if self._resend:
            due = next(iter(self._resend.values()))
            self._resend_timer = self.ctx.set_timer(due - now, self._ack_tick)

    def _repeat_ready(self, rec: PartRec) -> None:
        """READY for a Ready slice, and again every RESEND."""
        self._send_vote_bytes(rec.tranx, b"")
        self._queue_resend(rec)

    # -- garbage collection ---------------------------------------------------------------

    def _gc_tick(self) -> None:
        lc_seq = self.gc.tick()
        for sid in self.peers:  # fire-and-forget
            self._send(sid, self._server_env(MsgType.GC_LC, None, rpc.enc_gc_lc(lc_seq)))
        self._reclaim_records()
        self.ctx.set_timer(self.config.gc_period, self._gc_tick)

    def _reclaim_records(self) -> None:
        """Drop the records of decided transactions the watermark passed."""
        lc = self.gc.table
        self.coord = {
            t: r for t, r in self.coord.items() if not r.complete or t.seq > lc.get(t.coordinator, 0)
        }
        self.part = {
            t: r
            for t, r in self.part.items()
            if r.state in (PartState.START, PartState.READY)
            or t.seq > lc.get(t.coordinator, 0)
        }

    # -- recovery ---------------------------------------------------------------------------

    def recover_local(self) -> None:
        """Take a new restart epoch, then fold the WAL into volatile state."""
        self._epoch = self._bump_epoch()
        self.issuer = self.gc.tracker = CompletionTracker(self._epoch)
        decided: dict[TranxID, CoordCommit | CoordAbort] = {}
        part_ready: dict[TranxID, PartReady] = {}
        part_state: dict[TranxID, PartState] = {}
        for recd in self.tranxlog.scan():
            t = recd.tranx
            if isinstance(recd, (CoordCommit, CoordAbort)):
                decided[t] = recd
            elif isinstance(recd, PartReady):
                part_ready[t] = recd
                part_state[t] = PartState.READY
            elif isinstance(recd, PartCommit):
                part_state[t] = PartState.COMMIT
            elif isinstance(recd, PartAbort):
                part_state[t] = PartState.ABORT

        # participant side: a record for every slice the log holds; replay
        # commits, re-lock in-doubt ready slices
        in_doubt_part = 0
        for t, state in sorted(part_state.items()):
            ready = part_ready.get(t)
            if ready is None:
                if state is PartState.ABORT:  # voted Abort; the vote's reason was not logged
                    self.part[t] = PartRec(t, state=PartState.ABORT, vote=_ABORTED_VOTE)
                continue
            if t.coordinator == self.sid:  # own slice: committed only by a CoordCommit
                state = PartState.COMMIT if isinstance(decided.get(t), CoordCommit) else PartState.ABORT
            self.part[t] = PartRec(t, ready.writes, state, vote=b"")
            if state is PartState.COMMIT:
                self.storage.apply_writes(list(ready.writes), replay=True)
            elif state is PartState.READY:
                result: list = []
                self._lock_slice(t, ready.reads, ready.writes, lambda ok, why: result.append(ok))
                assert result and result[0], f"recovery re-lock failed for {t}"
                in_doubt_part += 1

        # coordinator side: a commit some remote owner may not have acked is
        # pending, and recover_global resends it; anything else is complete.
        # The client-request dedup window is rebuilt for every decision, so
        # a resent commit request gets the original answer instead of being
        # re-executed as a fresh transaction
        base_lc = self.gc.table.get(self.sid, 0)
        for t, recd in sorted(decided.items()):
            committed = isinstance(recd, CoordCommit)
            if recd.client is not None:
                if committed:
                    payload = rpc.enc_commit_resp(True, None, [])
                else:
                    payload = rpc.enc_commit_resp(False, AbortReason.ALREADY_ABORTED, [])
                self.dedup.record_client(recd.client[0], recd.client[1], payload)
            if not committed or t.seq <= base_lc:
                continue
            remote = {sid for sid in recd.participants if sid != self.sid}
            if remote:
                participants = dict.fromkeys(recd.participants)
                self.coord[t] = CoordRec(t, participants, CoordState.COMMIT, pending_ack=remote)
                self.issuer.hold(t.seq)

        self.gc.table[self.sid] = self.issuer.lc
        self._trace("recovered", coord=len(decided), in_doubt_part=in_doubt_part)

    def _bump_epoch(self) -> int:
        raw = self.env.get_blob("epoch")
        epoch = int(raw.decode()) + 1 if raw else 1
        self.env.put_blob("epoch", str(epoch).encode())
        return epoch

    def recover_global(self) -> None:
        """Resend the commits recovery found unacked, and READY for each
        slice it found Ready, all remote; runs once the GC timer is armed."""
        for rec in self.coord.values():
            self._send_decision(rec)
            self._queue_resend(rec)
        for rec in self.part.values():
            if rec.state is PartState.READY:
                self._repeat_ready(rec)

    # -- operator surface -----------------------------------------------------------------------

    def stats_dump(self) -> dict:
        return {
            **self.stats,
            "lock": self.locks.stats(),
            "dedup_entries": self.dedup.size(),
            "wal_files": self.tranxlog.file_count(),
            "lc": dict(self.gc.table),
            "in_flight_coord": sum(1 for r in self.coord.values() if not r.complete),
        }

    def shutdown(self) -> None:
        self.tranxlog.close()
        self.gclog.close()
        self.storage.store.close()
