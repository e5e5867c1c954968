"""Coordinator and participant state machines for the hybrid OCC+2PC commit.

A ServerNode is purely reactive: it consumes envelopes and timer callbacks
and produces sends, replies, log appends, and state changes.  It never
blocks, so the same object runs unchanged on the deterministic simulator
(virtual clock, in-process transport) and on the threaded socket runtime.

Commit flow for a multi-owner transaction:
  1. persist CoordPrepare (durable), send Prepare to every remote owner,
     run the local slice in-process;
  2. each participant locks (shared for read-only keys, exclusive for
     written keys), validates read versions, freezes post-versions,
     persists PartReady (durable), votes Ready -- or votes Abort;
  3. all Ready -> persist CoordCommit (durable); any Abort vote -> persist
     CoordAbort without waiting for the other votes.  Either way, in that
     same step, answer the client and send the decision to every remote
     participant, so their locks go one hop after the decision;
  4. participants persist the decision, apply frozen post-versions,
     release locks, and acknowledge; once every participant acked, the
     transaction is reported complete to the garbage collector.

Until it is complete the coordinator repeats, every RESEND, PREPARE to the
owners that have not voted (aborting with TIMEOUT after PREPARE_BUDGET
rounds) and the decision to those that have not acked.  Every repeat waits
the same RESEND, so one map ordered by insertion is also ordered by due
time, and one timer armed for its head serves every pending resend.

Single-owner transactions take the one-phase path: no wire messages, one
durable flush carrying both the write set and the commit decision.

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
For the same reason a READ answer says whether the key was exclusively
locked when it was read.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from . import rpc
from .env import NodeEnv
from .gc import GcLog, GcManager
from .locks import LockTable, RejectReason
from .model import (
    CoordAbort,
    CoordCommit,
    CoordPrepare,
    CoordState,
    MalformedRecordError,
    PartAbort,
    PartCommit,
    PartReady,
    PartState,
    ServerId,
    Transaction,
    TranxID,
    TranxIdIssuer,
    coord_transition_legal,
    part_transition_legal,
)
from .rpc import AbortReason, DedupTable, Envelope, MsgType
from .storage import KvStore, StorageEngine
from .wal import MAX_ENTRY, TranxLog


def owner_of(key: bytes, members: list[ServerId]) -> ServerId:
    """Static key partitioning: crc32 hash modulo cluster size."""
    return members[zlib.crc32(key) % len(members)]


RESEND = 0.200  # repeat PREPARE or a decision an owner has not answered
PREPARE_BUDGET = 8  # PREPARE rounds before the coordinator aborts
STATUS_RETRY = 0.100  # re-ask an in-doubt transaction's coordinator

# message types that name their transaction in the envelope
_TRANX_TYPES = frozenset({
    MsgType.PREPARE, MsgType.READY, MsgType.COMMIT_DECISION, MsgType.ABORT_DECISION,
    MsgType.ACK, MsgType.TRANX_STATUS,
})


@dataclass
class ServerConfig:
    members: list[ServerId]
    wal_file_capacity: int = 1 << 20
    lock_wait: float = 0.050
    gc_period: float = 0.100


@dataclass
class CoordRec:
    tranx: TranxID
    subs: dict[ServerId, Transaction]
    state: CoordState = CoordState.START
    pending_ready: set[ServerId] = field(default_factory=set)
    pending_ack: set[ServerId] = field(default_factory=set)
    decision: str | None = None
    abort_reason: AbortReason | None = None
    piggyback: list = field(default_factory=list)
    client_key: tuple[int, int] | None = None  # (client id, message id)
    reply_to: Envelope | None = None
    retries: int = 0
    complete: bool = False


@dataclass
class PartRec:
    tranx: TranxID
    reads: tuple
    writes: tuple = ()  # (key, value, post_version) frozen at prepare
    state: PartState = PartState.START


class ServerNode:
    def __init__(
        self,
        sid: ServerId,
        config: ServerConfig,
        env: NodeEnv,
        store: KvStore,
        ctx,
    ) -> None:
        assert sid in config.members
        self.sid = sid
        self.config = config
        self.env = env
        self.ctx = ctx
        self.members = sorted(config.members)
        self.peers = [m for m in self.members if m != sid]

        self.tranxlog = TranxLog(env, config.wal_file_capacity)
        self.storage = StorageEngine(store)
        self.locks = LockTable(ctx.set_timer, ctx.cancel_timer, config.lock_wait)
        self.locks.trace = self._trace
        self.dedup = DedupTable()
        self.gclog = GcLog(env, self.members)
        self.gc = GcManager(
            server=sid,
            gclog=self.gclog,
            tranxlog=self.tranxlog,
            lock_table=self.locks,
            store=self.storage,
            broadcast_fn=self._broadcast_lc,
            trace=self._trace,
        )
        self.issuer = TranxIdIssuer(sid, 0)
        self.gc.issued_max_fn = lambda: self.issuer.last_issued

        self.coord: dict[TranxID, CoordRec] = {}
        self.part: dict[TranxID, PartRec] = {}
        self.pending_client: dict[tuple[int, int], TranxID] = {}
        # 2PC coordinator records still waiting for a vote or an ack -> when
        # to resend; each entry is due RESEND after it was (re)inserted, so
        # insertion order is due order
        self._resend: dict[TranxID, float] = {}
        self._resend_timer = None  # armed for the head of _resend, if any
        self._msg_seq = 0
        self._pending_status: dict[int, TranxID] = {}
        self._client_epoch = 0
        self._next_client = 0
        self.stats = {
            "commits": 0,
            "aborts": 0,
            "msgs_sent": 0,
            "reads": 0,
            "one_phase": 0,
        }

    # -- plumbing --------------------------------------------------------------

    def _trace(self, event: str, **info) -> None:
        tracer = getattr(self.ctx, "trace", None)
        if tracer is not None:
            tracer(self.sid, event, **info)

    def _crash_point(self, label: str) -> None:
        hook = getattr(self.ctx, "crash_point", None)
        if hook is not None:
            hook(self.sid, label)

    def _send(self, dest: ServerId, env: Envelope) -> None:
        self.stats["msgs_sent"] += 1
        self._trace("msg.send", dest=dest, type=env.msg_type.name, tranx=env.tranx)
        self.ctx.send(dest, env)
        self._crash_point(f"send.{env.msg_type.name}")

    def _reply(self, request: Envelope, payload: bytes) -> None:
        resp = Envelope(
            MsgType.RESPONSE, rpc.SERVER, self.sid, request.message_id, request.tranx, payload
        )
        self.ctx.reply(request, resp)

    def _next_msg_id(self) -> int:
        self._msg_seq += 1
        return self._msg_seq

    def _server_env(self, msg_type: MsgType, tranx: TranxID | None, payload: bytes) -> Envelope:
        return Envelope(msg_type, rpc.SERVER, self.sid, self._next_msg_id(), tranx, payload)

    def _append(self, record, durable: bool) -> None:
        self.tranxlog.append(record, durable)
        if durable:
            self._crash_point(f"wal.{type(record).__name__}")

    def _set_coord_state(self, rec: CoordRec, state: CoordState) -> None:
        assert coord_transition_legal(rec.state, state), (rec.state, state)
        self._trace("coord.state", tranx=rec.tranx, frm=rec.state.value, to=state.value)
        rec.state = state

    def _set_part_state(self, rec: PartRec, state: PartState) -> None:
        assert part_transition_legal(rec.state, state), (rec.state, state)
        self._trace("part.state", tranx=rec.tranx, frm=rec.state.value, to=state.value)
        rec.state = state

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Local recovery, then periodic stages; call before serving traffic."""
        self.recover_local()
        self.ctx.set_timer(self.config.gc_period, self._gc_tick)
        self.recover_global()

    def assign_client_id(self) -> int:
        """Unique cluster-wide: assigning server + restart epoch + counter."""
        self._next_client += 1
        return (self.sid << 48) | (self._client_epoch << 32) | self._next_client

    # -- dispatch ---------------------------------------------------------------

    def on_message(self, env: Envelope) -> None:
        self._trace("msg.recv", type=env.msg_type.name, tranx=env.tranx, frm=env.sender_id)
        self._crash_point(f"recv.{env.msg_type.name}")
        mt = env.msg_type
        if env.tranx is None and mt in _TRANX_TYPES:
            self._trace("msg.malformed", type=mt.name, frm=env.sender_id)
            return
        if mt == MsgType.CLIENT_HELLO:
            self._reply(env, self.assign_client_id().to_bytes(8, "little"))
        elif mt == MsgType.READ:
            key = self._decode(env, rpc.dec_read_req)
            if key is not None:
                self._handle_read(env, key)
        elif mt == MsgType.COMMIT:
            self._handle_commit(env)
        elif mt == MsgType.VALIDATE:
            sub = self._decode(env, rpc.dec_txn)
            reason, piggyback = (
                (AbortReason.UNKNOWN, []) if sub is None else self._validate_slice(sub)
            )
            self._reply(env, rpc.enc_commit_resp(reason is None, reason, piggyback))
        elif mt == MsgType.PREPARE:
            sub = self._decode(env, rpc.dec_txn)
            if sub is not None:
                self._handle_prepare(env.tranx, sub)
        elif mt == MsgType.READY:
            self._vote(env.tranx, env.sender_id, None, [])
        elif mt == MsgType.ABORT_DECISION and env.tranx.coordinator == self.sid:
            vote = self._decode(env, rpc.dec_vote_abort)
            if vote is not None:
                self._vote(env.tranx, env.sender_id, vote[0] or AbortReason.UNKNOWN, vote[1])
        elif mt in (MsgType.COMMIT_DECISION, MsgType.ABORT_DECISION):
            self._handle_decision(env.tranx, "Commit" if mt == MsgType.COMMIT_DECISION else "Abort")
            self._send(env.sender_id, self._server_env(MsgType.ACK, env.tranx, b""))
        elif mt == MsgType.ACK:
            self._handle_ack(env.tranx, env.sender_id)
        elif mt == MsgType.GC_LC:
            lc_seq = self._decode(env, rpc.dec_gc_lc)
            if lc_seq is not None:
                self.gc.on_lc_broadcast(env.sender_id, lc_seq)
                self.dedup.prune(self.gc.table)
        elif mt == MsgType.TRANX_STATUS:
            self._handle_status_query(env)
        elif mt == MsgType.RESPONSE:
            status = self._decode(env, rpc.dec_status_resp)
            if status is not None:
                self._handle_status_response(env.message_id, status)

    def _decode(self, env: Envelope, decoder):
        """The decoded payload, or None, traced, when it does not decode."""
        try:
            return decoder(env.payload)
        except MalformedRecordError:
            self._trace("msg.malformed", type=env.msg_type.name, frm=env.sender_id)
            return None

    # -- reads -----------------------------------------------------------------

    def _handle_read(self, env: Envelope, key: bytes) -> None:
        # Idempotent, lock-free, never deduplicated.
        self.stats["reads"] += 1
        locked = self.locks.exclusively_held(key)
        self._reply(env, rpc.enc_read_resp(self.storage.get(key), locked))

    # -- coordinator -------------------------------------------------------------

    def _handle_commit(self, env: Envelope) -> None:
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
        # (prepare with all slices, a participant's ready record with frozen
        # post-versions) must fit one WAL block, or commit would die midway
        overhead = 8 * len(txn.writes) + 8 * len(self.members) + 64
        if len(env.payload) + overhead > MAX_ENTRY:
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
        return {
            sid: Transaction(tuple(reads), tuple(writes))
            for sid, (reads, writes) in sorted(per.items())
        }

    def coordinate(self, txn: Transaction, reply_to: Envelope | None) -> TranxID:
        subs = self._split(txn)
        tranx = self.issuer.next()
        rec = CoordRec(tranx, subs)
        rec.reply_to = reply_to
        if reply_to is not None and reply_to.sender_kind == rpc.CLIENT:
            rec.client_key = (reply_to.sender_id, reply_to.message_id)
            self.pending_client[rec.client_key] = tranx
        self.coord[tranx] = rec
        self._trace("coord.state", tranx=tranx, frm=None, to=CoordState.START.value)

        if set(subs) == {self.sid}:
            self._one_phase_commit(rec)
            return tranx

        self._set_coord_state(rec, CoordState.PREPARE)
        rec.pending_ready = set(subs)
        rec.pending_ack = set(subs)
        self._append(
            CoordPrepare(tranx, tuple(sorted(subs.items()))), durable=True
        )
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
        rec = self.coord.get(tranx)
        if rec is None or rec.decision is not None or voter not in rec.pending_ready:
            return
        rec.pending_ready.discard(voter)
        if reason is None:
            if not rec.pending_ready:
                self._decide(rec, "Commit", None, [])
        else:
            # abort fan-out goes out immediately, without waiting for the
            # remaining votes
            self._decide(rec, "Abort", reason, piggyback)

    def _decide(self, rec: CoordRec, decision: str, reason, piggyback) -> None:
        assert rec.decision is None
        rec.decision = decision
        rec.abort_reason = reason
        rec.piggyback = list(piggyback)
        kind = CoordCommit if decision == "Commit" else CoordAbort
        self._append(kind(rec.tranx, rec.client_key), durable=True)
        self._set_coord_state(
            rec, CoordState.COMMIT if decision == "Commit" else CoordState.ABORT
        )
        # the client and the participants hear the decision once it is
        # persisted; the resend timer repeats it to owners that do not ack
        self._answer_client(rec)
        self._send_decision(rec)
        if self.sid in rec.pending_ack:
            self._handle_decision(rec.tranx, decision)
            self._handle_ack(rec.tranx, self.sid)
        if not rec.complete:
            self._queue_resend(rec)

    def _send_decision(self, rec: CoordRec) -> None:
        """The decision to every remote owner that has not acked."""
        mt = MsgType.COMMIT_DECISION if rec.decision == "Commit" else MsgType.ABORT_DECISION
        for sid in rec.pending_ack:
            if sid != self.sid:
                self._send(sid, self._server_env(mt, rec.tranx, b""))

    def _answer_client(self, rec: CoordRec) -> None:
        if rec.reply_to is None:
            return
        committed = rec.decision == "Commit"
        payload = rpc.enc_commit_resp(committed, rec.abort_reason, rec.piggyback)
        self.stats["commits" if committed else "aborts"] += 1
        if rec.client_key is not None:
            self.dedup.record_client(rec.client_key[0], rec.client_key[1], payload)
            self.pending_client.pop(rec.client_key, None)
        self._reply(rec.reply_to, payload)
        rec.reply_to = None

    def _handle_ack(self, tranx: TranxID, sender: ServerId) -> None:
        rec = self.coord.get(tranx)
        if rec is None or rec.decision is None:
            return
        rec.pending_ack.discard(sender)
        if not rec.pending_ack and not rec.complete:
            rec.complete = True
            self._resend.pop(tranx, None)
            self.gc.mark_complete(tranx, rec.decision)

    # -- one-phase path -----------------------------------------------------------

    def _one_phase_commit(self, rec: CoordRec) -> None:
        self.stats["one_phase"] += 1
        self._set_coord_state(rec, CoordState.PREPARE)
        sub = rec.subs[self.sid]
        self._lock_slice(
            rec.tranx,
            sub.reads,
            sub.writes,
            lambda ok, why, r=rec: self._one_phase_locked(r, ok, why),
        )

    def _one_phase_locked(self, rec: CoordRec, granted: bool, why) -> None:
        sub = rec.subs[self.sid]
        reason, out = self._check_locked(rec.tranx, sub, granted, why)
        if reason is not None:
            self._finish_one_phase(rec, reason, out)
            return
        writes = out
        # combined record: write set + decision in a single durable flush
        self.tranxlog.append(PartReady(rec.tranx, sub.reads, writes), durable=False)
        self._append(CoordCommit(rec.tranx, rec.client_key), durable=True)
        self._set_coord_state(rec, CoordState.COMMIT)
        rec.decision = "Commit"
        self.storage.apply_writes(list(writes))
        self._trace("part.apply", tranx=rec.tranx, writes=writes)
        self.locks.release_all(rec.tranx)
        rec.complete = True
        self.gc.mark_complete(rec.tranx, "Commit")
        self._answer_client(rec)

    def _finish_one_phase(self, rec: CoordRec, reason: AbortReason, piggyback) -> None:
        self._append(CoordAbort(rec.tranx, rec.client_key), durable=True)
        self._set_coord_state(rec, CoordState.ABORT)
        rec.decision = "Abort"
        rec.abort_reason = reason
        rec.piggyback = piggyback
        rec.complete = True
        self.gc.mark_complete(rec.tranx, "Abort")
        self._answer_client(rec)

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

    @staticmethod
    def _map_lock_reason(why: RejectReason) -> AbortReason:
        return {
            RejectReason.SHARED_DENIED: AbortReason.LOCK_DENIED_READ,
            RejectReason.EXCLUSIVE_DENIED: AbortReason.LOCK_DENIED_WRITE,
            RejectReason.WAIT_TIMEOUT: AbortReason.LOCK_DENIED_WRITE,
            RejectReason.ALREADY_ABORTED: AbortReason.ALREADY_ABORTED,
        }[why]

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
            return self._map_lock_reason(why), []
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

    def _handle_prepare(self, tranx: TranxID, sub: Transaction) -> None:
        cached = self.dedup.check_tranx(tranx, MsgType.PREPARE)
        if cached is not None:
            self._send_vote_bytes(tranx, cached)
            return
        if self.gc.is_final_by_watermark(tranx):
            return  # long decided and reclaimed; the coordinator needs nothing
        if (
            tranx in self.locks.aborted
            or self.dedup.seen_tranx(tranx, MsgType.ABORT_DECISION)
            or self.dedup.seen_tranx(tranx, MsgType.COMMIT_DECISION)
        ):
            # the decision overtook this prepare on the wire; preparing now
            # would grant locks no decision will ever release
            return
        if tranx in self.part:
            return  # duplicate while the first prepare is still in flight
        self._local_prepare(tranx, sub)

    def _local_prepare(self, tranx: TranxID, sub: Transaction) -> None:
        rec = PartRec(tranx, sub.reads)
        self.part[tranx] = rec
        self._trace("part.state", tranx=tranx, frm=None, to=PartState.START.value)
        self._lock_slice(
            tranx,
            sub.reads,
            sub.writes,
            lambda ok, why, t=tranx, s=sub: self._prepare_locked(t, s, ok, why),
        )

    def _prepare_locked(self, tranx: TranxID, sub: Transaction, granted: bool, why) -> None:
        rec = self.part.get(tranx)
        if rec is None or rec.state != PartState.START:
            return  # a concurrent abort decision already settled this one
        reason, out = self._check_locked(tranx, sub, granted, why)
        if reason is not None:
            self._prepare_abort(rec, reason, out)
            return
        rec.writes = out
        self._append(PartReady(tranx, sub.reads, out), durable=True)
        self._set_part_state(rec, PartState.READY)
        vote = b""
        self.dedup.record_tranx(tranx, MsgType.PREPARE, vote)
        self._send_vote_bytes(tranx, vote)

    def _prepare_abort(self, rec: PartRec, reason: AbortReason, piggyback) -> None:
        tranx = rec.tranx
        self._append(PartAbort(tranx), durable=False)
        self._set_part_state(rec, PartState.ABORT)
        self.locks.record_abort(tranx)
        vote = rpc.enc_vote_abort(reason, piggyback)
        self.dedup.record_tranx(tranx, MsgType.PREPARE, vote)
        self._send_vote_bytes(tranx, vote)

    def _send_vote_bytes(self, tranx: TranxID, vote: bytes) -> None:
        """Empty vote payload means Ready; otherwise an abort vote."""
        coordinator = tranx.coordinator
        if vote == b"":
            env_type, payload = MsgType.READY, b""
        else:
            env_type, payload = MsgType.ABORT_DECISION, vote
        if coordinator == self.sid:
            if env_type == MsgType.READY:
                self._vote(tranx, self.sid, None, [])
            else:
                reason, piggyback = rpc.dec_vote_abort(vote)
                self._vote(tranx, self.sid, reason or AbortReason.UNKNOWN, piggyback)
            return
        self._send(coordinator, self._server_env(env_type, tranx, payload))

    def _handle_decision(self, tranx: TranxID, decision: str) -> None:
        """Apply a commit/abort decision; the sender is owed an ack either way."""
        mt = MsgType.COMMIT_DECISION if decision == "Commit" else MsgType.ABORT_DECISION
        if self.dedup.seen_tranx(tranx, mt):
            return  # replay: ack again, no side effects
        if self.gc.is_final_by_watermark(tranx):
            return
        rec = self.part.get(tranx)
        if decision == "Commit":
            assert rec is not None and rec.state == PartState.READY, (
                f"commit decision for {tranx} without a ready record"
            )
            self._append(PartCommit(tranx), durable=True)
            self._set_part_state(rec, PartState.COMMIT)
            if rec.writes:
                self.storage.apply_writes(list(rec.writes))
                self._trace("part.apply", tranx=tranx, writes=rec.writes)
            self.locks.release_all(tranx)
        else:
            self._append(PartAbort(tranx), durable=False)
            if rec is not None and rec.state in (PartState.START, PartState.READY):
                self._set_part_state(rec, PartState.ABORT)
            self.locks.record_abort(tranx)
        self.dedup.record_tranx(tranx, mt)

    # -- resend timer --------------------------------------------------------------------

    def _queue_resend(self, rec: CoordRec) -> None:
        """(Re)insert rec at the end of _resend, due RESEND from now."""
        self._resend.pop(rec.tranx, None)
        self._resend[rec.tranx] = self.ctx.now() + RESEND
        if self._resend_timer is None:
            self._resend_timer = self.ctx.set_timer(RESEND, self._ack_tick)

    def _ack_tick(self) -> None:
        """Resend for every due entry of _resend, then re-arm for its head.

        An undecided record repeats PREPARE to the owners that have not
        voted, or aborts with TIMEOUT after PREPARE_BUDGET rounds; a decided
        one repeats its decision to the owners that have not acked.  The
        benchmark's tracer wraps this timer by its name, _ack_tick.
        """
        now = self.ctx.now()
        while self._resend:
            tranx, due = next(iter(self._resend.items()))
            if due > now:
                break
            rec = self.coord[tranx]
            if rec.decision is not None:
                self._send_decision(rec)
                self._queue_resend(rec)
                continue
            rec.retries += 1
            if rec.retries >= PREPARE_BUDGET:
                self._decide(rec, "Abort", AbortReason.TIMEOUT, [])
            else:
                self._send_prepare(rec)
                self._queue_resend(rec)
        # _resend_timer held the fired timer during the loop, so the
        # re-queues above armed none: arm one timer for the new head
        self._resend_timer = None
        if self._resend:
            due = next(iter(self._resend.values()))
            self._resend_timer = self.ctx.set_timer(due - now, self._ack_tick)

    # -- gc stage ------------------------------------------------------------------------

    def _broadcast_lc(self, lc_seq: int) -> None:
        for sid in self.peers:
            self._send(sid, self._server_env(MsgType.GC_LC, None, rpc.enc_gc_lc(lc_seq)))

    def _gc_tick(self) -> None:
        self.gc.tick()
        self.dedup.prune(self.gc.table)
        self.gc.delayed_volatile_reclaim(self._light_load())
        self._reclaim_records()
        self.ctx.set_timer(self.config.gc_period, self._gc_tick)

    def _light_load(self) -> bool:
        in_flight = sum(1 for r in self.coord.values() if not r.complete)
        in_flight += sum(
            1 for r in self.part.values() if r.state in (PartState.START, PartState.READY)
        )
        return in_flight == 0

    def _reclaim_records(self) -> None:
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

    # -- status queries (global recovery) ---------------------------------------------------

    def _handle_status_query(self, env: Envelope) -> None:
        tranx = env.tranx
        status = "Abort"
        if tranx in self.gc.final:
            status = self.gc.final[tranx]
        elif tranx in self.coord:
            rec = self.coord[tranx]
            status = rec.decision or "Pending"
        elif self.gc.is_final_by_watermark(tranx):
            # Can only happen once every participant acked, i.e. the querier
            # already applied the decision and lost the query race; by then
            # it is never in Ready, so Abort is safe for a truly unknown id.
            status = "Abort"
        self._reply(env, rpc.enc_status_resp(status))

    def _query_status(self, tranx: TranxID) -> None:
        if tranx not in self.part or self.part[tranx].state != PartState.READY:
            return
        msg_id = self._next_msg_id()
        self._pending_status[msg_id] = tranx
        env = Envelope(MsgType.TRANX_STATUS, rpc.SERVER, self.sid, msg_id, tranx, b"")
        self._send(tranx.coordinator, env)
        self.ctx.set_timer(
            STATUS_RETRY,
            lambda t=tranx, m=msg_id: self._status_retry(t, m),
        )

    def _status_retry(self, tranx: TranxID, msg_id: int) -> None:
        if msg_id in self._pending_status:
            self._pending_status.pop(msg_id, None)
            self._query_status(tranx)

    def _handle_status_response(self, message_id: int, status: str) -> None:
        tranx = self._pending_status.pop(message_id, None)
        if tranx is None:
            return
        if status == "Pending":
            self.ctx.set_timer(STATUS_RETRY, lambda t=tranx: self._query_status(t))
            return
        self._handle_decision(tranx, status)
        self._send(tranx.coordinator, self._server_env(MsgType.ACK, tranx, b""))

    # -- recovery ---------------------------------------------------------------------------

    def recover_local(self) -> None:
        """Fold the WAL into volatile state."""
        coord_state: dict[TranxID, str] = {}
        coord_parts: dict[TranxID, tuple] = {}
        part_ready: dict[TranxID, PartReady] = {}
        part_state: dict[TranxID, str] = {}
        coord_client: dict[TranxID, tuple[int, int] | None] = {}
        own_seqs: set[int] = set()
        for recd in self.tranxlog.scan():
            t = recd.tranx
            if isinstance(recd, CoordPrepare):
                coord_state[t] = "Prepare"
                coord_parts[t] = recd.participants
                own_seqs.add(t.seq)
            elif isinstance(recd, CoordCommit):
                coord_state[t] = "Commit"
                coord_client[t] = recd.client
                own_seqs.add(t.seq)
            elif isinstance(recd, CoordAbort):
                coord_state[t] = "Abort"
                coord_client[t] = recd.client
                own_seqs.add(t.seq)
            elif isinstance(recd, PartReady):
                part_ready[t] = recd
                part_state[t] = "Ready"
            elif isinstance(recd, PartCommit):
                part_state[t] = "Commit"
            elif isinstance(recd, PartAbort):
                part_state[t] = "Abort"

        base_lc = self.gc.table.get(self.sid, 0)
        max_seq = max(own_seqs, default=0)
        max_seq = max(max_seq, base_lc)
        self.issuer = TranxIdIssuer(self.sid, max_seq)
        self.gc.issued_max_fn = lambda: self.issuer.last_issued

        # fill crash gaps in the TranxID space with aborts so the watermark
        # prefix can advance past them
        for seq in range(base_lc + 1, max_seq + 1):
            t = TranxID(self.sid, seq)
            if seq not in own_seqs:
                self._append(CoordAbort(t), durable=True)
                coord_state[t] = "Abort"
                coord_parts.setdefault(t, ())

        # participant side: replay decisions, re-lock in-doubt ready slices
        in_doubt_participant: list[TranxID] = []
        for t, ready in sorted(part_ready.items()):
            state = part_state.get(t)
            if state == "Ready" and t.coordinator == self.sid:
                # own slice (1PC or self-participation): the coordinator's
                # decision, when logged, settles it locally
                if coord_state.get(t) in ("Commit", "Abort"):
                    state = coord_state[t]
            if state == "Commit":
                self.storage.apply_writes(
                    [(k, v, pv) for k, v, pv in ready.writes], replay=True
                )
                self.dedup.record_tranx(t, MsgType.COMMIT_DECISION)
                self.dedup.record_tranx(t, MsgType.PREPARE, b"")
            elif state == "Abort":
                self.locks.record_abort(t)
                self.dedup.record_tranx(t, MsgType.ABORT_DECISION)
            else:
                rec = PartRec(t, ready.reads, ready.writes, PartState.START)
                self.part[t] = rec
                result: list = []
                self._lock_slice(t, ready.reads, ready.writes, lambda ok, why: result.append(ok))
                assert result and result[0], f"recovery re-lock failed for {t}"
                rec.state = PartState.READY
                self.dedup.record_tranx(t, MsgType.PREPARE, b"")
                if t.coordinator != self.sid:
                    in_doubt_participant.append(t)
        for t, state in sorted(part_state.items()):
            if t not in part_ready and state == "Abort":
                self.locks.record_abort(t)
                self.dedup.record_tranx(t, MsgType.ABORT_DECISION)

        # coordinator side: recover_global re-aborts the undecided and resends
        # the decided that some owner has not acked
        for t, state in sorted(coord_state.items()):
            if t.seq <= base_lc:
                continue
            participants = dict(coord_parts.get(t, ()))
            rec = CoordRec(t, {sid: sub for sid, sub in participants.items()})
            rec.state = {
                "Prepare": CoordState.PREPARE,
                "Commit": CoordState.COMMIT,
                "Abort": CoordState.ABORT,
            }[state]
            self.coord[t] = rec
            if state == "Prepare":
                rec.pending_ready = set(participants)
                rec.pending_ack = set(participants)
                continue
            rec.decision = state
            # the local slice was replayed above, so only remote owners ack
            rec.pending_ack = {sid for sid in participants if sid != self.sid}
            if not rec.pending_ack:
                rec.complete = True
                self.gc.mark_complete(t, state)

        # rebuild the client-request dedup window for decided transactions so
        # a resent commit request gets the original answer instead of being
        # re-executed as a fresh transaction
        for t, ck in sorted(coord_client.items()):
            if ck is None:
                continue
            if coord_state.get(t) == "Commit":
                payload = rpc.enc_commit_resp(True, None, [])
            else:
                payload = rpc.enc_commit_resp(False, AbortReason.ALREADY_ABORTED, [])
            self.dedup.record_client(ck[0], ck[1], payload)

        self.gc.table[self.sid] = self.gc.tracker.lc
        self._client_epoch = self._bump_epoch()
        # server message ids are unique across restarts, so a late RESPONSE
        # to a previous incarnation's TRANX_STATUS matches nothing
        self._msg_seq = self._client_epoch << 32
        self._trace(
            "recovered",
            coord=len(coord_state),
            in_doubt_coord=sum(1 for r in self.coord.values() if r.decision is None),
            in_doubt_part=len(in_doubt_participant),
        )
        self._in_doubt_participant = in_doubt_participant

    def _bump_epoch(self) -> int:
        raw = self.env.get_blob("epoch")
        epoch = int(raw.decode()) + 1 if raw else 1
        self.env.put_blob("epoch", str(epoch).encode())
        return epoch

    def recover_global(self) -> None:
        """Resolve in-doubt transactions and resend the decisions found by
        recovery; runs after service stages start."""
        for rec in self.coord.values():
            if rec.decision is None:
                # silence means failure to the client: abort even if every
                # participant turned out to be ready
                self._decide(rec, "Abort", AbortReason.UNKNOWN, [])
            elif not rec.complete:
                self._send_decision(rec)
                self._queue_resend(rec)
        for t in self._in_doubt_participant:
            self._query_status(t)
        self._in_doubt_participant = []

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
        self.storage.store.close()
