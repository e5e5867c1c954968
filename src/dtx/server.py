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
     written keys), validates read versions, freezes post-versions and
     votes Ready -- a remote one after forcing PartReady -- or votes Abort.
     A remote participant votes with READY: an empty one for Ready, one
     carrying its abort answer (reason and stale entries) for Abort;
  3. all Ready -> persist the own slice's PartReady and CoordCommit, which
     names the owners, in one flush; any Abort vote -> decide Abort
     without waiting for the other votes.  Either way, in that same step,
     answer the client and send the decision, COMMIT_DECISION or
     ABORT_DECISION, which only a coordinator sends, to every remote
     participant but an Abort's voter, whose slice is already Abort, so
     their locks go one hop after the decision;
  4. participants force PartCommit, apply frozen post-versions, release
     locks and ack a commit; once every remote participant acked it, the
     transaction is reported complete to the garbage collector.  An abort
     releases locks, is complete once decided and is never acked; a
     participant that missed it learns it from a READY repeat or the GC.
No site logs an abort (presumed abort, at every site): a slice committed
iff its commit record is logged, CoordCommit for the own slice, as for the
coordinator's own site in R*, and PartCommit for a remote one.

A transaction owned only by its coordinator sends no message and makes one
durable flush, CoordCommit, which carries the unforced PartReady with it.

Recovery first takes a new restart epoch from the GC (GcManager.restart),
which keeps it in the GCLog and issues every TranxID, carrying it, so no id
a crashed incarnation sent in a PREPARE is issued again.  A coordinator
record is rebuilt only for a logged CoordCommit some remote owner may not
have acked: it resends the decision to the owners CoordCommit names.  A
committed slice is replayed.  A remote slice with a PartReady and no
PartCommit is in doubt: it is re-locked and repeats READY, unless the
watermark passed it (below) or a slice that logged its PartReady later
locked one of its keys in a conflicting mode, which says it aborted: each
PartReady is logged while its slice holds its locks, and a commit forces
PartCommit before it releases them.  An aborted slice keeps no record.
The client dedup window is rebuilt from CoordCommit only: a resent COMMIT
whose first attempt aborted runs again, as a new transaction, after its
coordinator restarted.

Until it is complete the coordinator repeats, every RESEND, PREPARE to the
owners that have not voted (aborting with TIMEOUT after PREPARE_BUDGET
rounds) and a commit to those that have not acked.  A remote
participant repeats its READY vote on the same schedule for each slice it
holds Ready, from the vote, or the restart that found it Ready, until the
decision lands.  Every repeat waits the same RESEND, so one map ordered by
insertion is also ordered by due time, and one timer armed for its head
serves every pending resend.

A transaction that wrote nothing never reaches a coordinator: its client
validates its reads with a second read round (see client.py), and a
COMMIT with no writes is answered UNKNOWN.  A READ takes no TranxID, lock,
log record, dedup entry or watermark.  Within one step of the protocol
loop the owner reads every key of a READ and says whether any of them was
exclusively locked.  That flag is what stops a fractured read: a 2PC
participant holds its exclusive locks from prepare until it applies the
decision, so a reader that saw one owner's post-commit value and another
owner's pre-commit value finds the second key locked or its version moved.

A group READ, one READ of a read-only transaction's round over two or more
owners, names the round's owners and its id (client.py).  The owner serves
it in one step, noting each key's version and whether any was locked and
naming that serving with a token, unique across incarnations, and sends
each other owner a READ_NOTICE of (client id, group id, token).  It keeps
the group, keyed by (client id, group id), until it has served and heard
every other owner's notice, which may come first, then answers: a vouching
answer, listing its token and those heard, if no key was locked when
served or is now and every key still has the version served, else a plain
READ answer of the keys as they are now.  An answered group is remembered
until the next GC tick, so a resent or duplicated READ of a group served
or answered here is answered at once, plainly, and a late notice is
dropped.  Each GC tick answers, plainly, and drops every group that was
open at the previous tick, and drops one known only from notices, so a
node holds groups only for rounds of about the last GC period.

Every answer to a client, a RESPONSE, is an updates block, then the body
(rpc.enc_response).  The block holds the current entry of each key this
node applied since its last answer to that client, once per key, so a
client's cache catches up with commits it did not make (client.py).  The
storage engine keeps the last storage.RECENT keys applied live in a ring,
and the node keeps each client's position in it, its cursor.  A client
with no cursor, or whose cursor the ring has passed, gets the whole ring,
so each GC tick drops passed cursors and those of clients not answered
since the previous tick: the map holds only clients active within about
one GC period.  A restart starts with an empty ring and no cursor, and
recovery's replay feeds nothing in.  The handshake answer carries an
empty block and makes no cursor.  An answer lost on the wire loses its
block: the cache is a hint.

A client's COMMIT is answered from one table, its dedup window
(rpc.DedupTable): coordinating records the new TranxID under the request's
(client id, message id), and the decision replaces it with the answer
body.  A resend that finds the TranxID is in flight and is dropped, as the
decision answers it; one that finds the body gets it again, after a fresh
updates block.  The CoordRec keeps no reply state.

A node keeps one record per transaction it takes part in: a CoordRec for
each transaction it coordinates and a PartRec for each slice it prepares,
and these records answer every repeated message.  A PartRec keeps its
vote, so a duplicate PREPARE gets the same vote back; a commit the
record already shows is acked again with no effect; an abort decision that
overtakes its PREPARE leaves a record in Abort, which drops the late
PREPARE until a restart.  A CoordRec answers a READY it already counted
with the decision, once there is one.  One rule settles a slice the
decision never reached: the GC watermark passed it, so it aborted, as a
commit completes only once every remote owner forced PartCommit.  Its
node applies it at each GC tick as at restart, drops every record the
watermark passed and answers a message naming one as already final.  A
coordinator presumes Abort (as in R*) for a READY naming an own id with
no record only above its watermark: an earlier incarnation's id that never
committed, held up by a recovered commit awaiting an ack.  Below it, the
READY may come from an owner that committed.  No other sender settles a slice.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar

from . import rpc
from .env import NodeEnv
from .gc import GcLog, GcManager
from .locks import LOCK_WAIT, LockTable, RejectReason
from .model import (
    CoordCommit,
    CoordState,
    LogRecord,
    MalformedRecordError,
    PartCommit,
    PartReady,
    PartState,
    ServerId,
    Transaction,
    TranxID,
    coord_transition_legal,
    owner_of,
    part_ready_size,
    part_transition_legal,
)
from .rpc import AbortReason, DedupTable, Envelope, MsgType
from .storage import KvStore, StorageEngine
from .wal import FILE_CAPACITY, MAX_ENTRY, TranxLog


RESEND = 0.200  # repeat PREPARE or a decision an owner has not answered
PREPARE_BUDGET = 8  # PREPARE rounds before the coordinator aborts

# message types that name their transaction in the envelope; with GC_LC
# and READ_NOTICE these are the types only a server sends, and a client
# sends the others
_TRANX_TYPES = frozenset({
    MsgType.PREPARE, MsgType.READY, MsgType.COMMIT_DECISION, MsgType.ABORT_DECISION, MsgType.ACK,
})
_SERVER_TYPES = _TRANX_TYPES | {MsgType.GC_LC, MsgType.READ_NOTICE}
_SENDER_KIND = {t: rpc.SERVER if t in _SERVER_TYPES else rpc.CLIENT for t in MsgType}
_DECISION = {CoordState.COMMIT: MsgType.COMMIT_DECISION, CoordState.ABORT: MsgType.ABORT_DECISION}
# the handler of each message type a server takes (ServerNode._on_read for
# READ, ...; one for both decisions; a server receives no RESPONSE) and the
# crash-point labels, computed once
_HANDLER = {t: f"_on_{t.name.lower()}" for t in MsgType if t is not MsgType.RESPONSE}
_HANDLER.update(dict.fromkeys(_DECISION.values(), "_on_decision"))
_RECV_POINT = {t: f"recv.{t.name}" for t in MsgType}
_SEND_POINT = {t: f"send.{t.name}" for t in MsgType}
_WAL_POINT = {cls: f"wal.{cls.__name__}" for cls in LogRecord.__args__}
_LOCK_REASON = {
    RejectReason.SHARED_DENIED: AbortReason.LOCK_DENIED_READ,
    RejectReason.EXCLUSIVE_DENIED: AbortReason.LOCK_DENIED_WRITE,
    RejectReason.WAIT_TIMEOUT: AbortReason.LOCK_DENIED_WRITE,
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
    client_key: tuple[int, int] | None = None  # (client id, message id)
    retries: int = 0


@dataclass
class PartRec:
    tranx: TranxID
    writes: tuple = ()  # (key, value, post_version) frozen at prepare
    state: PartState = PartState.START
    # the vote sent to a remote coordinator: b"" Ready, else the abort vote;
    # None until voted, and for an own slice, which votes in-process
    vote: bytes | None = None


_UNSEEN = object()  # no entry for the group in ServerNode._groups


@dataclass(slots=True)
class ReadGroup:
    """One owner-validated read round at one of its owners: the notices
    heard so far, owner -> the token of its serving, and what this owner
    served once its READ came."""
    opened: int  # GC ticks done when the group opened
    heard: dict[ServerId, int]
    keys: list[bytes] | None = None  # None until the READ is served
    owners: tuple[ServerId, ...] = ()
    others: tuple[ServerId, ...] = ()  # the owners but this node
    versions: list[int] | None = None
    locked: bool = False
    token: int = 0
    message_id: int = 0


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
        self._members = frozenset(self.members)
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

        self.coord: dict[TranxID, CoordRec] = {}
        self.part: dict[TranxID, PartRec] = {}
        # 2PC coordinator records still waiting for a vote or an ack, and
        # Ready slices of other coordinators' transactions -> when to
        # resend; each entry is due RESEND after it was (re)inserted, so
        # insertion order is due order
        self._resend: dict[TranxID, float] = {}
        self._resend_timer = None  # armed for the head of _resend, if any
        self._next_client = 0
        # client id -> ring position (storage.StorageEngine.recent) of its
        # last answer; the GC tick drops a cursor the ring passed, and that
        # of a client not in _answered, those answered since the last tick
        self._cursors: dict[int, int] = {}
        self._answered: set[int] = set()
        # (client id, group id) -> the group round open here, or None once
        # answered; the GC tick answers and drops a group open at the tick
        # before, and forgets answered ones (see the module docstring)
        self._groups: dict[tuple[int, int], ReadGroup | None] = {}
        self._gc_ticks = 0
        self._serves = 0  # group READs served by this incarnation
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

    def _reply(self, client_id: int, message_id: int, body: bytes) -> None:
        """Answer a client: the entries this node applied since its last
        answer to that client, then the body (see the module docstring)."""
        cursor = self._cursors.get(client_id)
        applied = self.storage.applied
        self._cursors[client_id] = applied
        self._answered.add(client_id)
        updates = self.storage.updates_since(cursor) if cursor != applied else ()
        self._respond(client_id, message_id, rpc.enc_response(updates, body))

    def _respond(self, client_id: int, message_id: int, payload: bytes) -> None:
        self.ctx.reply(client_id, Envelope(MsgType.RESPONSE, rpc.SERVER, self.sid, message_id, None, payload))

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
        return (self.sid << 48) | (self.gclog.epoch << 32) | self._next_client

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
        # the id is not the client's yet: an empty block, and no cursor
        self._respond(env.sender_id, env.message_id, rpc.enc_response((), rpc.enc_u64(self.assign_client_id())))

    def _on_ready(self, env: Envelope) -> None:
        """A vote: Ready if the payload is empty, else Abort."""
        if not env.payload:
            return self._vote(env.tranx, env.sender_id, None, [])
        vote = self._decode(env, rpc.dec_commit_resp)
        if vote is None:
            return
        committed, reason, piggyback = vote
        if committed:  # an abort vote cannot say committed
            self._trace("msg.malformed", type=env.msg_type.name, frm=env.sender_id)
            return
        self._vote(env.tranx, env.sender_id, reason or AbortReason.UNKNOWN, piggyback)

    def _on_decision(self, env: Envelope) -> None:
        """Either decision; only the transaction's coordinator settles a
        slice, and only a commit is acked (presumed abort)."""
        tranx = env.tranx
        if env.sender_id != tranx.coordinator:
            self._trace("msg.malformed", type=env.msg_type.name, frm=env.sender_id)
            return
        if self._handle_decision(tranx, env.msg_type is MsgType.COMMIT_DECISION):
            self._send(tranx.coordinator, self._server_env(MsgType.ACK, tranx, b""))

    def _on_ack(self, env: Envelope) -> None:
        self._handle_ack(env.tranx, env.sender_id)

    def _on_gc_lc(self, env: Envelope) -> None:
        lc_seq = self._decode(env, rpc.dec_u64)
        if lc_seq is not None:
            self.gc.on_lc_broadcast(env.sender_id, lc_seq)

    # -- reads -----------------------------------------------------------------

    def _on_read(self, env: Envelope) -> None:
        # Idempotent, lock-free, never deduplicated.  Every key is read in
        # this one step, so the answer shows them all at one instant.
        req = self._decode(env, rpc.dec_read_req)
        if req is None:
            return
        keys, owners, group = req
        if owners and (self.sid not in owners or not self._members.issuperset(owners)):
            self._trace("msg.malformed", type=env.msg_type.name, frm=env.sender_id)
            return
        self.stats["reads"] += len(keys)
        if not owners or not self._serve_group(env, keys, owners, group):
            self._reply(env.sender_id, env.message_id, self._read_answer(keys))

    def _read_answer(self, keys) -> bytes:
        locked = any(map(self.locks.exclusively_held, keys))
        return rpc.enc_read_resp(list(map(self.storage.get, keys)), locked)

    def _serve_group(self, env: Envelope, keys, owners, group: int) -> bool:
        """Serve the first READ of a group round: note each key's version
        and whether any was locked, then tell every other owner.  Returns
        False, to answer at once and unvalidated, for a READ of a group
        already served or answered here: a resend or a duplicate."""
        gid = (env.sender_id, group)
        groups = self._groups
        g = groups.get(gid, _UNSEEN)
        if g is _UNSEEN:
            opened, heard = self._gc_ticks, {}
        elif g is None or g.keys is not None:
            groups[gid] = None
            return False
        else:  # known from notices
            opened, heard = g.opened, g.heard
        self._serves += 1
        others = tuple(sid for sid in owners if sid != self.sid)
        g = groups[gid] = ReadGroup(
            opened, heard, keys, owners, others,
            list(map(self.storage.current_version, keys)),
            any(map(self.locks.exclusively_held, keys)),
            (self.gclog.epoch << 40) | self._serves,
            env.message_id,
        )
        notice = self._server_env(MsgType.READ_NOTICE, None, rpc.enc_read_notice(*gid, g.token))
        for sid in others:
            self._send(sid, notice)
        if heard:
            self._close_group_if_heard(gid, g)
        return True

    def _on_read_notice(self, env: Envelope) -> None:
        notice = self._decode(env, rpc.dec_read_notice)
        if notice is None:
            return
        client, group, token = notice
        gid = (client, group)
        g = self._groups.get(gid, _UNSEEN)
        if g is None:  # answered: a late notice changes nothing
            return
        if g is _UNSEEN:
            self._groups[gid] = ReadGroup(self._gc_ticks, {env.sender_id: token})
            return
        g.heard[env.sender_id] = token
        if g.keys is not None:
            self._close_group_if_heard(gid, g)

    def _close_group_if_heard(self, gid: tuple[int, int], g: ReadGroup) -> None:
        """Answer a served group once every other owner's notice came.  The
        answer vouches for the round if no key was locked when served or
        is now and every key still has the version served: then each key
        was current at every owner's serving (see client.py)."""
        heard = g.heard
        for sid in g.others:
            if sid not in heard:
                return
        keys = g.keys
        entries = list(map(self.storage.get, keys))
        locked = any(map(self.locks.exclusively_held, keys))
        tokens = ()
        if not (g.locked or locked) and [e[1] if e else 0 for e in entries] == g.versions:
            tokens = [g.token if sid == self.sid else heard[sid] for sid in g.owners]
        self._groups[gid] = None
        self._reply(gid[0], g.message_id, rpc.enc_read_resp(entries, locked, tokens))

    # -- coordinator -------------------------------------------------------------

    def _on_commit(self, env: Envelope) -> None:
        client, mid = env.sender_id, env.message_id
        known = self.dedup.check_client(client, mid)
        if type(known) is bytes:  # decided: the same answer again
            self._reply(client, mid, known)
            return
        if known is not None:  # a TranxID in flight: its decision answers
            return
        txn = self._decode(env, rpc.dec_txn)
        if txn is None or not txn.writes:  # a read-only transaction validates from its client
            self._reply(client, mid, rpc.enc_commit_resp(False, AbortReason.UNKNOWN, []))
            return
        # admission bound: every log record derived from this transaction
        # must fit one WAL entry, or commit would die midway.  The largest is
        # a participant's PartReady, and each owner logs only its own slice
        subs = self._split(txn)
        if max(map(part_ready_size, subs.values())) > MAX_ENTRY:
            payload = rpc.enc_commit_resp(False, AbortReason.LOG_FAILURE, [])
            self.dedup.record_client(client, mid, payload)
            self._reply(client, mid, payload)
            return
        self.coordinate(txn, (client, mid), subs)

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

    def coordinate(self, txn: Transaction, client_key: tuple[int, int] | None, subs=None) -> TranxID:
        """Start a write transaction, whose slices are subs if given, else
        split here; a client's request waits in its dedup window as the new
        TranxID until the decision replaces it."""
        subs = subs or self._split(txn)
        tranx = TranxID(self.sid, self.gc.next_seq())
        rec = CoordRec(tranx, subs, pending_ready=set(subs), pending_ack=set(subs), client_key=client_key)
        if client_key is not None:
            self.dedup.record_client(*client_key, tranx)
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
        """Count a first vote while undecided; a first vote after an early
        abort is absorbed.  A repeated READY gets the decision once there is
        one, or Abort, traced as a decision, for an own id with no record
        above the watermark (presumed abort); nothing else is answered."""
        rec = self.coord.get(tranx)
        if rec is None:
            if reason is None and tranx.coordinator == self.sid and not self.gc.is_final_by_watermark(tranx):
                if self._tracer is not None:
                    self._trace("coord.state", tranx=tranx, frm=None, to=CoordState.ABORT.value)
                self._send(voter, self._server_env(MsgType.ABORT_DECISION, tranx, b""))
            return
        if voter not in rec.pending_ready:
            if reason is None and voter in rec.subs and rec.state in _DECISION:
                self._send(voter, self._server_env(_DECISION[rec.state], tranx, b""))
            return
        rec.pending_ready.discard(voter)
        if rec.state is not CoordState.PREPARE:
            return
        if reason is None:
            if not rec.pending_ready:
                self._decide(rec, CoordState.COMMIT, None, [])
        else:
            # abort fan-out goes out immediately, without waiting for the
            # remaining votes, and skips the voter, whose slice is Abort
            rec.pending_ack.discard(voter)
            self._decide(rec, CoordState.ABORT, reason, piggyback)

    def _decide(self, rec: CoordRec, decision: CoordState, reason, piggyback) -> None:
        commit = decision is CoordState.COMMIT
        if commit:
            # the own slice's PartReady goes out in the CoordCommit flush
            own = rec.subs.get(self.sid)
            if own is not None:
                self._append(PartReady(rec.tranx, own.reads, self.part[rec.tranx].writes), durable=False)
            self._append(CoordCommit(rec.tranx, rec.client_key, tuple(rec.subs)), durable=True)
        self._set_coord_state(rec, decision)
        # the client and the participants hear the decision once it is
        # persisted; the resend timer repeats a commit to owners that do not
        # ack, and no owner acks an abort (presumed abort)
        self._answer_client(rec, reason, piggyback)
        self._send_decision(rec)
        if self.sid in rec.subs:
            self._handle_decision(rec.tranx, commit)
        if commit:  # the own slice acks in-process
            self._handle_ack(rec.tranx, self.sid)
        else:
            rec.pending_ack.clear()
            self._complete(rec)
        if rec.pending_ack:
            self._queue_resend(rec)

    def _send_decision(self, rec: CoordRec) -> None:
        """The decision to every remote owner that has not acked."""
        mt = _DECISION[rec.state]
        for sid in rec.pending_ack:
            if sid != self.sid:
                self._send(sid, self._server_env(mt, rec.tranx, b""))

    def _answer_client(self, rec: CoordRec, reason, piggyback) -> None:
        """The decision's answer replaces the TranxID in the client's window."""
        if rec.client_key is None:
            return
        committed = rec.state is CoordState.COMMIT
        payload = rpc.enc_commit_resp(committed, reason, piggyback)
        self.stats["commits" if committed else "aborts"] += 1
        self.dedup.record_client(*rec.client_key, payload)
        self._reply(*rec.client_key, payload)

    def _handle_ack(self, tranx: TranxID, sender: ServerId) -> None:
        """A commit's ack; the last one outstanding completes the record."""
        rec = self.coord.get(tranx)
        if rec is None or rec.state is CoordState.PREPARE or sender not in rec.pending_ack:
            return
        rec.pending_ack.discard(sender)
        if not rec.pending_ack:
            self._complete(rec)

    def _complete(self, rec: CoordRec) -> None:
        """A decided record waits for no ack: it leaves the resend map, and
        the GC counts it complete."""
        self._resend.pop(rec.tranx, None)
        self.gc.mark_complete(rec.tranx)

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
                self._send(tranx.coordinator, self._server_env(MsgType.READY, tranx, rec.vote))
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
            # only an abort decision settles a slice first, and it cancels
            # the acquire once the slice is Abort
            assert why is RejectReason.ALREADY_ABORTED, (tranx, rec, why)
            assert rec is not None and rec.state is PartState.ABORT, (tranx, rec)
            return
        reason, out = self._check_locked(tranx, sub, granted, why)
        if reason is not None:  # an abort vote logs nothing (presumed abort)
            self._set_part_state(rec, PartState.ABORT)
            self._cast_vote(rec, reason, out)
            return
        rec.writes = out
        remote = tranx.coordinator != self.sid
        if remote:  # an own slice's PartReady waits for the commit (_decide)
            self._append(PartReady(tranx, sub.reads, out), durable=True)
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
        rec.vote = b"" if reason is None else rpc.enc_commit_resp(False, reason, piggyback)
        self._send(rec.tranx.coordinator, self._server_env(MsgType.READY, rec.tranx, rec.vote))

    def _handle_decision(self, tranx: TranxID, commit: bool) -> bool:
        """Apply a commit or abort decision; returns whether the sender is
        owed an ack, which only a commit is, and not for a transaction this
        node holds no Ready slice of: that is traced and changes nothing,
        and an ack would claim a commit this node never applied.  A commit
        already applied, or passed by the watermark with no record left,
        acks again with no side effect.  The coordinator's own slice logs
        nothing here: CoordCommit, or its absence, is its decision record."""
        rec = self.part.get(tranx)
        if rec is None and self.gc.is_final_by_watermark(tranx):
            return commit
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
                self._resend.pop(tranx, None)
            if rec is None:  # the abort overtook its PREPARE: the record drops it
                self.part[tranx] = PartRec(tranx, state=PartState.ABORT)
            else:
                self._set_part_state(rec, PartState.ABORT)
            self.locks.record_abort(tranx)
        return commit

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
        voted, or aborts with TIMEOUT after PREPARE_BUDGET rounds; a
        committed one repeats its decision to the owners that have not
        acked.  A Ready slice of another coordinator's transaction repeats
        its READY vote; its decision takes it out of the map.  The benchmark's tracer wraps
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
        self._send(rec.tranx.coordinator, self._server_env(MsgType.READY, rec.tranx, b""))
        self._queue_resend(rec)

    # -- garbage collection ---------------------------------------------------------------

    def _gc_tick(self) -> None:
        lc_seq = self.gc.tick()
        for sid in self.peers:  # fire-and-forget
            self._send(sid, self._server_env(MsgType.GC_LC, None, rpc.enc_u64(lc_seq)))
        self._reclaim_records()
        # a passed or dropped cursor gets the whole ring, as no cursor does
        start = self.storage.applied - len(self.storage.recent)
        answered = self._answered
        self._cursors = {c: pos for c, pos in self._cursors.items() if pos > start and c in answered}
        answered.clear()
        self._expire_groups()
        self.ctx.set_timer(self.config.gc_period, self._gc_tick)

    def _expire_groups(self) -> None:
        """Forget every answered group, and expire every group that was
        already open at the previous tick: a served one is answered,
        unvalidated, and remembered as answered until the next tick; one
        known only from notices is dropped."""
        ticks = self._gc_ticks
        self._gc_ticks += 1
        kept: dict[tuple[int, int], ReadGroup | None] = {}
        for gid, g in self._groups.items():
            if g is None:
                continue
            if g.opened == ticks:
                kept[gid] = g
            elif g.keys is not None:
                self._reply(gid[0], g.message_id, self._read_answer(g.keys))
                kept[gid] = None
        self._groups = kept

    def _reclaim_records(self) -> None:
        """Drop every record the watermark passed, settling a slice still
        Start or Ready as aborted first (see gc.py).  A coordinator record
        waiting for an ack is never passed: the watermark sits below it."""
        passed = self.gc.is_final_by_watermark
        self.coord = {t: r for t, r in self.coord.items() if not passed(t)}
        for t, r in self.part.items():
            if r.state in (PartState.START, PartState.READY) and passed(t):
                self._handle_decision(t, False)
        self.part = {t: r for t, r in self.part.items() if not passed(t)}

    # -- recovery ---------------------------------------------------------------------------

    def recover_local(self) -> None:
        """Take a new restart epoch from the GC, then fold the WAL into
        volatile state."""
        self.gc.restart()
        # each slice's latest PartReady, in log order, and its commit record
        # if logged: CoordCommit for an own slice, PartCommit for a remote one
        part_ready: dict[TranxID, PartReady] = {}
        committed: dict[TranxID, CoordCommit | PartCommit] = {}
        for recd in self.tranxlog.scan():
            if isinstance(recd, PartReady):
                part_ready.pop(recd.tranx, None)
                part_ready[recd.tranx] = recd
            else:
                committed[recd.tranx] = recd

        # participant side, newest PartReady first: replay committed slices,
        # re-lock in-doubt ones the watermark has not passed (see gc.py);
        # keep no aborted one, such as a slice the lock table refuses or
        # makes wait for a later one (see the module docstring)
        for t, ready in reversed(part_ready.items()):
            if t in committed:
                self.part[t] = PartRec(t, ready.writes, PartState.COMMIT, vote=b"")
                self.storage.apply_writes(list(ready.writes), replay=True)
            elif t.coordinator != self.sid and not self.gc.is_final_by_watermark(t):
                result: list = []
                self._lock_slice(t, ready.reads, ready.writes, lambda ok, why: result.append(ok))
                if result == [True]:
                    self.part[t] = PartRec(t, ready.writes, PartState.READY, vote=b"")
                else:  # a later slice locked it out, so it aborted
                    self.locks.release_all(t)

        # coordinator side: a commit some remote owner may not have acked is
        # pending, and recover_global resends it; anything else is complete.
        # The client-request dedup window is rebuilt for every commit, so a
        # resent commit request gets the original answer instead of being
        # re-executed as a fresh transaction; an aborted one runs again
        base_lc = self.gc.table.get(self.sid, 0)
        for t, recd in sorted(committed.items()):
            if t.coordinator != self.sid:  # a PartCommit
                continue
            if recd.client is not None:
                self.dedup.record_client(*recd.client, rpc.enc_commit_resp(True, None, []))
            if t.seq <= base_lc:
                continue
            remote = {sid for sid in recd.participants if sid != self.sid}
            if remote:
                participants = dict.fromkeys(recd.participants)
                self.coord[t] = CoordRec(t, participants, CoordState.COMMIT, pending_ack=remote)
                self.gc.hold(t.seq)

        self.gc.table[self.sid] = self.gc.lc
        in_doubt = sum(r.state is PartState.READY for r in self.part.values())
        self._trace("recovered", coord=len(self.coord), in_doubt_part=in_doubt)

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
            "in_flight_coord": sum(1 for r in self.coord.values() if r.pending_ack),
            "recent_keys": len(self.storage.recent),
            "client_cursors": len(self._cursors),
            "read_groups": len(self._groups),
            "coord_records": len(self.coord),
            "part_records": len(self.part),
            "dedup_clients": self.dedup.clients(),
            "lock_entries": self.locks.entries(),
        }

    def shutdown(self) -> None:
        self.tranxlog.close()
        self.gclog.close()
        self.storage.store.close()
