"""Client library: transaction buffer, cache, coordinator choice, retries.

The protocol logic lives in generator functions that yield effects:

    ("rpcs", [(dest, envelope)...]) -> driver sends every request, with
                                       retries, before waiting on any;
                                       resumes the generator with the list
                                       of answer payloads, in request order,
                                       None where one stayed silent through
                                       its retry budget
    ("sleep", seconds)              -> driver resumes after the delay

and one interpreter, RequestCore, runs them over either transport: the
deterministic simulator (virtual clock, event heap) and the socket client
(a private event loop turned by the caller's thread).  Each request waits
RPC_TIMEOUT for its answer and is sent at most RPC_TRIES times; an answer
to a request already answered or given up is dropped.

A transaction reads in rounds.  txn_read_many serves what it can from the
transaction's own writes and reads and from the cache, and sends the misses
in one round: one READ per owner, carrying every missed key of that owner,
all sent before any answer is awaited.  An owner serves all the keys of a
READ within one step of its protocol loop and answers whether any of them
was exclusively locked.  txn_read is the one-key case.

A handle declared read-only (TxnHandle(read_only=True)) reads in group
rounds: when a round goes to two or more owners, each of its READs also
names the round's owners and its id, the first READ's message id.  Each
owner serves its keys in one step, as above, noting each key's version and
whether any was locked, then sends every other owner of the round a
READ_NOTICE that names the round and that serving.  It answers once it
has served and heard every other owner's notice.  The answer vouches for
the round if no key was locked when served or is now and each key still
has the version served; it then lists the servings it stands on, its own
and the one each notice named.  One that does not vouch is a READ answer
of the keys as they are when it is sent.  A READ of a group its owner
already served or answered, a resend or a duplicate, is answered at once
without a vouch, and so is a group still open at the second GC tick after
it opened (server.py): a lost notice or a silent owner costs one resend
and leaves the commit to the validation round below.

A transaction that wrote nothing commits without a coordinator: it is
validated by a read round over its read keys, the one READ shape above,
and no owner keeps any state for it.  The client compares each answer's
entries with the versions it read, a missing key being version 0.  An
owner fails the round with LOCK_DENIED_READ if any of its keys was
exclusively locked, else with STALE_READ and the current entry of each
key whose version moved, in the order of its keys; an owner that stayed
silent fails it with TIMEOUT.  A validation answer enters neither the
cache nor the transaction's reads.  Keys some owner has vouched for are
left out, while the client has sent no other RPC, and taken no read from
the cache, since that owner answered: the keys of the transaction's
latest read round when a single owner served that round and said none of
its keys was locked, or when every owner of a group round vouched for the
same servings, and, after a failed validation round in which only one
owner failed and it failed STALE_READ, every key that owner was asked
for.  If nothing is left, the commit sends nothing.  The reason of a
failure is that of the lowest-id owner that failed, and all piggybacked
entries are merged.  Why leaving out the vouched keys is safe:

* The common instant.  Every read finishes before any validation starts.
  Call t the instant the owner served the READ, of a read round or of
  the failed validation round; it served it in one step, so t is one
  instant for all the keys of its answer.  The answer vouches for those
  keys at t: it holds each key's current entry, so when it failed
  STALE_READ, none of its keys was exclusively locked, the keys it did
  not report were current, and the entries it reported, which replace
  the stale reads, are current.  Every other entry was obtained before t:
  by an earlier read round, or from the cache, which only answers to the
  client's RPCs fill, their updates blocks included (below): a block is
  applied with the answer it came on, only if that answer is accepted,
  and its entries were current when that answer was built.  The client
  sent no RPC after that answer, so every such answer came before it.
  (Handles of one client share its cache: an answer to another handle's
  later READ may be newer than t, which is why any later RPC cancels the
  rule.)
* Each read is current at t.  Each validated key is unchanged and unlocked
  at an instant >= t.  Versions only grow, so every read is current at t;
  for the same reason a stale key always has an entry to piggyback.
  (A version the client's own 2PC commit cached may land at a remote owner
  after t; that commit was decided before t and locks the key until it
  lands, so it still orders before t.)
* No fractured read.  The left-out keys were unlocked at t.  A 2PC writer
  holds its exclusive locks from prepare until it applies, so no 2PC write
  can be half-applied across the keys read: a writer applied at one owner
  and still prepared at another has that second key locked, which the READ
  reports.
* One owner only, unless the owners confirm to each other.  Two owners
  that answer in one round, a read round or a failed validation round,
  vouch for two different instants, and nothing orders them: a writer of
  x and y may commit between the instant x's owner served x and the
  instant y's owner served y, so the round holds the old x and the new y,
  and neither key is locked at either instant.  Skipping the slice of the
  owner that answered for the earlier instant would commit that fractured
  view, and the client cannot tell which one that was, so after a plain
  read round that went to two or more owners, or a validation round in
  which two owners failed, for any reason, every slice is validated.
* Owner-validated rounds.  In a group round every owner checks its keys
  again after the others served, which is Kung & Robinson's validation
  (TODS 1981) moved to the owners, with the hop of the validation round
  saved by the owners telling each other, as decentralized commit does
  (Skeen, SIGMOD 1981).  Let t be the latest of the round's servings.
  Each notice leaves after its sender served and each owner validates
  after it heard every other owner's notice, so every serving precedes t
  and t precedes every validation.  A vouching owner saw each key at its
  served version at serving and at validation, so, versions only growing,
  each key read in the round is current at t.  No writer is half-applied
  at t: one applied at an owner before t was decided before t, so each
  other owner of its keys was prepared, holding their exclusive locks,
  and still holds them at its validation or has applied, changing their
  versions, and either stops that owner's vouch.  Every other read was
  obtained before the round and is validated after it, so it too is
  current at t, as for one owner.  The servings the answers list tie each
  vouch to the serving whose entries the client holds: an owner that
  restarted, or forgot the group and served a duplicate READ anew, lists
  a serving other than the one its peer heard of, so the lists differ
  and the client validates.  An answer's updates block is built when its
  owner validates, after t, which is why a read taken from the cache after
  a vouched round cancels the rule.

Every answer starts with an updates block (see server.py): the current
entry of each key its server applied since its last answer to this client.
RequestCore strips it from an answer it accepts and refreshes the cache
before the body resumes the generator; a late or duplicate answer, or one
whose block does not decode, changes nothing.  A refresh replaces only an
entry the cache holds, and only by a newer version, so the cache stays a
hint that every commit validates.  A block never enters a transaction's
reads: they stay the values the application saw, and a write computed from
them is validated against them.

Retry policy on a failed commit: a stale read means a concurrent writer got
there first, and the failure answer piggybacks the current entry of each
stale key.  Those entries replace the stale reads in the transaction and
the cache, every other read and cache entry stands (the next validation
rechecks them), and the transaction is resubmitted at once with no READ.
A read key found locked at validation (LOCK_DENIED_READ) drops the
transaction's keys from the cache and rebuilds the reads in one round; a
denied write lock is retried with the same reads after exponential
backoff with jitter.  A transaction that writes and fails LOCK_DENIED_READ
for the second time also backs off after the rebuild: two writers that
each lock a key the other only reads find it locked when their
coordinators validate (server.py), and, when their rebuilds take equally
long, retry in step and do so again until both run out of attempts; a
read-only transaction holds no lock and retries at once.  Nothing is
rebuilt or slept on after the last attempt.  A write transaction's COMMIT
goes to the plurality owner of its written keys, so its coordinator writes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from . import rpc
from .model import MalformedRecordError, Transaction, owner_of
from .rpc import AbortReason, Envelope, MsgType
from .storage import ServerCache

BACKOFF_BASE = 0.005
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 0.320
BACKOFF_JITTER = 0.2

RPC_TIMEOUT = 0.050  # seconds a request waits for its answer before a resend
RPC_TRIES = 40  # sends of one request before the caller gets None

_new_tuple = tuple.__new__  # builds an Envelope without its keyword-taking __new__
_READ = MsgType.READ  # reading an enum member off its class costs a descriptor call


class ReadUnavailableError(Exception):
    """A read RPC exhausted its retry budget."""


@dataclass(slots=True)
class TxnHandle:
    reads: dict[bytes, tuple[bytes | None, int]] = field(default_factory=dict)
    writes: dict[bytes, bytes] = field(default_factory=dict)
    status: str = "Open"
    attempts: int = 0
    # (message id, keys) of the latest answer that vouched for keys: a read
    # round served by one owner that said no key was locked, or the single
    # STALE_READ of a failed validation round; a read-only commit sent
    # right after it need not validate those keys (see the module docstring)
    fresh: tuple[int, frozenset[bytes]] | None = None
    # declared to write nothing: its read rounds over two or more owners
    # are group rounds, which its owners validate (module docstring)
    read_only: bool = False


@dataclass
class ClientState:
    client_id: int
    members: list[int]
    rng: random.Random
    cache_capacity: int = 256
    max_retries: int = 12
    cache: ServerCache = None
    next_msg_id: int = 0
    stats: dict = field(default_factory=lambda: {"rpcs": 0})

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = ServerCache(self.cache_capacity)

    def env(self, msg_type: MsgType, payload: bytes) -> Envelope:
        """A request of this client, under the next message id."""
        self.next_msg_id += 1
        return _new_tuple(Envelope, (msg_type, rpc.CLIENT, self.client_id, self.next_msg_id, None, payload))


def coordinator_for(keys, members) -> int:
    """Plurality owner of the key set, a commit's written keys; ties go to
    the lowest server id."""
    if not keys:
        raise ValueError("empty key set")
    counts: dict[int, int] = {}
    for k in keys:
        sid = owner_of(k, members)
        counts[sid] = counts.get(sid, 0) + 1
    best = max(counts.values())
    return min(sid for sid, c in counts.items() if c == best)


def _read_round(cs: ClientState, keys, group: bool = False):
    """One READ per owner of `keys`, carrying every key of that owner, to be
    sent in one "rpcs" effect; with `group`, a round of two or more owners
    is a group round, whose READs name its owners and, as its id, the first
    READ's message id.  Returns the requests and [(owner, its keys)], both
    in owner-id order; the effect's answers come in that order too."""
    members = cs.members
    by_owner: dict[int, list[bytes]] = {}
    for k in keys:
        sid = owner_of(k, members)
        ks = by_owner.get(sid)
        if ks is None:
            by_owner[sid] = [k]
        else:
            ks.append(k)
    slices = sorted(by_owner.items())
    owners = tuple(sid for sid, _ in slices) if group and len(slices) > 1 else ()
    gid = cs.next_msg_id + 1  # the message id the first READ takes
    requests = [(sid, cs.env(_READ, rpc.enc_read_req(ks, owners, gid))) for sid, ks in slices]
    cs.stats["rpcs"] += len(requests)
    return requests, slices


def _remote_reads(cs: ClientState, h: TxnHandle, keys: list[bytes]):
    """One read round into the handle's read set and the cache, a group
    round if the handle is read-only.  Leaves in h.fresh the round's keys
    if one owner served them all and said none was locked, or if every
    owner vouched for the same servings (see the module docstring)."""
    requests, slices = _read_round(cs, keys, h.read_only)
    answers = yield ("rpcs", requests)
    if None in answers:
        sid, ks = slices[answers.index(None)]
        raise ReadUnavailableError(sid, ks)
    put, reads = cs.cache.put, h.reads
    vouched = set()
    for (_, ks), answer in zip(slices, answers):
        entries, locked, tokens = rpc.dec_read_resp(answer)
        vouched.add(tokens)
        for k, entry in zip(ks, entries):
            if entry is not None:
                put(k, entry[0], entry[1])
            else:
                entry = (None, 0)  # missing key reads as version 0; validated like any other
            reads[k] = entry
    one_owner = len(answers) == 1 and not locked
    group_vouched = len(vouched) == 1 and () not in vouched
    # the last READ's message id: a later RPC of this client cancels the vouch
    h.fresh = (requests[-1][1].message_id, frozenset(keys)) if one_owner or group_vouched else None


def txn_read_many(cs: ClientState, h: TxnHandle, keys):
    """Read `keys` with lookup order own writes, own reads, cache, remote;
    the remote reads take one round.  Returns the values in key order."""
    assert h.status == "Open"
    writes, reads = h.writes, h.reads
    misses: dict[bytes, None] = {}
    for k in keys:
        if k in writes or k in reads or k in misses:
            continue
        cached = cs.cache.get(k)
        if cached is not None:
            reads[k] = cached
            h.fresh = None  # it may be newer than the vouching answers
        else:
            misses[k] = None
    if misses:
        yield from _remote_reads(cs, h, list(misses))
    return [writes[k] if k in writes else reads[k][0] for k in keys]


def txn_read(cs: ClientState, h: TxnHandle, key: bytes):
    """txn_read_many of one key; returns its value."""
    return (yield from txn_read_many(cs, h, (key,)))[0]


def txn_write(h: TxnHandle, key: bytes, value: bytes) -> None:
    assert h.status == "Open"
    if h.read_only:
        raise ValueError("a read-only transaction cannot write")
    h.writes[key] = value


def txn_commit(cs: ClientState, h: TxnHandle):
    """Drive the commit with the retry policy; returns (committed, reason)."""
    assert h.status == "Open"
    h.status = "Committing"
    reason: AbortReason | None = None
    backoff_step = 0
    read_denials = 0
    for attempt in range(cs.max_retries):
        h.attempts = attempt + 1
        if not h.writes:  # validated by a read round, or by nothing if vouched for
            committed, reason, piggyback = yield from _validate(cs, h)
        else:
            txn = Transaction(
                tuple((k, ver) for k, (_, ver) in sorted(h.reads.items())),
                tuple(sorted(h.writes.items())),
            )
            coordinator = coordinator_for([k for k, _ in txn.writes], cs.members)
            env = cs.env(MsgType.COMMIT, rpc.enc_txn(txn))
            cs.stats["rpcs"] += 1
            (resp,) = yield ("rpcs", [(coordinator, env)])
            if resp is None:
                # silence is safe: an in-doubt transaction is aborted by recovery
                h.status = "Done"
                return False, AbortReason.UNKNOWN
            committed, reason, piggyback = rpc.dec_commit_resp(resp)
        if committed:
            # Validation guarantees each read key's stored version equalled
            # the observed one at prepare, so a read-then-written key landed
            # at exactly observed+1; blind writes have an unknown post-version.
            for k, v in h.writes.items():
                if k in h.reads:
                    cs.cache.put(k, v, h.reads[k][1] + 1)
                else:
                    cs.cache.invalidate([k])
            h.status = "Done"
            return True, None
        refreshed = {k: (v, ver) for k, v, ver in piggyback}
        if reason != AbortReason.STALE_READ:
            cs.cache.invalidate([*h.reads, *h.writes])
        for k, (v, ver) in refreshed.items():
            cs.cache.put(k, v, ver)
        if attempt + 1 >= cs.max_retries:
            break  # out of attempts: nothing to rebuild or wait for
        if reason == AbortReason.STALE_READ:
            # the stale keys came with the answer; the other reads stand
            h.reads.update(refreshed)
        elif reason == AbortReason.LOCK_DENIED_READ:
            # restart from fresh reads, all in one round
            read_denials += 1
            again = []
            for k in h.reads:
                if k in refreshed:
                    h.reads[k] = refreshed[k]
                else:
                    again.append(k)
            if again:
                yield from _remote_reads(cs, h, again)
        elif reason != AbortReason.LOCK_DENIED_WRITE:
            break  # timeout / log failure: surface to the caller
        # two writers that each lock a key the other reads deny each other
        # and retry in step, so a writer that finds a read key locked again backs off
        if reason == AbortReason.LOCK_DENIED_WRITE or (
            reason == AbortReason.LOCK_DENIED_READ and h.writes and read_denials > 1
        ):
            delay = min(BACKOFF_BASE * (BACKOFF_FACTOR ** backoff_step), BACKOFF_CAP)
            delay *= 1.0 + cs.rng.uniform(-BACKOFF_JITTER, BACKOFF_JITTER)
            backoff_step += 1
            yield ("sleep", delay)
    h.status = "Done"
    return False, reason


def _validate(cs: ClientState, h: TxnHandle):
    """Check a read-only transaction's reads, in key order, with one read
    round, which leaves out the keys an answer vouched for and is not sent
    if that leaves none; returns (committed, reason, piggyback) like a
    COMMIT answer, and leaves in h.fresh the keys of the one owner that
    failed STALE_READ, if only one owner failed.  The answers touch neither
    the cache nor h.reads."""
    # a later RPC of this client, for any handle, may have cached an entry
    # newer than the answer that vouched for the fresh keys
    skip = h.fresh[1] if h.fresh and h.fresh[0] == cs.next_msg_id else frozenset()
    reads = h.reads
    seen = {k: reads[k][1] for k in sorted(reads) if k not in skip}
    if not seen:
        return True, None, []
    requests, slices = _read_round(cs, seen)
    answers = yield ("rpcs", requests)
    verdicts: list = []
    failed: list[list[bytes]] = []
    for (_, ks), answer in zip(slices, answers):  # in owner-id order
        if answer is None:
            verdict = AbortReason.TIMEOUT, []
        else:
            entries, locked, _ = rpc.dec_read_resp(answer)
            verdict = rpc.read_verdict([(k, seen[k]) for k in ks], entries, locked)
        if verdict[0] is not None:
            failed.append(ks)
        verdicts.append(verdict)
    reason, piggyback = rpc.fold_verdicts(verdicts)
    h.fresh = None
    if len(failed) == 1 and reason == AbortReason.STALE_READ:
        # the one failed owner vouches for all of its keys (module docstring)
        h.fresh = (cs.next_msg_id, frozenset(failed[0]))
    return reason is None, reason, piggyback


class RequestCore:
    """One client's interpreter of the effects: requests, resends, stepping.

    It is bound to three callables: now() reads the clock, send(dest, env)
    hands an envelope to the transport and arm(at, fn) runs fn at time at;
    the transport hands each answer to on_reply.  Unanswered requests wait in
    a map ordered by insertion, which is due order, as each is due `timeout`
    after its send, so one timer armed for the head serves them all.  The
    updates block of an accepted answer refreshes `cache`, the client's
    ServerCache once its owner sets it, before the answer's body resumes
    the waiting generator.
    """

    def __init__(self, now, send, arm, timeout: float = RPC_TIMEOUT, tries: int = RPC_TRIES) -> None:
        self.now, self.send, self.arm = now, send, arm
        self.timeout, self.tries = timeout, tries
        self.cache: ServerCache | None = None
        # message_id -> (due, dest, env, join, slot, tries_left): the request
        # fills slot of its effect's _Join
        self._waiters: dict[int, tuple] = {}
        self._armed = False  # a timer is armed for the head of _waiters

    def on_reply(self, env: Envelope) -> None:
        mid = env.message_id
        waiter = self._waiters.get(mid)
        if waiter is None:  # a late answer to a request answered or given up
            return
        try:
            updates, body = rpc.dec_response(env.payload)
        except MalformedRecordError:  # dropped: the request is resent when due
            return
        del self._waiters[mid]
        if updates and self.cache is not None:
            refresh = self.cache.refresh
            for k, v, ver in updates:
                refresh(k, v, ver)
        waiter[3].answer(waiter[4], body)

    def _request(self, dest: int, env: Envelope, join: "_Join", slot: int, tries_left: int) -> None:
        due = self.now() + self.timeout
        self._waiters[env.message_id] = (due, dest, env, join, slot, tries_left)
        if not self._armed:
            self._armed = True
            self.arm(due, self._expire)
        self.send(dest, env)

    def _expire(self) -> None:
        """Resend, or give up, every request now due; then re-arm for the
        head.  _armed stays set meanwhile, so the resends arm no timer."""
        now = self.now()
        waiters = self._waiters
        while waiters:
            mid = next(iter(waiters))
            due, dest, env, join, slot, tries_left = waiters[mid]
            if due > now:
                self.arm(due, self._expire)
                return
            del waiters[mid]
            if tries_left <= 1:
                join.answer(slot, None)
            else:
                self._request(dest, env, join, slot, tries_left - 1)
        self._armed = False

    def _request_all(self, requests, cont) -> None:
        """Issue every request at once; cont gets the payloads, in request
        order, once each has been answered or given up."""
        join = _Join(len(requests), cont)
        tries = self.tries
        for slot, (dest, env) in enumerate(requests):
            self._request(dest, env, join, slot, tries)

    def run(self, gen, on_done) -> None:
        """Drive a client generator; on_done gets ("ok", value) or ("error", e)."""
        self._step(gen, on_done)

    def _step(self, gen, on_done, value=None) -> None:
        try:
            effect = gen.send(value)  # a fresh generator takes None as its first step
        except StopIteration as stop:
            on_done(("ok", stop.value))
            return
        except Exception as exc:  # e.g. ReadUnavailableError during an outage
            on_done(("error", exc))
            return
        if effect[0] == "rpcs":
            self._request_all(effect[1], partial(self._step, gen, on_done))
        elif effect[0] == "sleep":
            self.arm(self.now() + effect[1], partial(self._step, gen, on_done))
        else:
            on_done(("error", RuntimeError(f"unknown effect {effect[0]!r}")))


class _Join:
    """The answers to one "rpcs" effect: a slot per request, in request
    order, each filled once, by its answer or by None when it was given up;
    the last one filled hands them all to cont."""

    __slots__ = ("payloads", "waiting", "cont")

    def __init__(self, n: int, cont) -> None:
        self.payloads: list = [None] * n
        self.waiting = n
        self.cont = cont

    def answer(self, slot: int, payload) -> None:
        self.payloads[slot] = payload
        self.waiting -= 1
        if not self.waiting:
            self.cont(self.payloads)


class BlockingClient:
    """Synchronous client API for the socket runtime.  The driver is a
    RequestCore whose turn() runs its transport once: it waits for a socket
    or a due timer and runs what is ready.  Each call runs one generator on
    the driver and turns it until the generator returns."""

    def __init__(self, driver, state: ClientState) -> None:
        self.driver = driver
        self.state = state

    def _run(self, gen):
        done: list = []
        self.driver.run(gen, done.append)
        while not done:
            self.driver.turn()
        kind, value = done[0]
        if kind == "error":
            raise value
        return value

    def open_txn(self, read_only: bool = False) -> TxnHandle:
        return TxnHandle(read_only=read_only)

    def read(self, h: TxnHandle, key: bytes):
        return self._run(txn_read(self.state, h, key))

    def read_many(self, h: TxnHandle, keys) -> list:
        return self._run(txn_read_many(self.state, h, keys))

    def write(self, h: TxnHandle, key: bytes, value: bytes) -> None:
        txn_write(h, key, value)

    def commit(self, h: TxnHandle):
        return self._run(txn_commit(self.state, h))
