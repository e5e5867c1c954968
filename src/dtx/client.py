"""Client library: transaction buffer, cache, coordinator choice, retries.

The protocol logic lives in generator functions that yield effects:

    ("rpc", dest_server, envelope)  -> driver sends with retries, resumes the
                                       generator with the response payload
                                       bytes (or None after budget exhaustion)
    ("sleep", seconds)              -> driver resumes after the delay

so exactly the same code runs under the deterministic simulator (virtual
clock, single thread) and the blocking socket client.

A transaction that wrote nothing is committed the same way; the server
validates its reads without locks, a log record or a transaction id, and
aborts it with a stale read or a denied read lock as below.

Retry policy on a failed commit: a stale read or a denied read lock means a
concurrent writer got there first, so the transaction is rebuilt immediately
from fresh reads (retrying the old versions would fail again); a denied
write lock is retried with the same reads after exponential backoff with
jitter.  Failure responses piggyback current values for the keys that
failed validation and those refresh the cache before the rebuild.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import rpc
from .model import Transaction
from .rpc import AbortReason, Envelope, MsgType
from .server import owner_of
from .storage import ServerCache

BACKOFF_BASE = 0.005
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 0.320
BACKOFF_JITTER = 0.2


class ReadUnavailableError(Exception):
    """A read RPC exhausted its retry budget."""


@dataclass
class TxnHandle:
    reads: dict[bytes, tuple[bytes | None, int]] = field(default_factory=dict)
    writes: dict[bytes, bytes] = field(default_factory=dict)
    status: str = "Open"
    attempts: int = 0
    last_mid: int | None = None  # message id of the latest commit attempt


@dataclass
class ClientState:
    client_id: int
    members: list[int]
    rng: random.Random
    cache_capacity: int = 256
    max_retries: int = 12
    cache: ServerCache = None
    next_msg_id: int = 0
    stats: dict = field(default_factory=lambda: {"rpcs": 0, "commits": 0, "aborts": 0, "cache_hits": 0})

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = ServerCache(self.cache_capacity)

    def _mid(self) -> int:
        self.next_msg_id += 1
        return self.next_msg_id

    def env(self, msg_type: MsgType, payload: bytes) -> Envelope:
        return Envelope(msg_type, rpc.CLIENT, self.client_id, self._mid(), None, payload)


def coordinator_for(keys, members) -> int:
    """Plurality owner of the key set; ties go to the lowest server id."""
    if not keys:
        raise ValueError("empty key set")
    counts: dict[int, int] = {}
    for k in keys:
        sid = owner_of(k, members)
        counts[sid] = counts.get(sid, 0) + 1
    best = max(counts.values())
    return min(sid for sid, c in counts.items() if c == best)


def _remote_read(cs: ClientState, key: bytes):
    env = cs.env(MsgType.READ, rpc.enc_read_req(key))
    cs.stats["rpcs"] += 1
    resp = yield ("rpc", owner_of(key, cs.members), env)
    if resp is None:
        raise ReadUnavailableError(key)
    entry = rpc.dec_read_resp(resp)
    if entry is not None:
        cs.cache.put(key, entry[0], entry[1])
        return entry
    return (None, 0)  # missing key reads as version 0; validated like any other


def txn_read(cs: ClientState, h: TxnHandle, key: bytes):
    """Read with lookup order: own writes, own reads, cache, remote."""
    assert h.status == "Open"
    if key in h.writes:
        return h.writes[key]
    if key in h.reads:
        return h.reads[key][0]
    cached = cs.cache.get(key)
    if cached is not None:
        cs.stats["cache_hits"] += 1
        h.reads[key] = cached
        return cached[0]
    value, version = yield from _remote_read(cs, key)
    h.reads[key] = (value, version)
    return value


def txn_write(h: TxnHandle, key: bytes, value: bytes) -> None:
    assert h.status == "Open"
    h.writes[key] = value


def txn_commit(cs: ClientState, h: TxnHandle):
    """Drive the commit with the retry policy; returns (committed, reason)."""
    assert h.status == "Open"
    h.status = "Committing"
    reason: AbortReason | None = None
    backoff_step = 0
    for attempt in range(cs.max_retries):
        h.attempts = attempt + 1
        txn = Transaction(
            tuple((k, ver) for k, (_, ver) in sorted(h.reads.items())),
            tuple(sorted(h.writes.items())),
        )
        coordinator = coordinator_for(txn.keys, cs.members)
        env = cs.env(MsgType.COMMIT, rpc.enc_txn(txn))
        h.last_mid = env.message_id
        cs.stats["rpcs"] += 1
        resp = yield ("rpc", coordinator, env)
        if resp is None:
            # silence is safe: an in-doubt transaction is aborted by recovery
            h.status = "Done"
            cs.stats["aborts"] += 1
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
            cs.stats["commits"] += 1
            return True, None
        cs.cache.invalidate(txn.keys)
        for k, v, ver in piggyback:
            cs.cache.put(k, v, ver)
        if reason in (AbortReason.STALE_READ, AbortReason.LOCK_DENIED_READ,
                      AbortReason.ALREADY_ABORTED):
            # immediate restart from fresh reads
            refreshed = {k: (v, ver) for k, v, ver in piggyback}
            new_reads: dict[bytes, tuple[bytes | None, int]] = {}
            for k in h.reads:
                if k in refreshed:
                    new_reads[k] = refreshed[k]
                else:
                    new_reads[k] = (yield from _remote_read(cs, k))
            h.reads = new_reads
        elif reason == AbortReason.LOCK_DENIED_WRITE:
            if attempt + 1 >= cs.max_retries:
                break  # out of attempts: no point sleeping before giving up
            delay = min(BACKOFF_BASE * (BACKOFF_FACTOR ** backoff_step), BACKOFF_CAP)
            delay *= 1.0 + cs.rng.uniform(-BACKOFF_JITTER, BACKOFF_JITTER)
            backoff_step += 1
            yield ("sleep", delay)
        else:
            break  # timeout / log failure: surface to the caller
    h.status = "Done"
    cs.stats["aborts"] += 1
    return False, reason


class BlockingClient:
    """Synchronous wrapper used by the benchmark driver and socket transport.

    The driver object must expose request(dest, env, ...) -> payload | None
    and sleep(seconds).
    """

    def __init__(self, driver, state: ClientState) -> None:
        self.driver = driver
        self.state = state

    def _run(self, gen):
        try:
            effect = next(gen)
            while True:
                if effect[0] == "rpc":
                    result = self.driver.request(effect[1], effect[2])
                elif effect[0] == "sleep":
                    self.driver.sleep(effect[1])
                    result = None
                else:
                    raise RuntimeError(f"unknown effect {effect[0]}")
                effect = gen.send(result)
        except StopIteration as stop:
            return stop.value

    def open_txn(self) -> TxnHandle:
        return TxnHandle()

    def read(self, h: TxnHandle, key: bytes):
        return self._run(txn_read(self.state, h, key))

    def write(self, h: TxnHandle, key: bytes, value: bytes) -> None:
        txn_write(h, key, value)

    def commit(self, h: TxnHandle):
        return self._run(txn_commit(self.state, h))

    def stats(self) -> dict:
        return dict(self.state.stats)
