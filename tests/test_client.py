"""Client library: read lookup order, retry policy, backoff, cache updates."""

import copy
import random

import pytest

from dtx import rpc
from dtx.client import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    BACKOFF_JITTER,
    ClientState,
    ReadUnavailableError,
    TxnHandle,
    coordinator_for,
    txn_commit,
    txn_read,
    txn_read_many,
    txn_write,
)
from dtx.rpc import AbortReason, MsgType
from dtx.server import owner_of

MEMBERS = [0, 1, 2]


def make_state(**kw):
    return ClientState(client_id=7, members=MEMBERS, rng=random.Random(0), **kw)


def drive(gen, responder):
    """Run a client generator, answering effects via responder(effect)."""
    effects = []
    try:
        effect = next(gen)
        while True:
            effects.append(effect)
            effect = gen.send(responder(effect))
    except StopIteration as stop:
        return stop.value, effects


def sent(effect):
    """(dest, decoded READ) of each request of an "rpcs" effect."""
    return [(dest, rpc.dec_read_req(env.payload)) for dest, env in effect[1]]


def types(effect):
    """The message type of each request of an "rpcs" effect."""
    return [env.msg_type for _, env in effect[1]]


def read_resp(entry, locked=False):
    return rpc.enc_read_resp([entry], locked)


def commit_resp(ok, reason=None, piggyback=()):
    return rpc.enc_commit_resp(ok, reason, list(piggyback))


# -- coordinator choice -----------------------------------------------------------


def test_coordinator_is_plurality_owner_lowest_on_tie():
    keys = [b"k%d" % i for i in range(50)]
    by_owner = {}
    for k in keys:
        by_owner.setdefault(owner_of(k, MEMBERS), []).append(k)
    # two keys from server 2's shard, one from server 0's: plurality wins
    ks = by_owner[2][:2] + by_owner[0][:1]
    assert coordinator_for(ks, MEMBERS) == 2
    # one key each from server 2 and server 0: tie -> lowest id
    assert coordinator_for([by_owner[2][0], by_owner[0][0]], MEMBERS) == 0
    with pytest.raises(ValueError):
        coordinator_for([], MEMBERS)


# -- reads ------------------------------------------------------------------------


def test_read_lookup_order_writes_reads_cache_remote():
    cs = make_state()
    h = TxnHandle()
    # 1) own write wins without any rpc
    txn_write(h, b"k", b"mine")
    val, fx = drive(txn_read(cs, h, b"k"), lambda e: None)
    assert val == b"mine" and fx == []
    # 2) recorded read wins
    h2 = TxnHandle(reads={b"j": (b"seen", 4)})
    val, fx = drive(txn_read(cs, h2, b"j"), lambda e: None)
    assert val == b"seen" and fx == []
    # 3) cache wins and is copied into the handle's read set
    cs.cache.put(b"c", b"hot", 2)
    h3 = TxnHandle()
    val, fx = drive(txn_read(cs, h3, b"c"), lambda e: None)
    assert val == b"hot" and fx == [] and h3.reads[b"c"] == (b"hot", 2)
    assert cs.cache.hits == 1
    # 4) remote read goes to the key's owner and populates handle + cache
    h4 = TxnHandle()
    val, fx = drive(txn_read(cs, h4, b"r"), lambda e: [read_resp((b"cold", 9))])
    assert val == b"cold"
    assert fx[0][0] == "rpcs" and [dest for dest, _ in fx[0][1]] == [owner_of(b"r", MEMBERS)]
    assert h4.reads[b"r"] == (b"cold", 9) and cs.cache.get(b"r") == (b"cold", 9)


def test_read_many_sends_the_misses_in_one_round_one_read_per_owner():
    by_owner = keys_by_owner()
    a0, a1, b0 = by_owner[0][0], by_owner[0][1], by_owner[1][0]
    w, r, c = by_owner[2][:3]
    cs = make_state()
    cs.cache.put(c, b"vc", 4)
    h = TxnHandle(reads={r: (b"vr", 2)})
    txn_write(h, w, b"vw")
    answers = {(0, (a0, a1)): rpc.enc_read_resp([(b"va0", 1), None], False),
               (1, (b0,)): read_resp((b"vb0", 3))}

    def respond(effect):
        assert effect[0] == "rpcs"
        return [answers[dest, tuple(rpc.dec_read_req(env.payload)[0])] for dest, env in effect[1]]

    vals, fx = drive(txn_read_many(cs, h, [b0, w, a0, r, c, a1, a0]), respond)
    # own write, own read and cache hit are served locally; the four keys
    # owned by 0 and 1 take one round of two READs, a0 sent once
    assert vals == [b"vb0", b"vw", b"va0", b"vr", b"vc", None, b"va0"]
    assert len(fx) == 1 and [dest for dest, _ in fx[0][1]] == [0, 1]
    assert cs.stats["rpcs"] == 2 and cs.cache.hits == 1
    assert h.reads[a1] == (None, 0) and cs.cache.get(a0) == (b"va0", 1)
    assert h.fresh is None  # two owners answered at unordered instants


def test_read_many_of_one_owner_is_one_plain_rpc_and_vouches_unless_locked():
    a0, a1 = keys_by_owner()[0][:2]
    for locked in (False, True):
        cs = make_state()
        h = TxnHandle()
        both = rpc.enc_read_resp([(b"x", 1), (b"y", 2)], locked)
        vals, fx = drive(txn_read_many(cs, h, [a0, a1]), lambda e: [both])
        assert vals == [b"x", b"y"]
        assert [(e[0], sent(e)) for e in fx] == [("rpcs", [(0, ([a0, a1], (), 0))])]
        assert h.fresh == (None if locked else (cs.next_msg_id, frozenset((a0, a1))))
        current = rpc.enc_read_resp([(b"x", 1), (b"y", 2)], False)
        (ok, _), fx = drive(txn_commit(cs, h), lambda e: [current])
        assert ok and [e[0] for e in fx] == (["rpcs"] if locked else [])


def test_missing_key_reads_as_version_zero():
    cs = make_state()
    h = TxnHandle()
    val, _ = drive(txn_read(cs, h, b"nope"), lambda e: [read_resp(None)])
    assert val is None and h.reads[b"nope"] == (None, 0)


def test_read_rpc_exhaustion_raises():
    cs = make_state()
    gen = txn_read(cs, TxnHandle(), b"k")
    with pytest.raises(ReadUnavailableError):
        drive(gen, lambda e: [None])


# -- commit retry policy ------------------------------------------------------------


def setup_handle():
    h = TxnHandle(reads={b"k": (b"old", 3)})
    txn_write(h, b"k", b"new")
    return h


def test_commit_success_updates_cache_at_read_version_plus_one():
    cs = make_state()
    h = setup_handle()
    txn_write(h, b"blind", b"b")  # written but never read
    cs.cache.put(b"blind", b"stale", 1)
    (ok, reason), fx = drive(txn_commit(cs, h), lambda e: [commit_resp(True)])
    assert ok and reason is None and h.status == "Done" and h.attempts == 1
    assert cs.cache.get(b"k") == (b"new", 4)  # read at 3, landed at 4
    assert cs.cache.get(b"blind") is None  # unknown post-version: invalidated


def test_stale_read_retries_with_the_piggyback_and_no_read():
    cs = make_state()
    cs.cache.put(b"j", b"o2", 1)
    h = TxnHandle(reads={b"k": (b"old", 3), b"j": (b"o2", 1)})
    txn_write(h, b"k", b"new")
    script = iter(
        [
            [commit_resp(False, AbortReason.STALE_READ, [(b"k", b"cur", 5)])],
            [commit_resp(True)],
        ]
    )
    (ok, _), fx = drive(txn_commit(cs, h), lambda e: next(script))
    assert ok and h.attempts == 2
    # j was not reported stale: its read and its cache entry stand, no READ
    assert h.reads == {b"k": (b"cur", 5), b"j": (b"o2", 1)}
    assert cs.cache.get(b"j") == (b"o2", 1)
    assert [(e[0], types(e)) for e in fx] == [("rpcs", [MsgType.COMMIT])] * 2  # no sleeps
    assert rpc.dec_txn(fx[1][1][0][1].payload).reads == ((b"j", 1), (b"k", 5))


def test_write_denied_backs_off_exponentially_with_cap_and_jitter():
    cs = make_state(max_retries=12)
    h = setup_handle()

    def responder(e):
        return [commit_resp(False, AbortReason.LOCK_DENIED_WRITE)] if e[0] == "rpcs" else None

    (ok, reason), fx = drive(txn_commit(cs, h), responder)
    assert not ok and reason == AbortReason.LOCK_DENIED_WRITE
    sleeps = [e[1] for e in fx if e[0] == "sleep"]
    assert len(sleeps) == cs.max_retries - 1  # no sleep after the final attempt
    for step, d in enumerate(sleeps):
        nominal = min(BACKOFF_BASE * 2.0**step, BACKOFF_CAP)
        assert nominal * (1 - BACKOFF_JITTER) <= d <= nominal * (1 + BACKOFF_JITTER)
    assert max(sleeps) <= BACKOFF_CAP * (1 + BACKOFF_JITTER)


def test_writer_denied_a_read_lock_again_backs_off_and_a_reader_never_does():
    cs = make_state(max_retries=4)
    h = setup_handle()  # reads k, writes k

    def responder(e):
        if e[0] == "rpcs" and types(e) == [MsgType.READ]:
            return [read_resp((b"old", 3))]
        if e[0] == "rpcs":
            return [commit_resp(False, AbortReason.LOCK_DENIED_READ)]
        return None

    (ok, reason), fx = drive(txn_commit(cs, h), responder)
    assert not ok and reason == AbortReason.LOCK_DENIED_READ
    kinds = [e[0] if e[0] == "sleep" else types(e)[0].name for e in fx]
    # the first denial retries at once; later ones back off after the re-read
    assert kinds == ["COMMIT", "READ", "COMMIT", "READ", "sleep", "COMMIT", "READ", "sleep", "COMMIT"]
    sleeps = [e[1] for e in fx if e[0] == "sleep"]
    for step, d in enumerate(sleeps):
        nominal = BACKOFF_BASE * 2.0**step
        assert nominal * (1 - BACKOFF_JITTER) <= d <= nominal * (1 + BACKOFF_JITTER)

    cs = make_state(max_retries=4)
    h = TxnHandle(reads={b"k": (b"old", 3)})  # read-only: holds no lock

    (ok, reason), fx = drive(txn_commit(cs, h), lambda e: [read_resp((b"old", 3), locked=True)])
    assert not ok and reason == AbortReason.LOCK_DENIED_READ
    # a validation READ, then a re-read, alternately, and no sleep
    assert [(e[0], types(e)) for e in fx] == [("rpcs", [MsgType.READ])] * 7


def test_silence_is_terminal_unknown():
    cs = make_state()
    h = setup_handle()
    (ok, reason), fx = drive(txn_commit(cs, h), lambda e: [None])
    assert not ok and reason == AbortReason.UNKNOWN
    assert len(fx) == 1 and h.status == "Done"


def test_log_failure_is_terminal():
    cs = make_state()
    h = setup_handle()
    (ok, reason), fx = drive(
        txn_commit(cs, h), lambda e: [commit_resp(False, AbortReason.LOG_FAILURE)]
    )
    assert not ok and reason == AbortReason.LOG_FAILURE and len(fx) == 1


def test_failed_commit_invalidates_cached_txn_keys():
    cs = make_state()
    cs.cache.put(b"k", b"old", 3)
    h = setup_handle()
    drive(txn_commit(cs, h), lambda e: [commit_resp(False, AbortReason.LOG_FAILURE)])
    assert cs.cache.get(b"k") is None


def test_retry_reuses_fresh_message_ids_and_targets_coordinator():
    cs = make_state()
    h = setup_handle()
    seen = []

    def responder(e):
        if e[0] != "rpcs":
            return None
        seen.extend((dest, env.message_id) for dest, env in e[1])
        return [commit_resp(False, AbortReason.LOCK_DENIED_WRITE)]

    cs.max_retries = 3
    drive(txn_commit(cs, h), responder)
    coordinator = coordinator_for([b"k"], MEMBERS)
    assert [s for s, _ in seen] == [coordinator] * 3
    mids = [m for _, m in seen]
    assert len(set(mids)) == 3


# -- read-only commit -------------------------------------------------------------


def keys_by_owner():
    by_owner = {}
    for k in (b"k%d" % i for i in range(50)):
        by_owner.setdefault(owner_of(k, MEMBERS), []).append(k)
    return by_owner


def test_read_only_commit_validates_every_owner_in_one_effect():
    by_owner = keys_by_owner()
    a, b, c = by_owner[0][0], by_owner[1][0], by_owner[2][0]
    cs = make_state()
    h = TxnHandle(reads={a: (b"va", 1), b: (b"vb", 2)})
    val, fx = drive(txn_read(cs, h, c), lambda e: [read_resp((b"vc", 3))])
    # the latest READ said unlocked and no RPC followed it: c is not validated
    assert h.fresh == (cs.next_msg_id, frozenset((c,)))
    (ok, reason), fx = drive(txn_commit(cs, h), lambda e: [read_resp((b"va", 1)), read_resp((b"vb", 2))])
    assert ok and reason is None and len(fx) == 1 and fx[0][0] == "rpcs"
    assert sent(fx[0]) == [(0, ([a], (), 0)), (1, ([b], (), 0))]


def test_read_only_commit_takes_the_lowest_failed_owners_reason_and_every_piggyback():
    by_owner = keys_by_owner()
    a, b, c = by_owner[0][0], by_owner[1][0], by_owner[2][0]
    cs = make_state()
    h = TxnHandle(reads={a: (b"va", 1), b: (b"vb", 2), c: (b"vc", 3)})  # all from the cache
    script = iter(
        [
            # owner 1 says locked, owner 2 holds a newer c
            [read_resp((b"va", 1)), read_resp((b"vb", 2), locked=True), read_resp((b"vc", 5))],
            # a and b were not piggybacked: re-read, both in one round
            [read_resp((b"va", 1)), read_resp((b"vb", 2), locked=True)],
            [read_resp((b"va", 6)), None, read_resp((b"vc", 5))],
        ]
    )
    cs.max_retries = 2
    (ok, reason), fx = drive(txn_commit(cs, h), lambda e: next(script))
    # nothing is re-read after the last attempt
    assert [e[0] for e in fx] == ["rpcs", "rpcs", "rpcs"]
    assert sent(fx[1]) == [(0, ([a], (), 0)), (1, ([b], (), 0))]
    # the second commit validates all three owners: c came with the abort,
    # and the re-read round went to two owners, so it vouches for nothing
    assert sent(fx[2]) == [(0, ([a], (), 0)), (1, ([b], (), 0)), (2, ([c], (), 0))]
    assert h.reads[c] == (b"vc", 5)
    # the first attempt failed for owner 1's reason; the second took owner
    # 0's stale read over owner 1's silence, and a's piggyback
    assert not ok and reason == AbortReason.STALE_READ and h.attempts == 2
    assert cs.cache.get(a) == (b"va", 6) and cs.cache.get(c) == (b"vc", 5)


def test_read_only_commit_reports_timeout_for_a_silent_owner():
    by_owner = keys_by_owner()
    cs = make_state()
    h = TxnHandle(reads={by_owner[0][0]: (b"v", 1), by_owner[2][0]: (b"v", 1)})
    (ok, reason), fx = drive(txn_commit(cs, h), lambda e: [read_resp((b"v", 1)), None])
    assert not ok and reason == AbortReason.TIMEOUT and len(fx) == 1


def cache_state(cache):
    """The entries in LRU order, the hits and the misses."""
    return list(cache._map.items()), cache.hits, cache.misses


def test_validation_rounds_leave_the_cache_alone():
    """A failed, then a passing validation round add, replace and move no
    cache entry and count no hit or miss: the one change to the cache is
    the stale key's piggybacked entry, which the retry policy puts.  The
    answers' other entries enter neither the cache nor the reads, so the
    retry's reads differ from the first attempt's only in the stale key."""
    by_owner = keys_by_owner()
    a, b, c = by_owner[0][0], by_owner[0][1], by_owner[1][0]
    cs = make_state()
    for k in (c, a, by_owner[2][0], b):
        cs.cache.put(k, b"old", 1)
    cs.cache.get(a)  # a hit, which moves a to the LRU tail
    cs.cache.get(by_owner[2][1])  # a miss
    expected = copy.deepcopy(cs.cache)
    expected.put(b, b"new", 2)
    h = TxnHandle(reads={a: (b"old", 1), b: (b"old", 1), c: (b"old", 1)})
    first = dict(h.reads)
    script = iter(
        [
            # a and c are current, whatever their values; b moved
            [rpc.enc_read_resp([(b"other", 1), (b"new", 2)], False), read_resp((b"other", 1))],
            [read_resp((b"other", 1))],
        ]
    )
    (ok, reason), fx = drive(txn_commit(cs, h), lambda e: next(script))
    assert ok and reason is None and h.attempts == 2
    # owner 0 alone failed: its answer vouches for a and b, so only c is checked again
    assert [e[0] for e in fx] == ["rpcs", "rpcs"] and sent(fx[1]) == [(1, ([c], (), 0))]
    assert h.reads == {**first, b: (b"new", 2)}
    assert cache_state(cs.cache) == cache_state(expected)


def test_one_unlocked_read_commits_without_an_rpc():
    cs = make_state()
    h = TxnHandle()
    drive(txn_read(cs, h, b"k"), lambda e: [read_resp((b"v", 1))])
    (ok, reason), fx = drive(txn_commit(cs, h), lambda e: None)
    assert ok and reason is None and fx == []
