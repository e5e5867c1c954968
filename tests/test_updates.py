"""Every answer a server sends a client starts with an updates block: the
current entry of each key that server applied since its last answer to
that client.  The client refreshes the cache entries it already holds, and
never an open transaction's reads."""

from conftest import TEST_GC_PERIOD, commit_txn, make_sim, run_gen

from dtx import client as cl
from dtx import rpc
from dtx.client import RequestCore
from dtx.model import Transaction
from dtx.rpc import Envelope, MsgType
from dtx.storage import RECENT, ServerCache
from test_sim import keys_owned_by


def cached(client, k):
    """A client's cache entry, looked at without counting a hit or a miss."""
    return client.state.cache._map.get(k)


def read_one(cs, k):
    """A read of k in a transaction of its own, left open; returns the handle."""
    h = cl.TxnHandle()
    yield from cl.txn_read(cs, h, k)
    return h


def answers_to(sim, client):
    """From now on, record every answer put on the wire for `client`."""
    seen = []
    orig = sim.net_send

    def net_send(src, dst, env):
        if dst == ("c", client.client_id):
            seen.append(env)
        orig(src, dst, env)

    sim.net_send = net_send
    return seen


def two_writers():
    """A simulator, clients a and b, and two keys of server 0: a wrote k at
    version 1, then b read it and wrote version 2; a was told nothing."""
    sim = make_sim(3, seed=1)
    k, other = keys_owned_by(0, sim.members, 2)
    a, b = sim.new_client(seed=1), sim.new_client(seed=2)
    assert commit_txn(sim, a, [k], {k: b"a"})[0]
    assert cached(a, k) == (b"a", 1)
    assert commit_txn(sim, b, [k], {k: b"b"})[0]
    assert cached(a, k) == (b"a", 1)
    return sim, a, b, k, other


def test_a_commit_elsewhere_refreshes_the_cache_at_the_next_answer_from_its_owner():
    """a's next answer from k's owner carries k's new entry, so a read-only
    transaction on k reads it from the cache and commits at once."""
    sim, a, _, k, other = two_writers()
    order, hits, misses = list(a.state.cache._map), a.state.cache.hits, a.state.cache.misses
    run_gen(sim, a, read_one(a.state, other))  # other does not exist: a miss, not cached
    assert cached(a, k) == (b"b", 2)
    assert list(a.state.cache._map) == order
    assert (a.state.cache.hits, a.state.cache.misses) == (hits, misses + 1)
    ok, reason, h = commit_txn(sim, a, [k], {})
    assert ok and reason is None and h.attempts == 1 and h.reads[k] == (b"b", 2)


def test_a_block_never_changes_an_open_transactions_reads():
    """The refresh reaches the cache only: the open transaction keeps the
    version it read, so its write is validated against what it saw."""
    sim = make_sim(3, seed=1)
    k, other = keys_owned_by(0, sim.members, 2)
    a, b = sim.new_client(seed=1), sim.new_client(seed=2)
    assert commit_txn(sim, b, [k], {k: b"first"})[0]
    h = run_gen(sim, a, read_one(a.state, k))
    assert h.reads[k] == (b"first", 1)
    assert commit_txn(sim, b, [k], {k: b"second"})[0]
    run_gen(sim, a, cl.txn_read(a.state, h, other))
    assert cached(a, k) == (b"second", 2)
    assert h.reads[k] == (b"first", 1)
    cl.txn_write(h, k, b"from-a")
    assert run_gen(sim, a, cl.txn_commit(a.state, h)) == (True, None)
    assert h.attempts == 2  # the stale read failed validation first
    assert sim.global_state()[k] == (b"from-a", 3)


def test_a_refresh_never_lowers_a_version_inserts_a_key_or_moves_an_entry():
    cache = ServerCache(4)
    for k in (b"a", b"b", b"c"):
        cache.put(k, b"v", 5)
    cache.get(b"a")  # LRU order now b, c, a
    counts = (cache.hits, cache.misses)
    cache.refresh(b"b", b"older", 4)
    cache.refresh(b"b", b"same", 5)
    cache.refresh(b"d", b"absent", 9)
    cache.refresh(b"c", b"newer", 6)
    assert list(cache._map.items()) == [(b"b", (b"v", 5)), (b"c", (b"newer", 6)), (b"a", (b"v", 5))]
    assert (cache.hits, cache.misses) == counts


def hand_core():
    """A RequestCore on a hand-set clock, its sends and armed timers kept,
    with one key cached at version 1; each request is sent once."""
    clock, timers = [0.0], []
    core = RequestCore(lambda: clock[0], lambda dest, env: None, lambda at, fn: timers.append(fn), tries=1)
    core.cache = ServerCache(8)
    core.cache.put(b"k", b"v1", 1)
    return core, clock, timers


def ask(message_id):
    env = Envelope(MsgType.READ, rpc.CLIENT, 7, message_id, None, rpc.enc_read_req([b"x"]))
    (payload,) = yield ("rpcs", [(0, env)])
    return payload


def answer(message_id, updates, body=b"body"):
    return Envelope(MsgType.RESPONSE, rpc.SERVER, 0, message_id, None, rpc.enc_response(updates, body))


def test_an_answer_the_core_drops_refreshes_nothing():
    core, clock, timers = hand_core()
    done = []
    core.run(ask(1), done.append)
    # a block cut short: the answer is malformed and dropped, the request waits on
    cut = rpc.enc_response([(b"k", b"v9", 9)], b"")[:-1]
    core.on_reply(Envelope(MsgType.RESPONSE, rpc.SERVER, 0, 1, None, cut))
    assert done == [] and core.cache._map[b"k"] == (b"v1", 1)
    core.on_reply(answer(1, [(b"k", b"v2", 2), (b"new", b"n", 1)]))
    assert done == [("ok", b"body")] and dict(core.cache._map) == {b"k": (b"v2", 2)}
    # a duplicate of the accepted answer
    core.on_reply(answer(1, [(b"k", b"v3", 3)]))
    assert core.cache._map[b"k"] == (b"v2", 2)
    # a late answer to a request given up
    core.run(ask(2), done.append)
    clock[0] = 1.0
    timers.pop()()
    assert done[-1] == ("ok", None)
    core.on_reply(answer(2, [(b"k", b"v4", 4)]))
    assert core.cache._map[b"k"] == (b"v2", 2) and len(done) == 2


def ask_two(first, second):
    """One effect of two requests, to servers 0 and 1; returns their payloads."""
    envs = [Envelope(MsgType.READ, rpc.CLIENT, 7, mid, None, rpc.enc_read_req([b"x"])) for mid in (first, second)]
    return (yield ("rpcs", [(0, envs[0]), (1, envs[1])]))


def test_a_join_hands_the_answers_over_in_request_order():
    """Answers that come in reverse order reach the generator in the order
    of its requests, once the last one is in."""
    core, clock, timers = hand_core()
    done = []
    core.run(ask_two(1, 2), done.append)
    core.on_reply(answer(2, [], b"second"))
    assert done == []
    core.on_reply(answer(1, [], b"first"))
    assert done == [("ok", [b"first", b"second"])] and core._waiters == {}


def test_a_join_keeps_none_for_a_request_given_up_and_drops_its_late_answer():
    """A request given up after its tries leaves None in its slot beside the
    other request's payload; its answer, arriving later, changes nothing."""
    core, clock, timers = hand_core()
    done = []
    core.run(ask_two(1, 2), done.append)
    core.on_reply(answer(2, [(b"k", b"v2", 2)], b"second"))
    clock[0] = 1.0
    timers.pop()()
    assert done == [("ok", [None, b"second"])] and core._waiters == {}
    core.on_reply(answer(1, [(b"k", b"v3", 3)], b"late"))
    assert done == [("ok", [None, b"second"])] and core.cache._map[b"k"] == (b"v2", 2)


def test_a_resent_commit_gets_its_stored_body_after_a_fresh_block():
    """The dedup window keeps the answer body only: the resend's block holds
    what the node applied since, here the commit's own write."""
    sim = make_sim(3, seed=1)
    k = keys_owned_by(0, sim.members, 1)[0]
    node = sim.nodes[0].node
    commit = Envelope(MsgType.COMMIT, rpc.CLIENT, 7, 1, None, rpc.enc_txn(Transaction(((k, 0),), ((k, b"w"),))))
    sent = []
    sim.net_send = lambda src, dst, env: sent.append(env)
    node.on_message(commit)
    node.on_message(commit)
    first, again = (rpc.dec_response(e.payload) for e in sent)
    assert first == ([], node.dedup.check_client(7, 1))
    assert again == ([(k, b"w", 1)], first[1])


def test_a_restarted_server_answers_with_no_stale_state():
    """Recovery replays the log without feeding the ring, and a restart
    keeps no cursor: the first answer's block is empty, and later ones hold
    what the new incarnation applied."""
    sim, a, b, k, other = two_writers()
    sim.crash(0)
    sim.restart(0)
    node = sim.nodes[0].node
    assert node.storage.current_version(k) == 2
    stats = node.stats_dump()
    assert (stats["recent_keys"], stats["client_cursors"]) == (0, 0)
    seen = answers_to(sim, a)
    run_gen(sim, a, read_one(a.state, other))
    assert [rpc.dec_response(e.payload)[0] for e in seen] == [[]]
    assert cached(a, k) == (b"a", 1)
    assert commit_txn(sim, b, [k], {k: b"again"})[0]
    run_gen(sim, a, read_one(a.state, other))
    assert rpc.dec_response(seen[-1].payload)[0] == [(k, b"again", 3)]
    assert cached(a, k) == (b"again", 3)


def test_the_handshake_answer_carries_an_empty_block_and_makes_no_cursor():
    sim, _, _, _, _ = two_writers()
    node = sim.nodes[0].node
    cursors = dict(node._cursors)
    sent = []
    sim.net_send = lambda src, dst, env: sent.append(env)
    node.on_message(Envelope(MsgType.CLIENT_HELLO, rpc.CLIENT, 0, 0, None, b""))
    (resp,) = sent
    updates, body = rpc.dec_response(resp.payload)
    assert updates == [] and rpc.dec_u64(body) >> 48 == 0
    assert node._cursors == cursors


def test_cursors_are_kept_only_for_clients_answered_since_the_ring_passed():
    """A GC tick keeps a client's cursor only if the node answered that
    client since the previous tick and the ring has not passed the cursor:
    1,000 short-lived clients each get one answer and hold none once the
    node has been quiet for a tick, and a client answered within the
    period loses its cursor when the ring passes it before the next tick."""
    sim = make_sim(3, seed=1)
    node = sim.nodes[0].node
    keys = keys_owned_by(0, sim.members, RECENT + 1)
    writer = sim.new_client(seed=1)
    assert commit_txn(sim, writer, [keys[0]], {keys[0]: b"w"})[0]
    for i in range(1000):
        c = sim.new_client(seed=100 + i)
        run_gen(sim, c, read_one(c.state, keys[0]))
        del sim.clients[c.client_id]
    # no client, the writer included, was answered since the previous tick
    sim.run(3 * TEST_GC_PERIOD)
    assert node.stats_dump()["client_cursors"] == 0

    ticks = []
    tick = node.gc.tick
    node.gc.tick = lambda: ticks.append(sim.now) or tick()
    while not ticks:
        assert sim.step()
    reader = sim.new_client(seed=2)
    run_gen(sim, reader, read_one(reader.state, keys[0]))
    for k in keys[1:]:
        assert commit_txn(sim, writer, [k], {k: b"w"})[0]
    assert len(ticks) == 1 and set(node._cursors) == {reader.client_id, writer.client_id}
    while len(ticks) < 2:
        assert sim.step()
    # both were answered within the period, but the ring passed the reader
    stats = node.stats_dump()
    assert (stats["recent_keys"], stats["client_cursors"]) == (RECENT, 1)
    assert list(node._cursors) == [writer.client_id]
