"""The commit of a transaction that wrote nothing: the client validates its
reads with a READ to each owner, and leaves out the latest read when it
was unlocked."""

import pytest

from conftest import commit_txn, make_sim, run_gen, txn_gen
from test_sim import keys_owned_by

from dtx import client as cl
from dtx import oracle, rpc
from dtx.bench import preload_sim, start_clients
from dtx.model import PartState
from dtx.rpc import AbortReason, MsgType
from dtx.server import owner_of
from dtx.wal import LogManager, TranxLog
from dtx.workload import WorkloadSpec, key_bytes


def server_counts(sim):
    """Server-to-server messages sent so far, heartbeats left out."""
    return {m: n for m, n in sim.server_msgs.items() if m != "GC_LC"}


def client_sends(sim):
    """From now on, record (dest, type, key of a READ) of every message a
    client puts on the wire, resends included; a READ of several keys
    records the tuple of its keys."""
    sent = []
    orig = sim.net_send

    def net_send(src, dst, env):
        if src[0] == "c":
            key = None
            if env.msg_type == MsgType.READ:
                keys = rpc.dec_read_req(env.payload)
                key = keys[0] if len(keys) == 1 else tuple(keys)
            sent.append((dst[1], env.msg_type.name, key))
        orig(src, dst, env)

    sim.net_send = net_send
    return sent


def types(sent):
    return [t for _, t, _ in sent]


def quiet(sim):
    """Every node idle: no coordinator record in flight, no lock held."""
    for n in sim.nodes.values():
        assert n.node.stats_dump()["in_flight_coord"] == 0
    assert oracle.locks_clean(sim) == []


def step_until(sim, pred, timeout=5.0):
    deadline = sim.now + timeout
    while not pred():
        assert sim.now <= deadline and sim.step(), "condition never held"


def half_applied_write(sim, x, y):
    """Commit a writer of x (server 0, its coordinator) and y (server 1),
    cutting 0 from 1 once 1 is Ready: 0 applies x at its decision while 1
    stays prepared, holding y's exclusive lock.  Returns the cut."""
    writer = sim.new_client(seed=1)
    box = []
    writer.run(txn_gen(writer.state, [x, y], {x: b"new", y: b"new"}), box.append)
    n1 = sim.nodes[1].node
    step_until(sim, lambda: any(r.state == PartState.READY for r in n1.part.values()))
    cut = sim.partition([0], [1])
    step_until(sim, lambda: box)
    assert box[0][1][0] is True
    assert sim.nodes[0].node.storage.current_version(x) == 1
    assert n1.storage.current_version(y) == 0 and n1.locks.exclusively_held(y)
    return cut


def read_in_order(cs, first, last, pause=0.0):
    """Read `first`, wait `pause`, read `last`, then commit; returns (ok,
    reason, the versions read before the commit, the handle)."""
    h = cl.TxnHandle()
    yield from cl.txn_read(cs, h, first)
    if pause:
        yield ("sleep", pause)
    yield from cl.txn_read(cs, h, last)
    seen = {k: ver for k, (_, ver) in h.reads.items()}
    ok, reason = yield from cl.txn_commit(cs, h)
    return ok, reason, seen, h


def read_round(cs, keys):
    """Read `keys` in one round, then commit; returns (ok, reason, the
    versions read before the commit, the handle)."""
    h = cl.TxnHandle()
    yield from cl.txn_read_many(cs, h, keys)
    seen = {k: ver for k, (_, ver) in h.reads.items()}
    ok, reason = yield from cl.txn_commit(cs, h)
    return ok, reason, seen, h


@pytest.mark.parametrize("owners", [1, 2, 3])
def test_read_only_commit_logs_locks_and_numbers_nothing(owners, monkeypatch):
    sim = make_sim(3, seed=3)
    # two keys on server 0, one on each other owner
    keys = keys_owned_by(0, sim.members, 2)
    keys += [keys_owned_by(sid, sim.members, 1)[0] for sid in range(1, owners)]
    writer = sim.new_client(seed=1)
    for k in keys:
        assert commit_txn(sim, writer, [k], {k: b"w"})[0]
    sim.run(1.0)  # settle decisions, acks and GC before measuring

    appends = []
    orig_append = TranxLog.append
    monkeypatch.setattr(
        TranxLog,
        "append",
        lambda self, rec, durable: appends.append(rec) or orig_append(self, rec, durable),
    )
    nodes = [n.node for n in sim.nodes.values()]
    issued = [node.gc.last_issued for node in nodes]
    dedup = [node.dedup.size() for node in nodes]
    msgs = server_counts(sim)
    mark = len(sim.trace)
    sent = client_sends(sim)

    reader = sim.new_client(seed=2)
    ok, reason, h = commit_txn(sim, reader, keys, {})
    assert ok and reason is None and h.attempts == 1
    assert all(ver == 1 for _, ver in h.reads.values())

    assert appends == []
    assert [e for e in sim.trace[mark:] if e[2] == "lock.grant"] == []
    assert [node.gc.last_issued for node in nodes] == issued
    assert [node.dedup.size() for node in nodes] == dedup
    assert server_counts(sim) == msgs  # no server-to-server message
    # one READ per key, then one validation READ per owner of a key other
    # than the last one read, all sent before any answer
    validated = {owner_of(k, sim.members) for k in sorted(keys)[:-1]}
    assert types(sent) == ["READ"] * (len(keys) + len(validated))
    assert {dest for dest, _, _ in sent[len(keys):]} == validated
    assert reader.state.stats["rpcs"] == len(keys) + len(validated)
    quiet(sim)


def test_unlocked_one_key_read_commits_with_one_rpc():
    sim = make_sim(3, seed=10)
    k = keys_owned_by(1, sim.members, 1)[0]
    assert commit_txn(sim, sim.new_client(seed=1), [k], {k: b"w"})[0]
    sim.run(0.5)
    msgs = server_counts(sim)
    reader = sim.new_client(seed=2)
    ok, reason, h = commit_txn(sim, reader, [k], {})
    assert ok and reason is None and h.reads[k] == (b"w", 1)
    assert reader.state.stats["rpcs"] == 1  # the READ; the commit sends nothing
    assert server_counts(sim) == msgs


def test_locked_one_key_read_is_validated_until_the_decision_lands():
    sim = make_sim(3, seed=11)
    x = keys_owned_by(0, sim.members, 1)[0]
    y = keys_owned_by(1, sim.members, 1)[0]
    cut = half_applied_write(sim, x, y)

    reader = sim.new_client(seed=2)
    reader.state.max_retries = 1
    sent = client_sends(sim)
    ok, reason, h = commit_txn(sim, reader, [y], {})
    assert h.reads[y][1] == 0  # the writer's decision has not reached y's owner
    assert not ok and reason == AbortReason.LOCK_DENIED_READ
    # nothing is re-read after the last attempt
    assert sent == [(1, "READ", y), (1, "READ", y)]

    sim.heal(cut)
    sim.run(1.0)  # the decision resend reaches server 1, which applies y
    del sent[:]
    ok, reason, h = commit_txn(sim, reader, [y], {})
    assert ok and h.reads[y] == (b"new", 1)
    assert sent == [(1, "READ", y)]  # unlocked now: no validation READ
    quiet(sim)


@pytest.mark.parametrize("post_commit_read", ["first", "last"])
def test_fractured_read_is_denied_in_both_read_orders(post_commit_read):
    sim = make_sim(3, seed=12)
    x = keys_owned_by(0, sim.members, 1)[0]
    y = keys_owned_by(1, sim.members, 1)[0]
    reader = sim.new_client(seed=2)
    reader.state.max_retries = 1
    if post_commit_read == "first":
        # x already applied, y still locked by the same writer: the READ of
        # y says locked, so y is validated although it was read last
        cut = half_applied_write(sim, x, y)
        ok, reason, seen, _ = run_gen(sim, reader, read_in_order(reader.state, x, y))
        expected = AbortReason.LOCK_DENIED_READ
    else:
        # y read before a writer of x and y starts, x read after it applied
        # both: y must be validated although its READ said unlocked
        cut = None
        writer = sim.new_client(seed=1)
        box = []
        w = txn_gen(writer.state, [x, y], {x: b"new", y: b"new"})
        sim.schedule(0.1, lambda: writer.run(w, box.append))
        ok, reason, seen, _ = run_gen(sim, reader, read_in_order(reader.state, y, x, pause=0.5))
        assert box and box[0][1][0] is True
        expected = AbortReason.STALE_READ
    assert seen == {x: 1, y: 0}  # the fractured view
    assert not ok and reason == expected

    if cut is not None:
        sim.heal(cut)
    sim.run(1.0)
    reader.state.max_retries = 12
    ok, reason, _, h = run_gen(sim, reader, read_in_order(reader.state, x, y))
    assert ok and h.reads[x] == (b"new", 1) and h.reads[y] == (b"new", 1)
    quiet(sim)


# -- one read round, one READ per owner ----------------------------------------


def test_one_owner_round_with_nothing_locked_commits_without_validate():
    sim = make_sim(3, seed=17)
    keys = keys_owned_by(1, sim.members, 3)
    assert commit_txn(sim, sim.new_client(seed=1), keys, {k: b"w" for k in keys})[0]
    sim.run(0.5)
    msgs = server_counts(sim)
    reader = sim.new_client(seed=2)
    sent = client_sends(sim)
    ok, reason, seen, h = run_gen(sim, reader, read_round(reader.state, keys))
    assert ok and reason is None and h.attempts == 1 and seen == {k: 1 for k in keys}
    # the owner served every key in one step and none was locked, so the
    # round vouches for all three: one READ and no validation READ
    assert sent == [(1, "READ", tuple(keys))]
    assert reader.state.stats["rpcs"] == 1
    assert server_counts(sim) == msgs
    quiet(sim)


def test_two_owner_round_is_validated_at_every_owner():
    sim = make_sim(3, seed=18)
    home = keys_owned_by(0, sim.members, 2)
    k1 = keys_owned_by(1, sim.members, 1)[0]
    keys = [*home, k1]
    assert commit_txn(sim, sim.new_client(seed=1), keys, {k: b"w" for k in keys})[0]
    sim.run(0.5)
    reader = sim.new_client(seed=2)
    sent = client_sends(sim)
    ok, reason, seen, h = run_gen(sim, reader, read_round(reader.state, keys))
    assert ok and reason is None and h.attempts == 1 and seen == {k: 1 for k in keys}
    # both READs go out before either answer; their instants are unordered,
    # so the round vouches for nothing and both owners validate
    assert sent == [(0, "READ", tuple(home)), (1, "READ", k1)] * 2
    assert reader.state.stats["rpcs"] == 4
    quiet(sim)


def test_two_owner_round_over_a_half_applied_write_is_refused():
    sim = make_sim(3, seed=19)
    x = keys_owned_by(0, sim.members, 1)[0]
    y = keys_owned_by(1, sim.members, 1)[0]
    cut = half_applied_write(sim, x, y)

    reader = sim.new_client(seed=2)
    reader.state.max_retries = 1
    sent = client_sends(sim)
    ok, reason, seen, _ = run_gen(sim, reader, read_round(reader.state, [x, y]))
    assert seen == {x: 1, y: 0}  # the fractured view: y's owner said locked
    assert not ok and reason == AbortReason.LOCK_DENIED_READ
    assert sent == [(0, "READ", x), (1, "READ", y)] * 2

    sim.heal(cut)
    sim.run(1.0)  # the decision resend reaches server 1, which applies y
    reader.state.max_retries = 12
    ok, reason, seen, h = run_gen(sim, reader, read_round(reader.state, [x, y]))
    assert ok and h.reads == {x: (b"new", 1), y: (b"new", 1)}
    quiet(sim)


def test_writer_between_the_two_owners_answers_makes_the_reader_fail_stale():
    """x's owner serves x; a writer of x and y then commits and applies at
    both owners; only then does y's owner serve y, unlocked.  Neither answer
    saw a lock, but the round holds the old x and the new y."""
    sim = make_sim(3, seed=20)
    x = keys_owned_by(0, sim.members, 1)[0]
    y = keys_owned_by(1, sim.members, 1)[0]
    writer, reader = sim.new_client(seed=1), sim.new_client(seed=2)
    assert commit_txn(sim, writer, [x, y], {x: b"v1", y: b"v1"})[0]
    sim.run(0.5)

    reader.state.max_retries = 1
    cut = sim.partition([("c", reader.client_id)], [1])  # hold y's READ back
    mark = len(sim.trace)
    box = []
    reader.run(read_round(reader.state, [x, y]), box.append)
    step_until(sim, lambda: any(
        e[1] == 0 and e[2] == "msg.recv" and e[3]["type"] == "READ" for e in sim.trace[mark:]
    ))
    assert commit_txn(sim, writer, [x, y], {x: b"v2", y: b"v2"})[0]
    step_until(sim, lambda: sim.nodes[1].node.storage.current_version(y) == 2)
    assert not sim.nodes[1].node.locks.exclusively_held(y) and not box
    sim.heal(cut)
    step_until(sim, lambda: box)
    ok, reason, seen, _ = box[0][1]
    assert seen == {x: 1, y: 2}  # the fractured view
    assert not ok and reason == AbortReason.STALE_READ
    quiet(sim)


def test_interleaved_handles_of_one_client_validate_the_fresh_key():
    """h1 reads x; a writer commits x and y; h2 on the same client reads y,
    which caches the new y; h1 then reads y from that cache.  x was h1's
    latest READ and said unlocked, but h2's READ came after it, so h1's
    commit must validate x, or it would commit old x with new y."""
    sim = make_sim(3, seed=13)
    x = keys_owned_by(0, sim.members, 1)[0]
    y = keys_owned_by(1, sim.members, 1)[0]
    writer = sim.new_client(seed=1)
    assert commit_txn(sim, writer, [x, y], {x: b"old", y: b"old"})[0]
    sim.run(0.5)
    reader = sim.new_client(seed=2)
    reader.state.max_retries = 1

    def interleaved(cs):
        h1 = cl.TxnHandle()
        yield from cl.txn_read(cs, h1, x)
        yield ("sleep", 0.5)  # the writer commits x and y meanwhile
        yield from cl.txn_read(cs, cl.TxnHandle(), y)
        hits = cs.stats["cache_hits"]
        yield from cl.txn_read(cs, h1, y)
        assert cs.stats["cache_hits"] == hits + 1  # h2's answer, from the cache
        seen = {k: ver for k, (_, ver) in h1.reads.items()}
        ok, reason = yield from cl.txn_commit(cs, h1)
        return ok, reason, seen

    box = []
    sim.schedule(0.1, lambda: writer.run(txn_gen(writer.state, [x, y], {x: b"new", y: b"new"}), box.append))
    ok, reason, seen = run_gen(sim, reader, interleaved(reader.state))
    assert box and box[0][1][0] is True
    assert seen == {x: 1, y: 2}  # the fractured view
    assert not ok and reason == AbortReason.STALE_READ
    quiet(sim)


def test_fractured_read_is_denied_until_the_decision_lands():
    sim = make_sim(3, seed=4)
    x = keys_owned_by(0, sim.members, 1)[0]
    y = keys_owned_by(1, sim.members, 1)[0]
    z = keys_owned_by(2, sim.members, 2)  # a third owner in the read set
    cut = half_applied_write(sim, x, y)

    reader = sim.new_client(seed=2)
    reader.state.max_retries = 1
    ok, reason, h = run_gen(sim, reader, txn_gen(reader.state, [x, y, *z], {}))
    assert h.reads[x][1] == 1 and h.reads[y][1] == 0  # the fractured view
    assert not ok and reason == AbortReason.LOCK_DENIED_READ

    sim.heal(cut)
    sim.run(1.0)  # the decision resend reaches server 1, which applies y
    reader.state.max_retries = 12
    ok, reason, h = run_gen(sim, reader, txn_gen(reader.state, [x, y, *z], {}))
    assert ok and h.reads[x] == (b"new", 1) and h.reads[y] == (b"new", 1)
    quiet(sim)


def test_stale_read_piggybacks_the_current_entry_and_the_retry_commits():
    sim = make_sim(3, seed=5)
    home = keys_owned_by(0, sim.members, 2)
    k1 = keys_owned_by(1, sim.members, 1)[0]
    reader, writer = sim.new_client(seed=1), sim.new_client(seed=2)
    assert commit_txn(sim, writer, [*home, k1], {k: b"first" for k in [*home, k1]})[0]
    sim.run(0.5)
    assert commit_txn(sim, reader, [*home, k1], {})[0]  # caches all three at version 1
    assert commit_txn(sim, writer, [k1], {k1: b"moved"})[0]
    sim.run(0.5)

    rpcs = reader.state.stats["rpcs"]
    sent = client_sends(sim)
    ok, reason, h = commit_txn(sim, reader, [*home, k1], {})
    assert ok and h.attempts == 2
    assert h.reads[k1] == (b"moved", 2)
    # every read came from the cache, so both owners are validated; only
    # server 1 found a stale read, so its answer vouches for k1 and the
    # retry validates the home keys alone, with no READ
    assert sent[:2] == [(0, "READ", tuple(home)), (1, "READ", k1)]
    assert sent[2:] == [(0, "READ", tuple(home))]
    assert reader.state.stats["rpcs"] - rpcs == 3
    quiet(sim)


def test_single_stale_owner_vouches_for_its_slice():
    sim = make_sim(3, seed=15)
    home = keys_owned_by(0, sim.members, 2)
    reader, writer = sim.new_client(seed=1), sim.new_client(seed=2)
    assert commit_txn(sim, writer, home, {k: b"first" for k in home})[0]
    sim.run(0.5)
    assert commit_txn(sim, reader, home, {})[0]  # caches both at version 1
    assert commit_txn(sim, writer, [home[0]], {home[0]: b"moved"})[0]
    sim.run(0.5)

    sent = client_sends(sim)
    ok, reason, h = commit_txn(sim, reader, home, {})
    # the one validation READ found home[0] stale, with its current entry:
    # the retry commits with no RPC
    assert ok and h.attempts == 2 and sent == [(0, "READ", tuple(home))]
    assert h.reads == {home[0]: (b"moved", 2), home[1]: (b"first", 1)}
    quiet(sim)


def test_two_stale_owners_vouch_for_nothing():
    """x and y are cached stale.  Server 0 answers that x is stale; then a
    writer of x and y commits; then server 1 answers that y is stale and
    piggybacks the writer's y.  The answers vouch for two instants with the
    writer between them, so the retry validates both slices again instead
    of committing the old x with the new y."""
    sim = make_sim(3, seed=14)
    x = keys_owned_by(0, sim.members, 1)[0]
    y = keys_owned_by(1, sim.members, 1)[0]
    reader, writer = sim.new_client(seed=1), sim.new_client(seed=2)
    assert commit_txn(sim, writer, [x, y], {x: b"v1", y: b"v1"})[0]
    sim.run(0.5)
    assert commit_txn(sim, reader, [x, y], {})[0]  # caches both at version 1
    assert commit_txn(sim, writer, [x, y], {x: b"v2", y: b"v2"})[0]
    sim.run(0.5)

    cut = sim.partition([("c", reader.client_id)], [1])  # hold y's validation READ back
    mark = len(sim.trace)
    box = []
    reader.run(txn_gen(reader.state, [x, y], {}), box.append)
    step_until(sim, lambda: any(
        e[1] == 0 and e[2] == "msg.recv" and e[3]["type"] == "READ" for e in sim.trace[mark:]
    ))
    assert commit_txn(sim, writer, [x, y], {x: b"v3", y: b"v3"})[0]
    assert not box
    sent = client_sends(sim)
    sim.heal(cut)
    step_until(sim, lambda: box)
    ok, reason, h = box[0][1]
    assert ok and h.attempts == 3
    assert h.reads == {x: (b"v3", 3), y: (b"v3", 3)}
    # the second round validated both slices: x was stale again, alone, so
    # the third round validated y alone
    assert sent == [(1, "READ", y), (0, "READ", x), (1, "READ", y), (1, "READ", y)]
    quiet(sim)


def test_stale_read_abort_keeps_the_unreported_keys_cached():
    sim = make_sim(3, seed=16)
    home = keys_owned_by(0, sim.members, 2)
    k1 = keys_owned_by(1, sim.members, 1)[0]
    keys = [*home, k1]
    reader, writer = sim.new_client(seed=1), sim.new_client(seed=2)
    assert commit_txn(sim, writer, keys, {k: b"first" for k in keys})[0]
    sim.run(0.5)
    assert commit_txn(sim, reader, keys, {})[0]  # caches all three at version 1
    assert commit_txn(sim, writer, [k1], {k1: b"moved"})[0]
    sim.run(0.5)

    reader.state.max_retries = 1
    ok, reason, _ = commit_txn(sim, reader, keys, {home[0]: b"mine"})
    assert not ok and reason == AbortReason.STALE_READ
    sent = client_sends(sim)
    ok, reason, h = commit_txn(sim, reader, keys, {})
    # the home keys stayed cached and k1 came with the abort: no read
    # round, only the validation READs of both owners
    assert ok and sent == [(0, "READ", tuple(home)), (1, "READ", k1)]
    assert h.reads == {home[0]: (b"first", 1), home[1]: (b"first", 1), k1: (b"moved", 2)}
    quiet(sim)


def test_partitioned_owner_is_resent_validate_then_commits_or_times_out():
    sim = make_sim(3, seed=6)
    keys = keys_owned_by(0, sim.members, 2) + keys_owned_by(1, sim.members, 1)
    client = sim.new_client(seed=1)
    assert commit_txn(sim, client, keys, {k: b"v" for k in keys})[0]
    sim.run(0.5)
    assert commit_txn(sim, client, keys, {})[0]  # warm the cache: no READ crosses the cut

    cut = sim.partition([("c", client.client_id)], [1])
    sent = client_sends(sim)
    box = []
    client.run(txn_gen(client.state, keys, {}), box.append)
    sim.run(0.5)
    assert not box
    assert types(sent).count("READ") >= 4  # server 0's, and server 1's resends
    sim.heal(cut)
    step_until(sim, lambda: box)
    ok, reason, _ = box[0][1]
    assert ok and reason is None
    assert [dest for dest, _, _ in sent].count(0) == 1  # the owner that answered is not asked again
    quiet(sim)

    # never healed: the client gives up once its resend budget is spent
    sim.partition([("c", client.client_id)], [1])
    start = sim.now
    ok, reason, _ = commit_txn(sim, client, keys, {})
    assert not ok and reason == AbortReason.TIMEOUT
    assert sim.now - start >= client.timeout * (client.tries - 1)
    quiet(sim)


def test_abandoned_read_only_commit_sends_nothing_afterwards():
    sim = make_sim(3, seed=13)
    keys = keys_owned_by(0, sim.members, 2) + keys_owned_by(1, sim.members, 1)
    client = sim.new_client(seed=1)
    assert commit_txn(sim, client, keys, {k: b"v" for k in keys})[0]
    sim.run(0.5)
    assert commit_txn(sim, client, keys, {})[0]  # warm the cache
    sim.partition([0, ("c", client.client_id)], [1])
    ok, reason, _ = commit_txn(sim, client, keys, {})
    assert not ok and reason == AbortReason.TIMEOUT
    # after the client gave up, only heartbeats cross the wire
    total, heartbeats = sim.msgs_total, sim.server_msgs["GC_LC"]
    sim.run(2.0)
    assert sim.msgs_total - total == sim.server_msgs["GC_LC"] - heartbeats


def test_read_mostly_run_makes_under_one_durable_flush_per_commit(monkeypatch):
    seals = []
    orig_seal = LogManager._seal
    monkeypatch.setattr(LogManager, "_seal", lambda self: seals.append(1) or orig_seal(self))
    sim = make_sim(3, seed=7)
    spec = WorkloadSpec(key_count=10_000, read_fraction=0.95, clients=4, duration=0.5, seed=7)
    preload_sim(sim, spec, spec.seed)
    drivers = start_clients(sim, spec)
    sim.run_until(spec.duration + 1.0)
    history = [r for d in drivers for r in d.history]
    commits = sum(1 for r in history if r["ok"])
    assert commits > 100
    assert len(seals) < commits
    initial = {key_bytes(i): 1 for i in range(1, spec.key_count + 1)}
    assert oracle.check_history([r for r in history if r["ok"]], initial).ok is True
