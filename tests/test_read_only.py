"""The commit of a transaction that wrote nothing: the client validates its
reads with a READ to each owner, and leaves out the latest read when it
was unlocked, or when the owners of a group round vouched for it."""

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
                keys = rpc.dec_read_req(env.payload)[0]
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


def read_round(cs, keys, read_only=False):
    """Read `keys` in one round, then commit; returns (ok, reason, the
    versions read before the commit, the handle)."""
    h = cl.TxnHandle(read_only=read_only)
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
        hits = cs.cache.hits
        yield from cl.txn_read(cs, h1, y)
        assert cs.cache.hits == hits + 1  # h2's answer, from the cache
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


# -- owner-validated group rounds ---------------------------------------------


def read_answers(sim, client):
    """From now on, record (server, tokens) of every READ answer put on the
    wire to `client`; tokens is empty unless the answer vouches."""
    seen = []
    orig = sim.net_send

    def net_send(src, dst, env):
        if dst == ("c", client.client_id) and env.msg_type == MsgType.RESPONSE:
            seen.append((src[1], rpc.dec_read_resp(rpc.dec_response(env.payload)[1])[2]))
        orig(src, dst, env)

    sim.net_send = net_send
    return seen


def dropping(sim, msg_type, dest):
    """Drop every `msg_type` sent to server `dest` until the returned
    callable is called."""
    on = True
    orig = sim.net_send

    def net_send(src, dst, env):
        if not (on and env.msg_type == msg_type and dst == ("s", dest)):
            orig(src, dst, env)

    def stop():
        nonlocal on
        on = False

    sim.net_send = net_send
    return stop


def two_owner_keys(sim, value=b"v1"):
    """x on server 0 and y on server 1, both written once and settled."""
    x = keys_owned_by(0, sim.members, 1)[0]
    y = keys_owned_by(1, sim.members, 1)[0]
    assert commit_txn(sim, sim.new_client(seed=1), [x, y], {x: value, y: value})[0]
    sim.run(0.5)
    return x, y


def read_groups_gone(sim):
    """Two GC ticks with no traffic leave no group at any owner."""
    sim.run(2 * sim.config.gc_period + 0.01)
    return [n.node.stats_dump()["read_groups"] for n in sim.nodes.values()] == [0] * len(sim.nodes)


def test_declared_two_owner_round_is_validated_by_its_owners():
    sim = make_sim(3, seed=18)
    home = keys_owned_by(0, sim.members, 2)
    k1 = keys_owned_by(1, sim.members, 1)[0]
    keys = [*home, k1]
    assert commit_txn(sim, sim.new_client(seed=1), keys, {k: b"w" for k in keys})[0]
    sim.run(0.5)

    reader = sim.new_client(seed=2)
    msgs = server_counts(sim)
    sent = client_sends(sim)
    answers = read_answers(sim, reader)
    ok, reason, seen, h = run_gen(sim, reader, read_round(reader.state, keys, read_only=True))
    assert ok and reason is None and h.attempts == 1 and seen == {k: 1 for k in keys}
    # two READs, one notice from each owner to the other, and no validation READ
    assert sent == [(0, "READ", tuple(home)), (1, "READ", k1)]
    assert reader.state.stats["rpcs"] == 2
    assert {m: n - msgs.get(m, 0) for m, n in server_counts(sim).items() if n != msgs.get(m, 0)} == {
        "READ_NOTICE": 2
    }
    assert len(answers) == 2 and answers[0][1] == answers[1][1] != ()
    assert h.fresh == (reader.state.next_msg_id, frozenset(keys))

    # an undeclared handle keeps the plain round and its validation round
    reader = sim.new_client(seed=3)
    del sent[:]
    msgs = server_counts(sim)
    ok, reason, seen, h = run_gen(sim, reader, read_round(reader.state, keys))
    assert ok and h.attempts == 1
    assert types(sent) == ["READ"] * 4 and server_counts(sim) == msgs
    quiet(sim)
    assert read_groups_gone(sim)


def test_a_read_only_handle_refuses_a_write():
    h = cl.TxnHandle(read_only=True)
    with pytest.raises(ValueError):
        cl.txn_write(h, b"k", b"v")
    assert h.writes == {}


def holding(sim, msg_type, dest, sender=None):
    """Hold back every `msg_type` sent to server `dest`, by `sender` if
    given; the returned callable sends what it held and stops holding."""
    held = []
    orig = sim.net_send

    def net_send(src, dst, env):
        if held is not None and env.msg_type == msg_type and dst == ("s", dest) and sender in (None, src):
            held.append((src, dst, env))
        else:
            orig(src, dst, env)

    def release():
        nonlocal held
        msgs, held = held, None
        for msg in msgs:
            orig(*msg)

    sim.net_send = net_send
    return release


def served(sim, sid, mark):
    """Server `sid` served a group READ since trace position `mark`: it sent
    the round's notice."""
    return any(e[1] == sid and e[2] == "msg.send" and e[3]["type"] == "READ_NOTICE" for e in sim.trace[mark:])


# The three races below each finish well inside one client resend period
# (client.RPC_TIMEOUT), so every READ is sent once and every answer comes
# from the owners' validation, not from a resend answered at once.


def test_writer_applied_between_the_two_servings_is_not_vouched_for():
    """x's owner serves x; a writer of x and y then commits and applies at
    both owners; only then does y's owner serve y.  Neither key is locked
    at either serving, but x moved before x's owner heard y's notice, so x's
    owner does not vouch; its answer holds x as it is now, and the
    validation round commits."""
    sim = make_sim(3, seed=20)
    x, y = two_owner_keys(sim)
    writer, reader = sim.new_client(seed=1), sim.new_client(seed=2)
    release = holding(sim, MsgType.READ, 1, ("c", reader.client_id))  # y's READ waits
    mark = len(sim.trace)
    box = []
    reader.run(read_round(reader.state, [x, y], read_only=True), box.append)
    step_until(sim, lambda: served(sim, 0, mark))
    assert commit_txn(sim, writer, [x, y], {x: b"v2", y: b"v2"})[0]
    step_until(sim, lambda: sim.nodes[1].node.storage.current_version(y) == 2)
    answers = read_answers(sim, reader)
    sent = client_sends(sim)
    release()
    step_until(sim, lambda: box)
    ok, reason, seen, h = box[0][1]
    # y's owner heard x's notice before it served y and vouches for y; x's
    # owner heard y's notice after x moved and does not
    assert sorted((sid, tokens != ()) for sid, tokens in answers[:2]) == [(0, False), (1, True)]
    assert ok and h.attempts == 1 and seen == {x: 2, y: 2}
    assert sent == [(0, "READ", x), (1, "READ", y)]  # the validation round, and no resend
    quiet(sim)
    assert read_groups_gone(sim)


def test_key_locked_between_serving_and_validation_is_not_vouched_for():
    """y's owner serves y; a writer of x and y prepares at both owners and
    applies at x's owner, while its decision to y's owner is lost; only then
    does x's owner serve x, new and unlocked.  y still has the version
    served, but it is locked when its owner validates, so it does not
    vouch, and the validation round is refused."""
    sim = make_sim(3, seed=21)
    x, y = two_owner_keys(sim)
    writer, reader = sim.new_client(seed=1), sim.new_client(seed=2)
    reader.state.max_retries = 1
    release = holding(sim, MsgType.READ, 0, ("c", reader.client_id))  # x's READ waits
    mark = len(sim.trace)
    answers = read_answers(sim, reader)
    box = []
    reader.run(read_round(reader.state, [x, y], read_only=True), box.append)
    step_until(sim, lambda: served(sim, 1, mark))
    deliver = dropping(sim, MsgType.COMMIT_DECISION, 1)
    assert commit_txn(sim, writer, [x, y], {x: b"v2", y: b"v2"})[0]
    n1 = sim.nodes[1].node
    assert n1.locks.exclusively_held(y) and n1.storage.current_version(y) == 1
    release()
    step_until(sim, lambda: box)
    ok, reason, seen, _ = box[0][1]
    assert sorted((sid, tokens != ()) for sid, tokens in answers[:2]) == [(0, True), (1, False)]
    assert seen == {x: 2, y: 1}  # the fractured view
    assert not ok and reason == AbortReason.LOCK_DENIED_READ
    assert reader.state.stats["rpcs"] == 4  # two READs, then the validation round

    deliver()
    sim.run(1.0)  # the decision resend reaches server 1, which applies y
    reader.state.max_retries = 12
    ok, reason, seen, h = run_gen(sim, reader, read_round(reader.state, [x, y], read_only=True))
    assert ok and h.attempts == 1 and seen == {x: 2, y: 2}
    quiet(sim)
    assert read_groups_gone(sim)


def test_key_changed_between_serving_and_validation_is_not_vouched_for():
    """Both owners serve; x's owner hears y's notice and vouches for old x;
    a writer of x and y then commits and applies at both owners; only then
    does y's owner hear x's notice.  y moved since it was served, so y's
    owner answers new y without a vouch: the round holds old x and new y,
    and the validation round refuses it, then the retry commits."""
    sim = make_sim(3, seed=27)
    x, y = two_owner_keys(sim)
    writer, reader = sim.new_client(seed=1), sim.new_client(seed=2)
    release = holding(sim, MsgType.READ_NOTICE, 1)  # x's notice waits
    answers = read_answers(sim, reader)
    box = []
    reader.run(read_round(reader.state, [x, y], read_only=True), box.append)
    step_until(sim, lambda: answers)
    assert answers[0][0] == 0 and answers[0][1] != ()  # x's owner vouched for old x
    assert commit_txn(sim, writer, [x, y], {x: b"v2", y: b"v2"})[0]
    step_until(sim, lambda: sim.nodes[1].node.storage.current_version(y) == 2)
    release()
    step_until(sim, lambda: box)
    ok, reason, seen, h = box[0][1]
    assert answers[1][0] == 1 and answers[1][1] == ()
    assert seen == {x: 1, y: 2}  # the fractured view
    assert ok and h.attempts == 2 and h.reads == {x: (b"v2", 2), y: (b"v2", 2)}
    # two READs; the validation round, refused STALE_READ by x's owner
    # alone, which vouches for x's new entry; then y's validation alone
    assert reader.state.stats["rpcs"] == 5
    quiet(sim)
    assert read_groups_gone(sim)


def test_a_lost_notice_leaves_the_commit_to_the_validation_round():
    sim = make_sim(3, seed=22)
    x, y = two_owner_keys(sim)
    reader = sim.new_client(seed=2)
    deliver = dropping(sim, MsgType.READ_NOTICE, 0)
    sent = client_sends(sim)
    answers = read_answers(sim, reader)
    ok, reason, seen, h = run_gen(sim, reader, read_round(reader.state, [x, y], read_only=True))
    deliver()
    assert ok and h.attempts == 1 and seen == {x: 1, y: 1}
    # x's owner waits for the notice, y's answers; x's READ is resent and
    # answered at once, unvalidated, and both owners are asked again
    assert types(sent) == ["READ"] * 5 and [d for d, _, _ in sent] == [0, 1, 0, 0, 1]
    # y's owner heard x's notice and vouches; x's owner answers unvalidated
    assert [(sid, tokens != ()) for sid, tokens in answers] == [(1, True), (0, False), (0, False), (1, False)]
    quiet(sim)
    assert read_groups_gone(sim)


def test_a_peer_restarted_after_its_notice_is_not_paired_with_the_older_serving():
    """y's owner serves y, tells x's owner and crashes before it answers.
    x's owner serves x and vouches against that notice.  A writer of x and
    y then commits, and only then does the restarted y's owner serve y
    anew, and vouch against x's notice.  Each answer names the servings it
    heard of, so the client sees two servings of y and validates."""
    sim = make_sim(3, seed=23)
    x, y = two_owner_keys(sim)
    writer, reader = sim.new_client(seed=1), sim.new_client(seed=2)
    reader.state.max_retries = 1
    cut0 = sim.partition([("c", reader.client_id)], [0])  # hold x's READ back
    mark = len(sim.trace)
    answers = read_answers(sim, reader)
    box = []
    reader.run(read_round(reader.state, [x, y], read_only=True), box.append)
    step_until(sim, lambda: any(
        e[1] == 1 and e[2] == "msg.send" and e[3]["type"] == "READ_NOTICE" for e in sim.trace[mark:]
    ))
    sim.crash(1)
    cut1 = sim.partition([("c", reader.client_id)], [1])  # hold y's resends back
    sim.run(0.01)  # the notice lands at server 0
    sim.restart(1)
    sim.heal(cut0)
    step_until(sim, lambda: answers)
    assert answers[0][0] == 0 and answers[0][1] != ()  # x's owner vouched
    assert commit_txn(sim, writer, [x, y], {x: b"v2", y: b"v2"})[0]
    sim.heal(cut1)
    step_until(sim, lambda: box)
    ok, reason, seen, _ = box[0][1]
    assert [(sid, tokens != ()) for sid, tokens in answers[:2]] == [(0, True), (1, True)]
    assert answers[0][1] != answers[1][1]  # two servings of y
    assert seen == {x: 1, y: 2}  # the fractured view
    assert not ok and reason == AbortReason.STALE_READ
    quiet(sim)
    assert read_groups_gone(sim)


def test_a_crashed_peer_owner_times_the_round_out():
    sim = make_sim(3, seed=24)
    x, y = two_owner_keys(sim)
    reader = sim.new_client(seed=2)
    sim.crash(1)
    with pytest.raises(cl.ReadUnavailableError):
        run_gen(sim, reader, read_round(reader.state, [x, y], read_only=True))
    sim.restart(1)
    assert read_groups_gone(sim)
    ok, reason, seen, h = run_gen(sim, reader, read_round(reader.state, [x, y], read_only=True))
    assert ok and h.attempts == 1 and seen == {x: 1, y: 1}
    quiet(sim)
    assert read_groups_gone(sim)


def test_a_cache_hit_after_a_vouched_round_is_validated_with_the_round():
    """A vouching answer's updates block is built when its owner validates,
    after the round's common instant, so a read taken from the cache after
    the round cancels the vouch and the commit validates every key."""
    sim = make_sim(3, seed=25)
    x, y = two_owner_keys(sim)
    z = keys_owned_by(0, sim.members, 2)[1]
    reader = sim.new_client(seed=2)
    assert commit_txn(sim, reader, [z], {z: b"z1"})[0]  # z is cached

    def gen(cs):
        h = cl.TxnHandle(read_only=True)
        yield from cl.txn_read_many(cs, h, [x, y])
        assert h.fresh is not None
        yield from cl.txn_read(cs, h, z)
        assert h.fresh is None
        return (yield from cl.txn_commit(cs, h))

    sent = client_sends(sim)
    assert run_gen(sim, reader, gen(reader.state)) == (True, None)
    assert types(sent) == ["READ"] * 4
    quiet(sim)


def test_stats_dump_counts_groups_records_clients_and_lock_entries():
    sim = make_sim(3, seed=26)
    x, y = two_owner_keys(sim)
    n0 = sim.nodes[0].node
    gauges = ("read_groups", "coord_records", "part_records", "dedup_clients", "lock_entries")
    stats = n0.stats_dump()
    assert stats["read_groups"] == 0 and stats["lock_entries"] == 0 and stats["dedup_clients"] == 1
    assert all(isinstance(stats[g], int) for g in gauges)

    # x's owner holds the group while y's notice is lost, then answers the
    # resend and remembers the group as answered until the next GC tick
    deliver = dropping(sim, MsgType.READ_NOTICE, 0)
    reader = sim.new_client(seed=2)
    box = []
    reader.run(read_round(reader.state, [x, y], read_only=True), box.append)
    step_until(sim, lambda: n0.stats_dump()["read_groups"] == 1)
    assert n0._groups[next(iter(n0._groups))] is not None
    step_until(sim, lambda: box)
    deliver()
    assert box[0][1][0] is True
    assert read_groups_gone(sim)
