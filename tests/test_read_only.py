"""The validate-only commit of a transaction that wrote nothing."""

import pytest

from conftest import commit_txn, make_sim, run_gen, txn_gen
from test_sim import keys_owned_by

from dtx import oracle
from dtx.bench import preload_sim, start_clients
from dtx.model import PartState
from dtx.rpc import AbortReason
from dtx.wal import LogManager, TranxLog
from dtx.workload import WorkloadSpec, key_bytes


def server_counts(sim):
    """Server-to-server messages sent so far, heartbeats left out."""
    return {m: n for m, n in sim.server_msgs.items() if m != "GC_LC"}


def quiet(sim):
    """Every node idle: no read-only commit or VALIDATE answer outstanding."""
    for n in sim.nodes.values():
        node = n.node
        assert node.validating == {} and node._validate_msgs == {}
        assert node.stats_dump()["in_flight_read_only"] == 0
    assert oracle.locks_clean(sim) == []


def step_until(sim, pred, timeout=5.0):
    deadline = sim.now + timeout
    while not pred():
        assert sim._heap and sim._heap[0][0] <= deadline, "condition never held"
        sim.run_until(sim._heap[0][0])


@pytest.mark.parametrize("owners", [1, 2, 3])
def test_read_only_commit_logs_locks_and_numbers_nothing(owners, monkeypatch):
    sim = make_sim(3, seed=3)
    # two keys on server 0 make it the coordinator; one on each other owner
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
    issued = [node.issuer.last_issued for node in nodes]
    dedup = [node.dedup.size() for node in nodes]
    msgs = server_counts(sim)
    mark = len(sim.trace)

    ok, reason, h = commit_txn(sim, sim.new_client(seed=2), keys, {})
    assert ok and reason is None and h.attempts == 1
    assert all(ver == 1 for _, ver in h.reads.values())

    assert appends == []
    assert [e for e in sim.trace[mark:] if e[2] == "lock.grant"] == []
    assert [node.issuer.last_issued for node in nodes] == issued
    assert [node.dedup.size() for node in nodes] == dedup
    after = server_counts(sim)
    sent = {m: after.get(m, 0) - msgs.get(m, 0) for m in after}
    sent = {m: n for m, n in sent.items() if n}
    expected = {"VALIDATE": owners - 1, "RESPONSE": owners - 1} if owners > 1 else {}
    assert sent == expected
    assert sim.nodes[0].node.stats["read_only"] == 1
    quiet(sim)


def test_fractured_read_is_denied_until_the_decision_lands():
    sim = make_sim(3, seed=4)
    x = keys_owned_by(0, sim.members, 1)[0]
    y = keys_owned_by(1, sim.members, 1)[0]
    z = keys_owned_by(2, sim.members, 2)  # two keys: server 2 coordinates the reader

    # writer: x on 0 (its coordinator) and y on 1; cut 0 from 1 once 1 is
    # Ready, so 0 applies x at its decision while 1 stays prepared on y
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
    ok, reason, h = commit_txn(sim, reader, [*home, k1], {})
    assert ok and h.attempts == 2
    assert h.reads[k1] == (b"moved", 2)
    # commit, stale at server 1's VALIDATE, re-read of the two keys not in
    # the piggyback, commit: k1 came with the abort, not with a READ
    assert reader.state.stats["rpcs"] - rpcs == 4
    quiet(sim)


def test_partitioned_owner_is_resent_validate_then_commits_or_times_out():
    sim = make_sim(3, seed=6)
    keys = keys_owned_by(0, sim.members, 2) + keys_owned_by(1, sim.members, 1)
    client = sim.new_client(seed=1)
    assert commit_txn(sim, client, keys, {})[0]  # warm the cache: no READ crosses the cut

    cut = sim.partition([0], [1])
    before = sim.server_msgs["VALIDATE"]
    box = []
    client.run(txn_gen(client.state, keys, {}), box.append)
    sim.run(0.5)
    assert not box
    assert sim.server_msgs["VALIDATE"] - before >= 3  # first send and two resends
    sim.heal(cut)
    step_until(sim, lambda: box)
    ok, reason, _ = box[0][1]
    assert ok and reason is None
    sim.run(1.0)
    quiet(sim)

    # never healed: the coordinator gives up after its resend budget
    sim.partition([0], [1])
    ok, reason, _ = commit_txn(sim, client, keys, {})
    assert not ok and reason == AbortReason.TIMEOUT
    sim.run(2.0)  # a resent COMMIT that arrived after the answer validates anew, and times out
    quiet(sim)


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


def test_server_message_ids_do_not_repeat_across_restarts():
    # a late answer to a VALIDATE sent before a crash must not match one sent after
    sim = make_sim(3, seed=8)
    before = sim.nodes[0].node._next_msg_id()
    sim.crash(0)
    sim.restart(0)
    assert sim.nodes[0].node._next_msg_id() > before
