"""End-to-end protocol behaviour under the deterministic simulator."""

import json
import os
import subprocess
import sys

from conftest import commit_txn, make_sim, run_gen, txn_gen

from dtx import oracle
from dtx.cli import format_trace
from dtx.sim import CrashPlan, NetConfig, Simulator
from dtx.server import ACK_FLUSH_PERIOD, ServerNode, owner_of
from dtx.workload import WorkloadSpec, txn_script
from dtx.sim import ClosedLoopDriver


def keys_owned_by(sid, members, want=4):
    out = []
    i = 0
    while len(out) < want:
        k = b"key-%d" % i
        if owner_of(k, members) == sid:
            out.append(k)
        i += 1
    return out


def key_spanning(members):
    """One key per server, so any two span owners."""
    return {sid: keys_owned_by(sid, members, 1)[0] for sid in members}


# -- basic commit paths -----------------------------------------------------------


def test_commit_then_read_back(sim3):
    c = sim3.new_client(seed=1)
    k = keys_owned_by(0, sim3.members, 1)[0]
    ok, reason, _ = commit_txn(sim3, c, [k], {k: b"v1"})
    assert ok and reason is None
    # a fresh client (empty cache) observes the committed value at version 1
    c2 = sim3.new_client(seed=2)
    ok2, _, h = commit_txn(sim3, c2, [k], {})
    assert ok2 and h.reads[k] == (b"v1", 1)
    assert sim3.global_state()[k] == (b"v1", 1)


def test_conflicting_writers_serialize(sim3):
    k = keys_owned_by(1, sim3.members, 1)[0]
    c1, c2 = sim3.new_client(seed=1), sim3.new_client(seed=2)
    results = []
    for c, v in ((c1, b"a"), (c2, b"b")):
        results.append(commit_txn(sim3, c, [k], {k: v}))
    assert all(ok for ok, _, _ in results)
    # two committed writes: final version is 2
    assert sim3.global_state()[k][1] == 2
    txns = [
        {"reads": {kk: vv[1] for kk, vv in h.reads.items()}, "writes": dict(h.writes)}
        for _, _, h in results
    ]
    assert oracle.check_history(txns).ok is True


# -- determinism --------------------------------------------------------------------


def run_fixed_workload(seed):
    sim = make_sim(3, seed=seed)
    spec = WorkloadSpec(key_count=8, read_fraction=0.5)
    drivers = []
    for i in range(3):
        c = sim.new_client(seed=seed * 100 + i)
        d = ClosedLoopDriver(sim, c, txn_script(spec), until=2.0, max_txns=10)
        d.start()
        drivers.append(d)
    sim.run_until(5.0)
    history = [rec for d in drivers for rec in d.history]
    return sim, history


def test_same_seed_is_bit_identical():
    sim_a, hist_a = run_fixed_workload(42)
    sim_b, hist_b = run_fixed_workload(42)
    assert format_trace(sim_a.trace) == format_trace(sim_b.trace)
    assert hist_a == hist_b
    assert sim_a.msgs_total == sim_b.msgs_total
    # a different seed takes a different path
    sim_c, hist_c = run_fixed_workload(43)
    assert format_trace(sim_a.trace) != format_trace(sim_c.trace)


# One contended run, printed as JSON: commit count, latencies, final state.
CONTENDED_RUN = """
import json
from dtx.bench import run_sim_bench
from dtx.workload import WorkloadSpec
spec = WorkloadSpec(key_count=64, read_fraction=0.5, clients=8, duration=0.5, seed=1)
report, sim = run_sim_bench([0, 1, 2], spec, tail=0.0)
done = [r for r in report.history if r["ok"]]
print(json.dumps({
    "commits": len(done),
    "latencies": [r["finished"] - r["started"] for r in done],
    "state": sorted([k.hex(), v.hex(), ver] for k, (v, ver) in sim.global_state().items()),
}))
"""


def test_contended_run_does_not_depend_on_the_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = []
    for hash_seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", CONTENDED_RUN], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        runs.append(json.loads(out.stdout))
    assert runs[0]["commits"] > 100
    assert runs[0] == runs[1]


# -- message accounting ----------------------------------------------------------


def test_single_owner_commit_sends_no_server_messages():
    sim = make_sim(3, seed=5)
    sim.audit_messages = True
    c = sim.new_client(seed=1)
    ks = keys_owned_by(2, sim.members, 2)
    ok, _, _ = commit_txn(sim, c, ks, {ks[0]: b"x"})
    assert ok
    assert sim.msgs_by_tranx == {}  # decided locally, zero wire messages
    assert sum(sim.server_msgs.values()) == 0


def test_two_owner_commit_uses_four_messages_per_remote_participant():
    sim = make_sim(3, seed=5)
    sim.audit_messages = True
    span = key_spanning(sim.members)
    ks = [span[0], span[1]]
    c = sim.new_client(seed=1)
    ok, _, _ = commit_txn(sim, c, ks, {k: b"y" for k in ks})
    assert ok
    sim.run(2.0)  # let the batched decision and its ack flush
    (counts,) = sim.msgs_by_tranx.values()
    assert counts["PREPARE"] == 1  # one remote participant
    assert counts["READY"] == 1
    assert counts["COMMIT_DECISION"] == 1
    assert counts["ACK"] == 1
    assert sum(counts.values()) == 4


def test_three_owner_commit_scales_per_participant():
    sim = make_sim(3, seed=5)
    sim.audit_messages = True
    span = key_spanning(sim.members)
    ks = list(span.values())
    c = sim.new_client(seed=1)
    ok, _, _ = commit_txn(sim, c, ks, {k: b"z" for k in ks})
    assert ok
    sim.run(2.0)
    (counts,) = sim.msgs_by_tranx.values()
    assert counts["PREPARE"] == 2 and counts["READY"] == 2
    assert counts["COMMIT_DECISION"] == 2 and counts["ACK"] == 2


def test_commit_decision_is_sent_in_the_step_that_persists_it():
    sim = make_sim(3, seed=5)
    span = key_spanning(sim.members)
    c = sim.new_client(seed=1)
    assert commit_txn(sim, c, list(span.values()), {k: b"d" for k in span.values()})[0]
    decided = [i for i, e in enumerate(sim.trace) if e[2] == "coord.state" and e[3]["to"] == "Commit"]
    assert len(decided) == 1
    at, sid, _, info = sim.trace[decided[0]]
    step = []  # what the coordinator did in the step that persisted CoordCommit
    for e in sim.trace[decided[0] + 1:]:
        if e[0] != at or e[1] != sid or e[2] == "msg.recv":
            break
        step.append(e)
    sent = [e[3]["dest"] for e in step if e[2] == "msg.send" and e[3]["type"] == "COMMIT_DECISION"
            and e[3]["tranx"] == info["tranx"]]
    assert sorted(sent) == [s for s in sim.members if s != sid]


def test_idle_node_sleeps_and_decisions_flush_on_the_tick_grid(monkeypatch):
    sim = make_sim(3, seed=5)
    ticks = []
    orig_tick = ServerNode._ack_tick
    monkeypatch.setattr(
        ServerNode, "_ack_tick", lambda self: ticks.append(sim.now) or orig_tick(self)
    )
    sim.run(1.0)
    assert ticks == []  # nothing batched: the flush tick stays unarmed
    span = key_spanning(sim.members)
    c = sim.new_client(seed=1)
    assert commit_txn(sim, c, list(span.values()), {k: b"g" for k in span.values()})[0]
    sim.run(2.0)
    assert ticks
    # every node started at time 0, so its grid is the multiples of the period
    assert all(abs(t / ACK_FLUSH_PERIOD - round(t / ACK_FLUSH_PERIOD)) < 1e-6 for t in ticks)
    assert all(n.node._ack_timer is None for n in sim.nodes.values())


# -- crash/recovery ---------------------------------------------------------------


def test_committed_data_survives_participant_crash():
    sim = make_sim(3, seed=9)
    c = sim.new_client(seed=1)
    span = key_spanning(sim.members)
    ks = [span[0], span[1]]
    ok, _, _ = commit_txn(sim, c, ks, {k: b"durable" for k in ks})
    assert ok
    sim.crash(1)
    sim.run(0.2)
    sim.restart(1)
    sim.run(1.0)
    state = sim.global_state()
    for k in ks:
        assert state[k] == (b"durable", 1)
    assert oracle.duplicate_applies(sim.trace) == []
    assert oracle.atomicity_violations(sim.trace) == []


def test_crash_point_enumeration_and_injection():
    # pass 1: enumerate the crash points one fixed commit hits on server 0
    sim = make_sim(3, seed=11)
    span = key_spanning(sim.members)
    ks = [span[0], span[1]]
    points = []
    sim.crash_plan = CrashPlan(sid=0, collect=points)
    c = sim.new_client(seed=1)
    commit_txn(sim, c, ks, {k: b"p" for k in ks})
    sim.run(1.0)
    assert points, "commit hit no crash points"
    labels = {label for _, label in points}
    assert any(l.startswith("wal.") for l in labels)
    assert any(l.startswith("send.") or l.startswith("recv.") for l in labels)

    # pass 2: same run, crash at the first durable-append point, then recover
    sim2 = make_sim(3, seed=11)
    sim2.auto_restart = 0.100
    sim2.crash_plan = CrashPlan(sid=0, index=0)
    c2 = sim2.new_client(seed=1)
    ok, reason, _ = commit_txn(sim2, c2, ks, {k: b"p" for k in ks})
    sim2.run(2.0)
    assert sim2.crash_plan.fired and sim2.crashes >= 1
    assert oracle.double_decisions(sim2.trace) == []
    assert oracle.atomicity_violations(sim2.trace) == []
    if ok:  # if the client saw success the write must be everywhere it belongs
        state = sim2.global_state()
        assert all(state[k][0] == b"p" for k in ks)


# -- adverse network -----------------------------------------------------------------


def test_drops_and_duplicates_preserve_exactly_once():
    sim = make_sim(3, seed=13, net=NetConfig(drop_p=0.15, dup_p=0.3))
    c = sim.new_client(seed=1)
    span = key_spanning(sim.members)
    outcomes = []
    for i in range(10):
        ks = [span[i % 3], span[(i + 1) % 3]]
        outcomes.append(commit_txn(sim, c, ks, {ks[0]: b"v%d" % i}, timeout=60.0))
    sim.run(3.0)
    assert any(ok for ok, _, _ in outcomes)
    assert oracle.duplicate_applies(sim.trace) == []
    assert oracle.double_decisions(sim.trace) == []
    assert oracle.atomicity_violations(sim.trace) == []
    assert oracle.locks_clean(sim) == []


def test_partition_commit_aborts_safely_then_heals():
    sim = make_sim(3, seed=17)
    span = key_spanning(sim.members)
    ks = [span[0], span[1]]
    # cut coordinator 0 off from participant 1: prepare can't reach it
    rule = sim.partition([0], [1])
    c = sim.new_client(seed=1, rpc_tries=3, rpc_timeout=0.05)
    ok, reason, _ = commit_txn(sim, c, ks, {k: b"w" for k in ks}, timeout=120.0)
    assert not ok  # the client cannot see a commit across the cut
    sim.heal(rule)
    sim.run(2.0)  # the in-doubt transaction resolves one way or the other
    c2 = sim.new_client(seed=2)
    ok2, _, _ = commit_txn(sim, c2, ks, {k: b"after" for k in ks})
    assert ok2
    sim.run(1.0)  # let the remote participant apply the decision
    state = sim.global_state()
    assert all(state[k][0] == b"after" for k in ks)
    assert oracle.atomicity_violations(sim.trace) == []
    assert oracle.locks_clean(sim) == []
