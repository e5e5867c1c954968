"""End-to-end protocol behaviour under the deterministic simulator."""

import json
import os
import subprocess
import sys

from conftest import commit_txn, make_sim, run_gen, txn_gen

import pytest

from dtx import oracle, rpc
from dtx import sim as simmod
from dtx.bench import run_sim_bench
from dtx.cli import format_trace
from dtx.model import Transaction, TranxID
from dtx.rpc import AbortReason, Envelope, MsgType
from dtx.sim import CrashPlan, NetConfig, Simulator
from dtx.server import PREPARE_BUDGET, RESEND, ServerNode, owner_of
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
    sim.run(2.0)  # let the decision and its ack land
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


def record_ack_ticks(monkeypatch, sim):
    """Record (time, sid) of every _ack_tick run."""
    ticks = []
    orig_tick = ServerNode._ack_tick
    monkeypatch.setattr(
        ServerNode, "_ack_tick", lambda self: ticks.append((sim.now, self.sid)) or orig_tick(self)
    )
    return ticks


def record_timers(monkeypatch):
    """Record (sid, callback name) of every timer a server node arms."""
    armed = []
    orig_set = simmod._Ctx.set_timer
    monkeypatch.setattr(
        simmod._Ctx,
        "set_timer",
        lambda self, delay, fn: armed.append((self.sid, getattr(fn, "__name__", "")))
        or orig_set(self, delay, fn),
    )
    return armed


def drop_where(sim, pred):
    """Drop every message pred(dst, env, number dropped so far) selects."""
    orig_send = sim.net_send
    dropped = []

    def net_send(src, dst, env):
        if pred(dst, env, len(dropped)):
            dropped.append(env)
            return
        orig_send(src, dst, env)

    sim.net_send = net_send
    return dropped


def resend_idle(sim):
    return all(not n.node._resend and n.node._resend_timer is None for n in sim.nodes.values())


def sends(sim, msg_type):
    return [e for e in sim.trace if e[2] == "msg.send" and e[3]["type"] == msg_type]


def test_idle_node_arms_nothing_and_the_resend_timer_runs_at_most_once_per_resend(monkeypatch):
    armed = record_timers(monkeypatch)
    sim = make_sim(3, seed=5)
    ticks = record_ack_ticks(monkeypatch, sim)
    sim.run(1.0)
    assert [name for _, name in armed if name != "_gc_tick"] == []
    assert ticks == [] and resend_idle(sim)
    span = key_spanning(sim.members)
    c = sim.new_client(seed=1)
    start = sim.now
    for i in range(20):
        assert commit_txn(sim, c, list(span.values()), {k: b"g%d" % i for k in span.values()})[0]
    sim.run(0.5)
    per_resend = (sim.now - start) / RESEND + 1
    for sid in sim.members:
        assert sum(1 for _, s in ticks if s == sid) <= per_resend
    assert resend_idle(sim)


def test_lost_ack_resends_the_decision_once_after_resend():
    sim = make_sim(3, seed=5)
    span = key_spanning(sim.members)
    ks = [span[0], span[1]]
    dropped = drop_where(sim, lambda dst, env, n: env.msg_type == MsgType.ACK and n == 0)
    c = sim.new_client(seed=1)
    assert commit_txn(sim, c, ks, {k: b"a" for k in ks})[0]
    sim.run(2.0)
    assert len(dropped) == 1
    sent = [e[0] for e in sends(sim, "COMMIT_DECISION")]
    assert len(sent) == 2
    assert sent[1] - sent[0] == pytest.approx(RESEND, abs=1e-9)
    assert len(sends(sim, "ACK")) == 2
    assert resend_idle(sim)


def test_silent_owner_times_out_after_prepare_budget_rounds(monkeypatch):
    sim = make_sim(3, seed=5)
    ticks = record_ack_ticks(monkeypatch, sim)
    span = key_spanning(sim.members)
    dropped = drop_where(
        sim, lambda dst, env, n: env.msg_type == MsgType.PREPARE and dst == ("s", 1)
    )
    txn = Transaction(((span[0], 0), (span[1], 0)), ((span[0], b"x"), (span[1], b"y")))
    node = sim.nodes[0].node
    start = sim.now
    rec = node.coord[node.coordinate(txn, None)]
    sim.run(3.0)
    assert len(dropped) == PREPARE_BUDGET  # the first round and PREPARE_BUDGET - 1 resends
    prepared = [e[0] - start for e in sends(sim, "PREPARE")]
    assert prepared == pytest.approx([RESEND * i for i in range(PREPARE_BUDGET)], abs=1e-9)
    (aborted,) = [e[0] - start for e in sim.trace if e[2] == "coord.state" and e[3]["to"] == "Abort"]
    assert aborted == pytest.approx(RESEND * PREPARE_BUDGET, abs=1e-9)
    # one tick per round; then at most one more, armed for the abort's ack
    assert [at - start for at, _ in ticks][:PREPARE_BUDGET] == prepared[1:] + [aborted]
    assert len(ticks) <= PREPARE_BUDGET + 1
    assert rec.decision == "Abort" and rec.abort_reason is AbortReason.TIMEOUT
    assert rec.complete and resend_idle(sim)
    assert oracle.locks_clean(sim) == []


def test_contended_run_arms_few_timers_per_2pc_decision(monkeypatch):
    armed = record_timers(monkeypatch)
    decided = []
    orig_decide = ServerNode._decide
    monkeypatch.setattr(
        ServerNode, "_decide", lambda self, *a: decided.append(a[1]) or orig_decide(self, *a)
    )
    spec = WorkloadSpec(key_count=64, read_fraction=0.5, clients=4, duration=1.0, seed=1000)
    report, sim = run_sim_bench([0, 1, 2], spec, tail=0.0)
    assert report.committed > 1000 and len(decided) > 500
    assert len(armed) / len(decided) < 0.1
    assert resend_idle(sim)


# -- malformed input -------------------------------------------------------------

SLICE = rpc.enc_txn(Transaction(((b"k", 0),), ((b"k", b"v"),)))
UNKNOWN = rpc.enc_commit_resp(False, AbortReason.UNKNOWN, [])

# (message type, transaction: none/pending/foreign, payload, expected reply)
MALFORMED = {
    "prepare-without-tranx": (MsgType.PREPARE, "none", SLICE, None),
    "ready-without-tranx": (MsgType.READY, "none", b"", None),
    "commit-decision-without-tranx": (MsgType.COMMIT_DECISION, "none", b"", None),
    "abort-decision-without-tranx": (MsgType.ABORT_DECISION, "none", b"", None),
    "ack-without-tranx": (MsgType.ACK, "none", b"", None),
    "status-without-tranx": (MsgType.TRANX_STATUS, "none", b"", None),
    "truncated-read": (MsgType.READ, "none", b"\x05\x00", None),
    "truncated-validate": (MsgType.VALIDATE, "none", b"\x01\x00\x00\x00\x02", UNKNOWN),
    "truncated-commit": (MsgType.COMMIT, "none", b"\x01", UNKNOWN),
    "truncated-prepare": (MsgType.PREPARE, "foreign", b"\x01\x00", None),
    "truncated-abort-vote": (MsgType.ABORT_DECISION, "pending", b"\x00", None),
    "truncated-gc-lc": (MsgType.GC_LC, "none", b"\x01", None),
    "truncated-status-answer": (MsgType.RESPONSE, "none", b"\x01", None),
    "unknown-status-answer": (MsgType.RESPONSE, "none", rpc.enc_status_resp("Pendin"), None),
}


def node_state(node):
    return repr((
        node.coord, node.part, node.pending_client, node._pending_status, node._resend,
        node.dedup._tranx, node.dedup.size(), node.dedup.duplicates_blocked, node.stats,
        node.locks.stats(), node.gc.table, node.issuer.last_issued,
    ))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_message_changes_nothing(case):
    msg_type, which, payload, reply = MALFORMED[case]
    sim = make_sim(3, seed=5)
    span = key_spanning(sim.members)
    c = sim.new_client(seed=1)
    assert commit_txn(sim, c, list(span.values()), {k: b"m" for k in span.values()})[0]
    node = sim.nodes[0].node
    txn = Transaction(((span[0], 1), (span[1], 1)), ((span[0], b"p"), (span[1], b"q")))
    pending = node.coordinate(txn, None)  # waiting for owner 1's vote
    tranx = {"none": None, "pending": pending, "foreign": TranxID(1, 99)}[which]
    if msg_type in (MsgType.READ, MsgType.VALIDATE, MsgType.COMMIT):
        env = Envelope(msg_type, rpc.CLIENT, c.client_id, 77, tranx, payload)
    else:
        env = Envelope(msg_type, rpc.SERVER, 1, 77, tranx, payload)
    before = node_state(node)
    sent = []
    sim.net_send = lambda src, dst, e: sent.append(e)
    trace_len = len(sim.trace)
    node.on_message(env)
    assert node_state(node) == before
    if reply is None:
        assert sent == []
        assert any(e[2] == "msg.malformed" for e in sim.trace[trace_len:])
    else:
        assert [e.payload for e in sent] == [reply]


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
