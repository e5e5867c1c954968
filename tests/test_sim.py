"""End-to-end protocol behaviour under the deterministic simulator."""

import gc
import json
import os
import subprocess
import sys
import weakref

from conftest import TEST_GC_PERIOD, commit_txn, make_sim, run_gen, txn_gen

import pytest

from dtx import client as cl
from dtx import oracle, rpc
from dtx import sim as simmod
from dtx.bench import preload_sim, run_sim_bench, start_clients
from dtx.cli import format_trace
from dtx.model import (
    CoordCommit, CoordState, PartCommit, PartReady, PartState, Transaction, TranxID, encode_record,
    part_ready_size,
)
from dtx.rpc import AbortReason, Envelope, MsgType
from dtx.sim import CrashPlan, NetConfig, SimCrash, Simulator
from dtx.server import PREPARE_BUDGET, RESEND, ServerConfig, ServerNode, owner_of
from dtx.wal import MAX_ENTRY, LogManager, TranxLog
from dtx.workload import WorkloadSpec, load_script, owner_batches, txn_script
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


def body(env):
    """A client answer's body: its payload after the updates block."""
    return rpc.dec_response(env.payload)[1]


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


# -- event loop ---------------------------------------------------------------------


def test_contended_run_keeps_a_few_events_per_client_and_node_queued():
    """Each message is one event, and each client keeps one timeout queued
    however many answered requests it has made."""
    spec = WorkloadSpec(key_count=64, read_fraction=0.5, clients=8, duration=0.5, seed=1)
    sim = make_sim(3, seed=spec.seed)
    preload_sim(sim, spec, spec.seed)
    drivers = start_clients(sim, spec)
    peak = 0
    while sim.now < spec.duration and sim.step():
        peak = max(peak, len(sim._heap))  # the event queue itself is under test
    assert sum(r["ok"] for d in drivers for r in d.history) > 1000
    assert peak <= 6 * (spec.clients + len(sim.members))
    assert sim._seq < 1.5 * sim.msgs_total  # events pushed, per message sent


@pytest.mark.parametrize("keep_trace, case", [
    (False, "finished"), (True, "finished"), (False, "in flight"), (True, "in flight"),
    (False, "crashed"), (True, "crashed"),
])
def test_dropping_a_simulator_frees_it_and_every_node_incarnation(keep_trace, case):
    """Ownership runs one way: a Simulator's parts point back at it weakly
    and no queued event holds it, so with the cyclic collector off, dropping
    the last reference to a finished round frees the Simulator and every
    ServerNode incarnation, messages still in flight or not; a crashed
    incarnation is freed at its crash, while its restart is queued."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        members = [0, 1, 2]
        sim = Simulator(members, ServerConfig(members, gc_period=TEST_GC_PERIOD), seed=3,
                        keep_trace=keep_trace)
        spec = WorkloadSpec(key_count=64, read_fraction=0.5, clients=3, duration=0.4, seed=3)
        preload_sim(sim, spec, spec.seed)
        if case == "crashed":
            sim.crash_plan = CrashPlan(sid=1, index=60)
            sim.auto_restart = 0.05
        drivers = start_clients(sim, spec)
        incarnations = weakref.WeakSet(n.node for n in sim.nodes.values())
        crashed_at = None
        while not all(d.done for d in drivers):
            before = weakref.ref(sim.nodes[1].node) if sim.nodes[1].alive else None
            crashes = sim.crashes
            assert sim.step()
            incarnations.update(n.node for n in sim.nodes.values() if n.alive)
            if sim.crashes > crashes:
                crashed_at = sim.now
                assert not sim.nodes[1].alive and before() is None
        assert sum(r["ok"] for d in drivers for r in d.history) > 50
        if case == "crashed":
            assert crashed_at is not None and sim.crashes == 1 and sim.nodes[1].alive
            assert len(incarnations) == 3  # the crashed one is gone already
        if case == "in flight":
            gc_lc = sim.server_msgs["GC_LC"]
            while sim.server_msgs["GC_LC"] == gc_lc:
                sim.step()
            assert any(fn is None for _, _, fn, _ in sim._heap)  # a GC_LC on the wire
        else:
            sim.run(1.0)
        ref = weakref.ref(sim)
        del sim, drivers
        assert ref() is None
        assert len(incarnations) == 0
    finally:
        if enabled:
            gc.enable()


def test_dropping_a_simulator_with_transactions_in_flight_frees_it():
    """A script's clock is its client's `now`, which reaches the simulator
    weakly, so with the cyclic collector off a Simulator dropped while its
    clients wait for answers is freed at once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        members = [0, 1, 2]
        sim = Simulator(members, ServerConfig(members, gc_period=TEST_GC_PERIOD), seed=3)
        spec = WorkloadSpec(key_count=64, read_fraction=0.5, clients=3, duration=1.0, seed=3)
        preload_sim(sim, spec, spec.seed)
        drivers = start_clients(sim, spec)
        sim.run(0.1)
        assert not any(d.done for d in drivers)
        assert any(c._waiters for c in sim.clients.values())  # requests in flight
        ref = weakref.ref(sim)
        del sim, drivers
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def idle_read(sim):
    """Midway between two GC ticks, send idle server 0 a READ; returns the
    count of events pushed before it and the instant it arrives."""
    sim.run(0.55)
    c = sim.new_client(seed=1)
    k = keys_owned_by(0, sim.members, 1)[0]
    pushed = sim._seq
    sim.net_send(("c", c.client_id), ("s", 0), c.state.env(MsgType.READ, rpc.enc_read_req([k])))
    return pushed, sim.now + sim.net.latency


def test_a_message_reaching_an_idle_node_is_handled_by_its_arrival_event():
    sim = make_sim(3, seed=1, net=NetConfig(jitter=0.0))
    pushed, arrival = idle_read(sim)
    sim.run(0.01)
    assert sim.nodes[0].node.stats["reads"] == 1
    assert sim._seq - pushed == 2  # the READ's arrival and its answer's
    assert sim.now > arrival


def test_a_message_reaching_an_idle_node_waits_for_an_event_due_at_the_same_instant():
    """Handling on arrival keeps the heap's order: another event due at the
    arrival instant, pushed after the message was sent, still runs first."""
    sim = make_sim(3, seed=1, net=NetConfig(jitter=0.0))
    node = sim.nodes[0].node
    _, arrival = idle_read(sim)
    order = []
    sim.schedule(sim.net.latency, lambda: order.append(("other", sim.now, node.stats["reads"])))
    sim.run(0.01)
    assert order == [("other", arrival, 0)]
    assert node.stats["reads"] == 1


# -- message accounting ----------------------------------------------------------


def test_a_one_owner_commit_keeps_its_decoded_transaction_as_the_slice(monkeypatch):
    sim = make_sim(3, seed=5)
    node = sim.nodes[0].node
    ks = keys_owned_by(1, sim.members, 2)
    decoded = []
    orig = rpc.dec_txn
    monkeypatch.setattr(rpc, "dec_txn", lambda b: decoded.append(orig(b)) or decoded[-1])
    txn = Transaction(((ks[0], 0),), ((ks[0], b"x"), (ks[1], b"y")))
    node.on_message(Envelope(MsgType.COMMIT, rpc.CLIENT, 5, 1, None, rpc.enc_txn(txn)))
    (rec,) = node.coord.values()
    assert rec.subs == {1: txn}
    assert rec.subs[1] is decoded[0]


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


def record_wal(monkeypatch, sim):
    """sid -> [(record kind, durable)] of every append, and sid -> seal
    count: a seal is one durable flush of a WAL block."""
    appends, seals = {}, {}

    def sid_of(log):
        return next(sid for sid, n in sim.nodes.items() if n.alive and n.node.tranxlog is log)

    orig_append, orig_seal = TranxLog.append, LogManager._seal

    def append(self, rec, durable):
        appends.setdefault(sid_of(self), []).append((type(rec).__name__, durable))
        orig_append(self, rec, durable)

    def seal(self):
        sid = next(sid for sid, n in sim.nodes.items() if n.alive and n.node.tranxlog.manager is self)
        seals[sid] = seals.get(sid, 0) + 1
        orig_seal(self)

    monkeypatch.setattr(TranxLog, "append", append)
    monkeypatch.setattr(LogManager, "_seal", seal)
    return appends, seals


def test_wal_shape_of_each_commit_kind(monkeypatch):
    """The coordinator's own slice forces no record: CoordCommit persists
    its PartReady and is its decision, and it logs nothing before PREPARE,
    so CoordCommit is its one flush either way.  Only a remote owner forces
    PartReady and PartCommit.  An abort, decided by an Abort vote or sent
    as a decision, appends nothing at any server but a remote owner's
    forced PartReady."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    sim.audit_messages = True
    appends, seals = record_wal(monkeypatch, sim)
    c = sim.new_client(seed=1)
    ks = keys_owned_by(2, sim.members, 2)
    assert commit_txn(sim, c, ks, {ks[0]: b"x"})[0]
    sim.run(1.0)
    assert appends == {2: [("PartReady", False), ("CoordCommit", True)]}
    assert seals == {2: 1} and sum(sim.server_msgs.values()) == 0

    appends.clear()
    seals.clear()
    span = list(key_spanning(sim.members).values())
    assert commit_txn(sim, c, span, {k: b"z" for k in span})[0]
    sim.run(1.0)
    (coordinator,) = [sid for sid, kinds in appends.items() if ("CoordCommit", True) in kinds]
    assert appends.pop(coordinator) == [("PartReady", False), ("CoordCommit", True)]
    assert seals.pop(coordinator) == 1
    assert appends == {sid: [("PartReady", True), ("PartCommit", True)]
                       for sid in sim.members if sid != coordinator}
    assert seals == {sid: 2 for sid in sim.members if sid != coordinator}

    # coordinator 0 aborts on its own slice's Abort vote, on a remote
    # owner's, and by TIMEOUT, as owner 2 never gets a PREPARE, with owner
    # 1 Ready or not an owner; the slice of the owner `stale` reads a
    # stale version
    drop_where(sim, lambda dst, env, n: env.msg_type == MsgType.PREPARE and dst == ("s", 2))
    for owners, stale, logged in (
        ([0], 0, {}), ([0, 1], 1, {}), ([0, 2], None, {}), ([0, 1, 2], None, {1: [("PartReady", True)]}),
    ):
        appends.clear()
        seals.clear()
        reads = tuple((span[sid], 5 if sid == stale else 1) for sid in owners)
        writes = tuple((span[sid], b"a") for sid in owners)
        tranx = sim.nodes[0].node.coordinate(Transaction(reads, writes), None)
        sim.run(2.0)
        assert oracle.decided(sim.trace)[tranx] == {"Abort"}
        assert appends == logged and seals == dict.fromkeys(logged, 1)


def test_admission_bound_is_exact_for_a_single_owner_commit(monkeypatch):
    """A COMMIT whose PartReady fills a WAL entry exactly commits; one byte
    more is refused with LOG_FAILURE before anything is logged."""
    sim = make_sim(3, seed=5)
    node = sim.nodes[0].node
    k = keys_owned_by(0, sim.members, 1)[0]
    appends = []
    orig_append = node.tranxlog.append
    monkeypatch.setattr(
        node.tranxlog, "append", lambda rec, durable: appends.append(rec) or orig_append(rec, durable)
    )
    sent = []
    sim.net_send = lambda src, dst, env: sent.append(env)
    fill = MAX_ENTRY - len(encode_record(PartReady(TranxID(0, 1), (), ((k, b"", 1),))))
    for msg_id, value in ((1, b"v" * fill), (2, b"v" * (fill + 1))):
        payload = rpc.enc_txn(Transaction((), ((k, value),)))
        node.on_message(Envelope(MsgType.COMMIT, rpc.CLIENT, 7, msg_id, None, payload))
    ready, commit = appends
    assert len(encode_record(ready)) == MAX_ENTRY and isinstance(commit, CoordCommit)
    assert [rpc.dec_commit_resp(body(e))[:2] for e in sent] == [
        (True, None), (False, AbortReason.LOG_FAILURE)
    ]
    assert sim.node_state(0)[k] == (b"v" * fill, 1)


def test_admission_bounds_each_slice_not_the_whole_transaction():
    """Each owner logs only its own slice, so a two-owner write whose slices
    each fit one WAL entry commits, though together they do not."""
    sim = make_sim(3, seed=5)
    ks = [keys_owned_by(sid, sim.members, 1)[0] for sid in (0, 1)]
    value = b"v" * 2100
    assert part_ready_size(Transaction((), tuple((k, value) for k in ks))) > MAX_ENTRY
    c = sim.new_client(seed=1)
    assert commit_txn(sim, c, [], dict.fromkeys(ks, value))[:2] == (True, None)
    state = sim.global_state()
    assert [state[k] for k in ks] == [(value, 1)] * 2


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
    rec = node.coord[node.coordinate(txn, (7, 1))]  # client 7, which no reply reaches
    sim.run(3.0)
    assert len(dropped) == PREPARE_BUDGET  # the first round and PREPARE_BUDGET - 1 resends
    prepared = [e[0] - start for e in sends(sim, "PREPARE")]
    assert prepared == pytest.approx([RESEND * i for i in range(PREPARE_BUDGET)], abs=1e-9)
    (aborted,) = [e[0] - start for e in sim.trace if e[2] == "coord.state" and e[3]["to"] == "Abort"]
    assert aborted == pytest.approx(RESEND * PREPARE_BUDGET, abs=1e-9)
    # one tick per round, the last of which aborts; no owner acks an abort,
    # so no tick follows it
    assert [at - start for at, _ in ticks] == prepared[1:] + [aborted]
    assert rec.state is CoordState.ABORT
    assert rpc.dec_commit_resp(node.dedup.check_client(7, 1)) == (False, AbortReason.TIMEOUT, [])
    assert not rec.pending_ack and resend_idle(sim)
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


def test_contended_run_makes_under_1_3_durable_flushes_per_commit(monkeypatch):
    """An abort forces no record, so a 64-key, half-read run seals fewer
    than 1.3 WAL blocks per commit."""
    seals = []
    orig_seal = LogManager._seal
    monkeypatch.setattr(LogManager, "_seal", lambda self: seals.append(1) or orig_seal(self))
    spec = WorkloadSpec(key_count=64, read_fraction=0.5, clients=4, duration=1.2, seed=1000)
    sim = make_sim(3, seed=spec.seed)
    preload_sim(sim, spec, spec.seed)
    drivers = start_clients(sim, spec)
    sim.run_until(spec.duration)
    commits = sum(1 for d in drivers for r in d.history if r["ok"])
    assert commits > 1000
    assert len(seals) / commits < 1.3


# -- malformed input -------------------------------------------------------------

SLICE = rpc.enc_txn(Transaction(((b"k", 0),), ((b"k", b"v"),)))
UNKNOWN = rpc.enc_commit_resp(False, AbortReason.UNKNOWN, [])
STALE_VOTE = rpc.enc_commit_resp(False, AbortReason.STALE_READ, [])

# (message type, transaction: none/pending/foreign, payload, expected reply
# [, sender kind]); a client sends READ, COMMIT and CLIENT_HELLO, and
# sender id 1 the rest as a server, unless the entry names another kind,
# which sender id 1 then sends
MALFORMED = {
    "prepare-without-tranx": (MsgType.PREPARE, "none", SLICE, None),
    "ready-without-tranx": (MsgType.READY, "none", b"", None),
    "commit-decision-without-tranx": (MsgType.COMMIT_DECISION, "none", b"", None),
    "abort-decision-without-tranx": (MsgType.ABORT_DECISION, "none", b"", None),
    "ack-without-tranx": (MsgType.ACK, "none", b"", None),
    "truncated-read": (MsgType.READ, "none", b"\x05\x00", None),
    "read-without-key": (MsgType.READ, "none", b"", None),
    "read-with-truncated-second-key": (
        MsgType.READ, "none", rpc.enc_read_req([b"k"]) + b"\x05\x00\x00\x00ab", None
    ),
    "truncated-commit": (MsgType.COMMIT, "none", b"\x01", UNKNOWN),
    "truncated-prepare": (MsgType.PREPARE, "foreign", b"\x01\x00", None),
    "truncated-abort-vote": (MsgType.READY, "pending", b"\x00", None),
    "truncated-gc-lc": (MsgType.GC_LC, "none", b"\x01", None),
    # a commit answer where a validation READ's answer would go
    "response-to-a-server": (
        MsgType.RESPONSE, "foreign", rpc.enc_commit_resp(True, None, []), None
    ),
    "commit-with-trailing-bytes": (MsgType.COMMIT, "none", SLICE + b"x", UNKNOWN),
    "prepare-with-trailing-bytes": (MsgType.PREPARE, "foreign", SLICE + b"x", None),
    "abort-vote-with-trailing-bytes": (MsgType.READY, "pending", STALE_VOTE + b"x", None),
    "gc-lc-with-trailing-bytes": (MsgType.GC_LC, "none", rpc.enc_u64(1) + b"x", None),
    # the commit answer's bytes, but an abort vote cannot say committed
    "abort-vote-marked-committed": (MsgType.READY, "pending", rpc.enc_commit_resp(True, None, []), None),
    # a participant votes with READY; a decision comes only from the coordinator
    "abort-decision-from-a-participant": (MsgType.ABORT_DECISION, "pending", STALE_VOTE, None),
    # well formed, but a server takes these only from a server
    "prepare-from-a-client": (MsgType.PREPARE, "foreign", SLICE, None, rpc.CLIENT),
    "ready-from-a-client": (MsgType.READY, "pending", b"", None, rpc.CLIENT),
    "abort-vote-from-a-client": (MsgType.READY, "pending", STALE_VOTE, None, rpc.CLIENT),
    "commit-decision-from-a-client": (MsgType.COMMIT_DECISION, "foreign", b"", None, rpc.CLIENT),
    "ack-from-a-client": (MsgType.ACK, "pending", b"", None, rpc.CLIENT),
    "gc-lc-from-a-client": (MsgType.GC_LC, "none", rpc.enc_u64(5), None, rpc.CLIENT),
    # well formed, but a server answers only a client, or a server's READ
    # that names the transaction it validates
    "read-from-a-server": (MsgType.READ, "none", rpc.enc_read_req([b"k"]), None, rpc.SERVER),
    "group-read-from-a-server": (
        MsgType.READ, "pending", rpc.enc_read_req([b"k"], (0, 1), 9), None, rpc.SERVER
    ),
    # a RESPONSE reaches a server only as the answer to its validation READ
    "response-from-a-client": (MsgType.RESPONSE, "pending", rpc.enc_read_resp([None], False), None, rpc.CLIENT),
    "response-for-no-awaited-validation": (MsgType.RESPONSE, "pending", rpc.enc_read_resp([None], False), None),
    "response-for-an-unknown-transaction": (MsgType.RESPONSE, "foreign", rpc.enc_read_resp([None], False), None),
    "commit-from-a-server": (MsgType.COMMIT, "none", SLICE, None, rpc.SERVER),
    "client-hello-from-a-server": (MsgType.CLIENT_HELLO, "none", b"", None, rpc.SERVER),
    # a notice comes only from an owner of the round, a server
    "read-notice-from-a-client": (MsgType.READ_NOTICE, "none", rpc.enc_read_notice(1, 2, 3), None, rpc.CLIENT),
    "truncated-read-notice": (MsgType.READ_NOTICE, "none", rpc.enc_read_notice(1, 2, 3)[:-1], None),
    # a group READ names this server and members only, two or more ascending
    "group-read-naming-a-non-member": (MsgType.READ, "none", rpc.enc_read_req([b"k"], (0, 3), 9), None),
    "group-read-leaving-out-this-server": (MsgType.READ, "none", rpc.enc_read_req([b"k"], (1, 2), 9), None),
    "group-read-of-one-owner": (MsgType.READ, "none", rpc.enc_read_req([b"k"], (0,), 9), None),
    "group-read-without-key": (MsgType.READ, "none", rpc.enc_read_req([], (0, 1), 9), None),
}
# well formed but not awaited: traced as unexpected, not as malformed
UNEXPECTED = {"response-for-no-awaited-validation", "response-for-an-unknown-transaction"}


def node_state(node):
    return repr((
        node.coord, node.part, node._resend, node._groups,
        node.dedup.size(), node.dedup.duplicates_blocked, node.stats,
        node.locks.stats(), node.gc.table, node.gc.last_issued,
    ))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_message_changes_nothing(case):
    msg_type, which, payload, reply, *kind = MALFORMED[case]
    sim = make_sim(3, seed=5)
    span = key_spanning(sim.members)
    c = sim.new_client(seed=1)
    assert commit_txn(sim, c, list(span.values()), {k: b"m" for k in span.values()})[0]
    node = sim.nodes[0].node
    txn = Transaction(((span[0], 1), (span[1], 1)), ((span[0], b"p"), (span[1], b"q")))
    pending = node.coordinate(txn, None)  # waiting for owner 1's vote
    tranx = {"none": None, "pending": pending, "foreign": TranxID(1, 99)}[which]
    if kind:
        env = Envelope(msg_type, kind[0], 1, 77, tranx, payload)
    elif msg_type in (MsgType.READ, MsgType.COMMIT, MsgType.CLIENT_HELLO):
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
        event = "msg.unexpected" if case in UNEXPECTED else "msg.malformed"
        assert any(e[2] == event for e in sim.trace[trace_len:])
    else:
        assert [body(e) for e in sent] == [reply]


def test_commit_decision_for_an_unprepared_transaction_changes_nothing(monkeypatch):
    """A well-formed COMMIT_DECISION naming a transaction this node never
    prepared is traced and dropped: no log record, part record, lock, dedup
    entry, storage change or ack."""
    sim = make_sim(3, seed=5)
    node = sim.nodes[0].node
    appends = []
    monkeypatch.setattr(node.tranxlog, "append", lambda rec, durable: appends.append(rec))
    before = node_state(node)
    stored = sim.node_state(0)
    sent = []
    sim.net_send = lambda src, dst, e: sent.append(e)
    trace_len = len(sim.trace)
    node.on_message(Envelope(MsgType.COMMIT_DECISION, rpc.SERVER, 1, 1, TranxID(1, 999), b""))
    assert node_state(node) == before
    assert node.part == {} and appends == [] and sent == []
    assert sim.node_state(0) == stored
    assert oracle.locks_clean(sim) == []
    assert [e[3]["type"] for e in sim.trace[trace_len:] if e[2] == "msg.unexpected"] == [
        "COMMIT_DECISION"
    ]


# -- one record per transaction ----------------------------------------------------
#
# The first three tests below play coordinator 0 by hand: they deliver its
# messages to participant 1 and record what 1 sends instead of sending it.
# Parametrized on "restarted", the participant crashes and recovers from
# its log between the first delivery and the repeat.

RESTART = pytest.mark.parametrize("restart", [False, True], ids=["live", "restarted"])
HAND_TRANX = TranxID(0, 1)


def hand_driven_participant():
    """(sim, what server 1 sends, a key server 1 owns); no GC tick runs."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    sent = []
    sim.net_send = lambda src, dst, env: sent.append(env)
    return sim, sent, keys_owned_by(1, sim.members, 1)[0]


def deliver(sim, msg_type, payload=b"", tranx=HAND_TRANX):
    sim.nodes[1].node.on_message(Envelope(msg_type, rpc.SERVER, 0, 1, tranx, payload))


def repeat_on(sim, sent, restart, monkeypatch):
    """Participant 1, restarted from its log if asked, with its sends and
    its log appends from here on recorded."""
    if restart:
        sim.crash(1)
        sim.restart(1)
    node = sim.nodes[1].node
    appends = []
    monkeypatch.setattr(node.tranxlog, "append", lambda rec, durable: appends.append(rec))
    del sent[:]
    return node, appends


@RESTART
@pytest.mark.parametrize("read_version", [0, 5], ids=["ready", "abort"])
def test_duplicate_prepare_resends_the_vote_and_takes_no_lock(read_version, restart, monkeypatch):
    sim, sent, k = hand_driven_participant()
    prepare = rpc.enc_txn(Transaction(((k, read_version),), ((k, b"v"),)))
    deliver(sim, MsgType.PREPARE, prepare)
    (vote,) = sent
    ready = read_version == 0
    assert vote.msg_type == MsgType.READY and (vote.payload == b"") == ready
    node, appends = repeat_on(sim, sent, restart, monkeypatch)
    held = node.locks.held_by(HAND_TRANX)
    assert held == ({k} if ready else set())
    part = repr(node.part)
    deliver(sim, MsgType.PREPARE, prepare)
    (again,) = sent
    assert again.msg_type == MsgType.READY
    if restart and not ready:
        # an Abort vote leaves no record to restart from: the duplicate is
        # prepared afresh and votes Abort again on the same stale read
        assert part == "{}" and node.part[HAND_TRANX].state is PartState.ABORT
        assert rpc.dec_commit_resp(again.payload)[1] is AbortReason.STALE_READ
    else:
        assert repr(node.part) == part
    assert again.payload == vote.payload
    assert node.locks.held_by(HAND_TRANX) == held and appends == []


@RESTART
def test_replayed_commit_decision_is_acked_and_applied_once(restart, monkeypatch):
    sim, sent, k = hand_driven_participant()
    deliver(sim, MsgType.PREPARE, rpc.enc_txn(Transaction(((k, 0),), ((k, b"v"),))))
    deliver(sim, MsgType.COMMIT_DECISION)
    assert [e.msg_type for e in sent] == [MsgType.READY, MsgType.ACK]
    node, appends = repeat_on(sim, sent, restart, monkeypatch)
    deliver(sim, MsgType.COMMIT_DECISION)
    assert [e.msg_type for e in sent] == [MsgType.ACK] and appends == []
    assert node.part[HAND_TRANX].state == PartState.COMMIT and node.locks.is_idle()
    assert sim.node_state(1)[k] == (b"v", 1)
    assert oracle.duplicate_applies(sim.trace) == []


@RESTART
def test_abort_decision_before_prepare_makes_the_prepare_a_no_op(restart, monkeypatch):
    """Live, the Abort record the decision leaves drops the late PREPARE.
    An abort logs nothing, so a restarted node prepares it and votes
    Ready, and the coordinator's Abort answer to its READY settles it."""
    sim, sent, k = hand_driven_participant()
    deliver(sim, MsgType.ABORT_DECISION)
    assert sent == []  # an abort is never acked
    node, appends = repeat_on(sim, sent, restart, monkeypatch)
    deliver(sim, MsgType.PREPARE, rpc.enc_txn(Transaction(((k, 0),), ((k, b"v"),))))
    if restart:
        assert [e.msg_type for e in sent] == [MsgType.READY]
        assert [type(r).__name__ for r in appends] == ["PartReady"]
        assert node.part[HAND_TRANX].state is PartState.READY and node.locks.held_by(HAND_TRANX) == {k}
        del appends[:], sim.net_send  # the real coordinator 0 answers the READY repeat
        sim.run(0.5)
    else:
        assert sent == []
    assert node.part[HAND_TRANX].state == PartState.ABORT
    assert node.locks.is_idle() and appends == [] and resend_idle(sim)


def test_a_stale_abort_status_answer_cannot_undo_a_commit():
    """A decision acts only on a slice still Ready: an Abort from the
    coordinator that arrives after the slice committed appends nothing, and
    the commit survives the participant's restart."""
    sim = make_sim(3, seed=5, gc_period=10.0)  # no GC tick syncs the store
    span = key_spanning(sim.members)
    c = sim.new_client(seed=1)
    assert commit_txn(sim, c, [span[0], span[1]], {span[0]: b"c", span[1]: b"c"})[0]
    sim.run(0.5)
    node = sim.nodes[1].node
    (tranx,) = node.part
    # a stale abort from the coordinator, delivered late
    node.on_message(Envelope(MsgType.ABORT_DECISION, rpc.SERVER, tranx.coordinator, 77, tranx, b""))
    assert node.part[tranx].state == PartState.COMMIT
    node.tranxlog.manager.flush()
    sim.crash(1)
    sim.restart(1)
    sim.run(0.5)
    assert sim.global_state()[span[1]] == (b"c", 1)
    assert oracle.atomicity_violations(sim.trace) == []


def test_a_restarted_participant_repeats_ready_every_resend_until_its_slice_settles(monkeypatch):
    """A slice found Ready at restart and cut off from its coordinator
    repeats its READY vote on the resend timer and arms no other timer;
    after the heal the coordinator's decision settles it, frees its locks
    and empties the resend map.  The first decision never reaches the
    participant."""
    armed = record_timers(monkeypatch)
    sim = make_sim(3, seed=5, gc_period=10.0)
    span = key_spanning(sim.members)
    drop_where(
        sim, lambda dst, env, n: n == 0 and env.msg_type == MsgType.COMMIT_DECISION and dst == ("s", 1)
    )
    c = sim.new_client(seed=1)
    assert commit_txn(sim, c, [span[0], span[1]], {span[0]: b"s", span[1]: b"s"})[0]
    (tranx,) = sim.nodes[1].node.part
    assert tranx.coordinator != 1
    sim.crash(1)
    rule = sim.partition([tranx.coordinator], [1])
    del armed[:]
    start = sim.now
    sim.restart(1)
    sim.run(1.1)
    node = sim.nodes[1].node
    assert node.part[tranx].state is PartState.READY and node.locks.held_by(tranx) == {span[1]}
    voted = [e[0] - start for e in sends(sim, "READY") if e[1] == 1 and e[0] >= start]
    assert voted == pytest.approx([RESEND * i for i in range(6)], abs=1e-9)
    ticks = [name for sid, name in armed if sid == 1 and name != "_gc_tick"]
    assert ticks == ["_ack_tick"] * len(voted)
    sim.heal(rule)
    sim.run(1.0)
    assert node.part[tranx].state is PartState.COMMIT and node.locks.is_idle()
    assert resend_idle(sim)
    assert sim.global_state()[span[1]] == (b"s", 1)
    assert oracle.atomicity_violations(sim.trace) == []


# a decision that names a restarted participant's Ready slice: (sender
# kind, sender, decision)
IGNORED_DECISIONS = {
    "commit-from-another-server": (rpc.SERVER, 2, MsgType.COMMIT_DECISION),
    "abort-from-another-server": (rpc.SERVER, 2, MsgType.ABORT_DECISION),
    "commit-from-a-client": (rpc.CLIENT, 0, MsgType.COMMIT_DECISION),
    "abort-from-a-client": (rpc.CLIENT, 0, MsgType.ABORT_DECISION),
}


@pytest.mark.parametrize("case", sorted(IGNORED_DECISIONS))
def test_only_the_coordinators_decision_settles_a_slice(case, monkeypatch):
    sim, sent, k = hand_driven_participant()
    deliver(sim, MsgType.PREPARE, rpc.enc_txn(Transaction(((k, 0),), ((k, b"v"),))))
    node, appends = repeat_on(sim, sent, True, monkeypatch)
    kind, sender, decision = IGNORED_DECISIONS[case]
    before = node_state(node)
    node.on_message(Envelope(decision, kind, sender, 9, HAND_TRANX, b""))
    assert node_state(node) == before and sent == [] and appends == []
    assert node.part[HAND_TRANX].state is PartState.READY and node.locks.held_by(HAND_TRANX) == {k}
    # the same slice settles from the coordinator's Commit
    deliver(sim, MsgType.COMMIT_DECISION)
    assert node.part[HAND_TRANX].state is PartState.COMMIT and node.locks.is_idle()
    assert [e.msg_type for e in sent] == [MsgType.ACK]
    assert [type(r).__name__ for r in appends] == ["PartCommit"]


def test_a_restarted_slice_the_watermark_passed_settles_from_the_coordinators_abort():
    """Participant 1 votes Ready, takes the abort decision, which logs
    nothing, and learns from GC_LC that the watermark passed the
    transaction.  Restarted, it finds a PartReady with no PartCommit that
    the watermark passed, so the slice aborted: recovery settles it and
    keeps no record or lock of it."""
    sim, sent, k = hand_driven_participant()
    deliver(sim, MsgType.PREPARE, rpc.enc_txn(Transaction(((k, 0),), ((k, b"v"),))))
    deliver(sim, MsgType.ABORT_DECISION)
    assert [e.msg_type for e in sent] == [MsgType.READY]
    node = sim.nodes[1].node
    node.on_message(Envelope(MsgType.GC_LC, rpc.SERVER, 0, 2, None, rpc.enc_u64(HAND_TRANX.seq)))
    sim.crash(1)
    del sim.net_send  # from here on the real network carries server 1's messages
    sim.restart(1)
    node = sim.nodes[1].node
    assert node.gc.is_final_by_watermark(HAND_TRANX)
    assert HAND_TRANX not in node.part and node.locks.is_idle()
    sim.run(0.5)
    assert HAND_TRANX not in node.part and node.locks.is_idle()
    assert resend_idle(sim) and oracle.locks_clean(sim) == []


def test_a_restarted_ready_slice_the_watermark_passed_keeps_no_lock_and_sends_no_ready():
    """Participant 1 votes Ready and never hears the decision; GC_LC says
    the watermark passed the transaction, so its coordinator aborted it.
    Restarted, participant 1 holds no record, lock or resend entry of the
    slice and never repeats its READY."""
    sim, sent, k = hand_driven_participant()
    deliver(sim, MsgType.PREPARE, rpc.enc_txn(Transaction(((k, 0),), ((k, b"v"),))))
    node = sim.nodes[1].node
    node.on_message(Envelope(MsgType.GC_LC, rpc.SERVER, 0, 2, None, rpc.enc_u64(HAND_TRANX.seq)))
    assert node.part[HAND_TRANX].state is PartState.READY
    sim.crash(1)
    del sent[:]
    sim.restart(1)
    node = sim.nodes[1].node
    assert HAND_TRANX not in node.part and node.locks.is_idle() and HAND_TRANX not in node._resend
    sim.run(1.0)
    assert [e for e in sent if e.msg_type is MsgType.READY] == []
    assert node.locks.is_idle() and resend_idle(sim)


@pytest.mark.parametrize("later", ["writes"], ids=["refused"])
def test_a_restarted_participant_drops_an_in_doubt_slice_a_later_one_locked_out(later):
    """T1 prepares k, its abort decision lands, which logs nothing, and T2
    then prepares k too.  Neither logged a commit record, but T2 locked k
    after T1 logged its PartReady, so T1 aborted: every restart re-locks T2
    alone, and the lock table refuses T1."""
    sim, sent, k = hand_driven_participant()
    t1, t2 = HAND_TRANX, TranxID(0, 2)
    deliver(sim, MsgType.PREPARE, rpc.enc_txn(Transaction(((k, 0),), ((k, b"v"),))))
    deliver(sim, MsgType.ABORT_DECISION)
    deliver(sim, MsgType.PREPARE, rpc.enc_txn(Transaction(((k, 0),), ((k, b"w"),))), t2)
    assert [e.msg_type for e in sent] == [MsgType.READY, MsgType.READY]
    for _ in range(2):
        sim.crash(1)
        sim.restart(1)
        node = sim.nodes[1].node
        assert list(node.part) == [t2] and node.part[t2].state is PartState.READY
        assert node.locks.held_by(t2) == {k} and node.locks.held_by(t1) == set()
        assert node.locks.stats() == {"held_locks": 1}


def test_a_coordinator_answers_a_counted_ready_with_its_decision():
    """Coordinator 0, played against by hand: a READY it already counted
    gets its decision once it has one, and a READY naming an id of its own
    it holds no record of gets Abort (presumed abort).  An Abort vote that
    decides goes to every other owner, not back to the voter.  An undecided
    transaction, a repeated abort vote, a first vote after an early abort
    and another coordinator's id get nothing."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    span = key_spanning(sim.members)
    node = sim.nodes[0].node
    sent = []
    sim.net_send = lambda src, dst, env: sent.append((dst[1], env.msg_type))
    txn = Transaction((), tuple((k, b"v") for k in span.values()))
    abort = rpc.enc_commit_resp(False, AbortReason.STALE_READ, [])

    def answer(tranx, voter, vote=b""):
        """What coordinator 0 sends when `voter` votes; b"" is Ready."""
        del sent[:]
        node.on_message(Envelope(MsgType.READY, rpc.SERVER, voter, 1, tranx, vote))
        return sorted(sent)

    commit, abort_d = MsgType.COMMIT_DECISION, MsgType.ABORT_DECISION
    committed = node.coordinate(txn, None)
    assert answer(committed, 1) == []
    assert answer(committed, 1) == []  # undecided
    assert answer(committed, 2) == [(1, commit), (2, commit)]
    assert answer(committed, 1) == [(1, commit)]
    aborted = node.coordinate(txn, None)
    assert answer(aborted, 1) == []
    assert answer(aborted, 2, abort) == [(1, abort_d)]  # not to the voter
    assert answer(aborted, 1) == [(1, abort_d)]
    assert answer(aborted, 2, abort) == []  # a repeated abort vote
    early = node.coordinate(txn, None)
    assert answer(early, 1, abort) == [(2, abort_d)]
    assert answer(early, 2) == []  # the first vote, after the abort
    assert answer(TranxID(0, 99), 1) == [(1, abort_d)]
    assert answer(TranxID(1, 99), 2) == []


def test_a_ready_carrying_a_stale_read_answer_aborts_with_its_reason_and_piggyback():
    """Owner 1 votes down a two-owner transaction with a READY whose payload
    is a STALE_READ answer: coordinator 0 decides Abort and answers the
    client with that reason and the piggybacked entry."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    span = key_spanning(sim.members)
    keys = [span[0], span[1]]
    txn = Transaction(tuple((k, 0) for k in keys), tuple((k, b"x") for k in keys))
    node = sim.nodes[0].node
    sent = []
    sim.net_send = lambda src, dst, env: sent.append((dst, env.msg_type))
    tranx = node.coordinate(txn, (7, 1))
    piggyback = [(span[1], b"cur", 3)]
    vote = rpc.enc_commit_resp(False, AbortReason.STALE_READ, piggyback)
    del sent[:]
    node.on_message(Envelope(MsgType.READY, rpc.SERVER, 1, 1, tranx, vote))
    assert node.coord[tranx].state is CoordState.ABORT
    assert rpc.dec_commit_resp(node.dedup.check_client(7, 1)) == (False, AbortReason.STALE_READ, piggyback)
    assert sent == [(("c", 7), MsgType.RESPONSE)]  # no decision to the voter


def test_an_abort_vote_that_decides_is_not_answered_with_the_decision():
    """Owner 1 votes down a three-owner transaction: coordinator 0 sends
    ABORT_DECISION to owner 2 only, as owner 1's slice is already Abort,
    and every slice ends Abort with its locks free."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    span = key_spanning(sim.members)
    keys = [span[sid] for sid in range(3)]
    reads = ((keys[0], 0), (keys[1], 5), (keys[2], 0))  # owner 1's read is stale
    tranx = sim.nodes[0].node.coordinate(Transaction(reads, tuple((k, b"x") for k in keys)), None)
    sim.run(1.0)
    assert [e[3]["dest"] for e in sends(sim, "ABORT_DECISION") if e[1] == 0] == [2]
    assert all(sim.nodes[sid].node.part[tranx].state is PartState.ABORT for sid in range(3))
    assert resend_idle(sim) and oracle.locks_clean(sim) == []


# -- validation after the locks ---------------------------------------------------------


def read_remote_write_own(sim):
    """(coordinator 0, owner 1, x owned by 1, w owned by 0) for a
    transaction that only reads x and writes w."""
    x, w = keys_owned_by(1, sim.members, 1)[0], keys_owned_by(0, sim.members, 1)[0]
    return sim.nodes[0].node, sim.nodes[1].node, x, w


def answer_to_7(node):
    return rpc.dec_commit_resp(node.dedup.check_client(7, 1))


def test_a_remote_read_key_written_before_its_validation_read_aborts_stale_read():
    """Coordinator 0 locks w and sends owner 1 a validation READ of x, which
    is held back while a one-owner writer commits x at owner 1.  Served
    then, the READ finds x moved: the transaction aborts STALE_READ, its
    piggyback carries x's new entry, and w stays unwritten and unlocked."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    coord, owner, x, w = read_remote_write_own(sim)
    held = drop_where(sim, lambda dst, env, n: env.msg_type is MsgType.READ and dst == ("s", 1) and n == 0)
    tranx = coord.coordinate(Transaction(((x, 0),), ((w, b"t"),)), (7, 1))
    assert len(held) == 1 and held[0].tranx == tranx and coord.locks.held_by(tranx) == {w}
    owner.coordinate(Transaction((), ((x, b"new"),)), None)  # one owner: commits in this step
    owner.on_message(held[0])
    sim.run(0.5)
    assert answer_to_7(coord) == (False, AbortReason.STALE_READ, [(x, b"new", 1)])
    assert sim.global_state() == {x: (b"new", 1)}
    assert oracle.locks_clean(sim) == [] and resend_idle(sim)


@pytest.mark.parametrize("at", ["remote", "own"])
def test_a_read_key_locked_at_validation_aborts_lock_denied_read(at):
    """x's owner, owner 1 or the coordinator itself, holds x's lock for a
    Ready slice of coordinator 2's, which never hears its vote.
    Coordinator 0's transaction that only reads x is refused at
    validation, by a READ or in-process, with LOCK_DENIED_READ, and x's
    owner keeps the other slice's record and lock and nothing of this
    transaction."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    coord, owner, x, w = read_remote_write_own(sim)
    if at == "own":
        owner, x = coord, keys_owned_by(0, sim.members, 2)[1]
    drop_where(sim, lambda dst, env, n: dst == ("s", 2))
    other = TranxID(2, 1)
    owner.on_message(Envelope(
        MsgType.PREPARE, rpc.SERVER, 2, 1, other, rpc.enc_txn(Transaction((), ((x, b"o"),)))
    ))
    assert owner.locks.held_by(other) == {x}
    tranx = coord.coordinate(Transaction(((x, 0),), ((w, b"t"),)), (7, 1))
    sim.run(0.1)
    assert answer_to_7(coord) == (False, AbortReason.LOCK_DENIED_READ, [])
    assert owner.part[other].state is PartState.READY and owner.locks.held_by(other) == {x}
    assert at == "own" or list(owner.part) == [other]
    assert coord.locks.held_by(tranx) == set() and sim.global_state() == {}


def test_a_read_only_owner_silent_past_the_budget_times_the_transaction_out():
    """Every validation READ to owner 1 is lost: coordinator 0 repeats it
    every RESEND and aborts with TIMEOUT after PREPARE_BUDGET rounds."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    coord, owner, x, w = read_remote_write_own(sim)
    dropped = drop_where(sim, lambda dst, env, n: env.msg_type is MsgType.READ and dst == ("s", 1))
    start = sim.now
    tranx = coord.coordinate(Transaction(((x, 0),), ((w, b"t"),)), (7, 1))
    sim.run(3.0)
    assert len(dropped) == PREPARE_BUDGET
    asked = [e[0] - start for e in sends(sim, "READ")]
    assert asked == pytest.approx([RESEND * i for i in range(PREPARE_BUDGET)], abs=1e-9)
    (aborted,) = [e[0] - start for e in sim.trace if e[2] == "coord.state" and e[3]["to"] == "Abort"]
    assert aborted == pytest.approx(RESEND * PREPARE_BUDGET, abs=1e-9)
    assert answer_to_7(coord) == (False, AbortReason.TIMEOUT, [])
    assert coord.coord[tranx].state is CoordState.ABORT and owner.stats["reads"] == 0
    assert sends(sim, "PREPARE") == [] and sim.global_state() == {}
    assert oracle.locks_clean(sim) == [] and resend_idle(sim)


def test_a_coordinator_crash_between_validation_and_decision_leaves_nothing_at_the_read_only_owner(
    monkeypatch,
):
    """Coordinator 0 crashes with owner 1's validation answer on the wire,
    having logged nothing of the transaction.  Owner 1 served the READ and
    keeps no record, lock, log entry, dedup entry or cursor of it, before
    and after 0 restarts, and nothing is decided or applied."""
    sim = make_sim(3, seed=5)
    appends, _ = record_wal(monkeypatch, sim)
    coord, owner, x, w = read_remote_write_own(sim)
    answers = drop_where(sim, lambda dst, env, n: env.msg_type is MsgType.RESPONSE and dst == ("s", 0))
    dedup = owner.dedup.size()
    tranx = coord.coordinate(Transaction(((x, 0),), ((w, b"t"),)), (7, 1))
    while not answers and sim.now < 1.0:
        assert sim.step()
    assert [e.tranx for e in answers] == [tranx] and owner.stats["reads"] == 1
    sim.crash(0)
    sim.restart(0)
    sim.run(1.0)
    assert owner.part == {} and owner.locks.is_idle() and 1 not in appends
    assert owner.dedup.size() == dedup and owner._cursors == {}
    assert tranx not in oracle.decided(sim.trace) and sim.global_state() == {}
    assert oracle.locks_clean(sim) == [] and resend_idle(sim)


def test_write_skew_across_two_owners_commits_at_most_one():
    """T1 reads x and writes y, T2 reads y and writes x, with x owned by 1
    and y by 2; each COMMIT reaches its write owner in the same instant.
    Each locks its write before it validates its read, so at most one
    commits, and the oracle finds a serial order for what committed."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    x, y = keys_owned_by(1, sim.members, 1)[0], keys_owned_by(2, sim.members, 1)[0]
    assert commit_txn(sim, sim.new_client(seed=9), [], {x: b"0", y: b"0"})[0]
    sim.run(0.5)
    drop_where(sim, lambda dst, env, n: dst in (("c", 7), ("c", 8)))
    t1 = Transaction(((x, 1),), ((y, b"1"),))
    t2 = Transaction(((y, 1),), ((x, b"2"),))
    for sid, client, txn in ((2, 7, t1), (1, 8, t2)):
        sim.nodes[sid].node.on_message(Envelope(MsgType.COMMIT, rpc.CLIENT, client, 1, None, rpc.enc_txn(txn)))
    sim.run(1.0)
    outcomes = [rpc.dec_commit_resp(sim.nodes[sid].node.dedup.check_client(client, 1))[0]
                for sid, client in ((2, 7), (1, 8))]
    assert sum(outcomes) <= 1
    committed = [{"reads": dict(t.reads), "writes": dict(t.writes)} for t, ok in zip((t1, t2), outcomes) if ok]
    assert oracle.check_history(committed, {x: 1, y: 1}).ok
    assert oracle.locks_clean(sim) == [] and resend_idle(sim)


def test_a_coordinator_that_writes_nothing_prepares_the_write_owner_then_checks_its_own_read():
    """Coordinator 0 gets a transaction that reads x, its own key, and
    writes y, owner 1's.  It prepares owner 1 alone, checks x in-process
    once 1 votes Ready, and commits; 0 keeps no slice or lock of it, and
    no validation READ is sent."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    coord = sim.nodes[0].node
    x, y = keys_owned_by(0, sim.members, 1)[0], keys_owned_by(1, sim.members, 1)[0]
    tranx = coord.coordinate(Transaction(((x, 0),), ((y, b"t"),)), (7, 1))
    assert tranx not in coord.part and coord.locks.is_idle()
    sim.run(0.5)
    assert answer_to_7(coord) == (True, None, [])
    assert [e[1] for e in sends(sim, "PREPARE")] == [0] and sends(sim, "READ") == []
    assert coord.part == {} and sim.global_state() == {y: (b"t", 1)}
    assert oracle.locks_clean(sim) == [] and resend_idle(sim)


# -- one answer table: a client's dedup window ------------------------------------------


def commit_from_client_7(sim):
    """A two-owner COMMIT from client 7, which no reply reaches, and the
    list that collects what is sent to 7."""
    span = key_spanning(sim.members)
    keys = [span[0], span[1]]
    txn = Transaction(tuple((k, 0) for k in keys), tuple((k, b"w") for k in keys))
    commit = Envelope(MsgType.COMMIT, rpc.CLIENT, 7, 1, None, rpc.enc_txn(txn))
    return commit, drop_where(sim, lambda dst, env, n: dst == ("c", 7))


def test_a_commit_resent_in_flight_starts_nothing_and_is_answered_once_at_the_decision():
    sim = make_sim(3, seed=5, gc_period=10.0)
    commit, answers = commit_from_client_7(sim)
    node = sim.nodes[0].node
    node.on_message(commit)
    (tranx,) = node.coord
    assert node.coord[tranx].pending_ready == {1}  # waits on owner 1's vote
    assert node.dedup.check_client(7, 1) == tranx
    before = repr((node.coord, node.part, node._resend, node.dedup.size(), node.gc.last_issued))
    sent = len(sim.trace)
    node.on_message(commit)
    after = repr((node.coord, node.part, node._resend, node.dedup.size(), node.gc.last_issued))
    assert after == before and answers == []
    assert not [e for e in sim.trace[sent:] if e[2] == "msg.send"]
    while not answers:
        assert sim.step()
    (decided,) = [e[0] for e in sim.trace if e[2] == "coord.state" and e[3]["to"] == "Commit"]
    assert sim.now == decided
    sim.run(1.0)
    assert [rpc.dec_commit_resp(body(e)) for e in answers] == [(True, None, [])]
    assert node.dedup.check_client(7, 1) == body(answers[0])


def test_a_commit_resent_after_its_decision_gets_the_same_bytes_and_no_new_tranx():
    sim = make_sim(3, seed=5, gc_period=10.0)
    commit, answers = commit_from_client_7(sim)
    node = sim.nodes[0].node
    node.on_message(commit)
    sim.run(1.0)
    issued, records = node.gc.last_issued, list(node.coord)
    node.on_message(commit)
    sim.run(1.0)
    first, again = answers
    assert body(again) == body(first) == node.dedup.check_client(7, 1)
    assert node.gc.last_issued == issued and list(node.coord) == records
    assert rpc.dec_commit_resp(body(again)) == (True, None, [])


# -- presumed abort ----------------------------------------------------------------


def stale_own_slice(sim, owners):
    """A write transaction for coordinator 0 on `owners` owners whose own
    slice reads a stale version, so 0 votes Abort in the step that starts
    it; a remote slice reads the current version and votes Ready."""
    span = key_spanning(sim.members)
    keys = [span[sid] for sid in range(owners)]
    reads = ((keys[0], 5),) + tuple((k, 0) for k in keys[1:])
    return Transaction(reads, tuple((k, b"x") for k in keys)), keys


@pytest.mark.parametrize("owners", [1, 2], ids=["one-owner", "two-owner"])
def test_an_abort_logs_nothing_at_its_coordinator_and_is_never_acked(owners, monkeypatch):
    """The coordinator appends no record for an abort, the watermark passes
    it in the step that decides it, and nothing is resent or acked: a
    Ready owner's first READY, arriving after the abort, is absorbed."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    appends, seals = record_wal(monkeypatch, sim)
    decided = []  # (sid, tranx, state, the GC's lc, the resend map) after each _decide
    orig_decide = ServerNode._decide

    def decide(self, rec, *args):
        orig_decide(self, rec, *args)
        decided.append((self.sid, rec.tranx, rec.state, self.gc.lc, dict(self._resend)))

    monkeypatch.setattr(ServerNode, "_decide", decide)
    txn, _ = stale_own_slice(sim, owners)
    tranx = sim.nodes[0].node.coordinate(txn, None)
    sim.run(1.0)
    assert decided == [(0, tranx, CoordState.ABORT, tranx.seq, {})]
    assert 0 not in appends and 0 not in seals
    assert sends(sim, "ACK") == []
    assert [e[3]["dest"] for e in sends(sim, "ABORT_DECISION")] == [1] * (owners - 1)
    assert len(sends(sim, "READY")) == owners - 1
    assert resend_idle(sim) and oracle.locks_clean(sim) == []
    assert all(sim.nodes[sid].node.part[tranx].state is PartState.ABORT for sid in range(owners))


def test_a_ready_owner_that_missed_the_abort_learns_it_from_one_ready_repeat():
    """The abort decision to Ready owner 1 is lost.  Its first READY reaches
    the coordinator after the abort and is absorbed; its one repeat, RESEND
    later, is answered with Abort, which frees its locks."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    dropped = drop_where(sim, lambda dst, env, n: env.msg_type == MsgType.ABORT_DECISION and n == 0)
    txn, keys = stale_own_slice(sim, 2)
    start = sim.now
    tranx = sim.nodes[0].node.coordinate(txn, None)
    node = sim.nodes[1].node
    sim.run_until(start + RESEND / 2)
    assert len(dropped) == 1 and node.locks.held_by(tranx) == {keys[1]}
    sim.run_until(start + RESEND + 0.001)
    assert node.part[tranx].state is PartState.ABORT and node.locks.is_idle()
    readies = [e[0] for e in sends(sim, "READY")]
    lost, answer = [e[0] for e in sends(sim, "ABORT_DECISION")]
    assert len(readies) == 2 and readies[1] - readies[0] == pytest.approx(RESEND, abs=1e-9)
    assert lost == start and readies[1] < answer
    sim.run(1.0)
    assert len(sends(sim, "READY")) == 2 and sends(sim, "ACK") == []
    assert resend_idle(sim) and oracle.locks_clean(sim) == []


def test_a_ready_below_the_coordinators_watermark_gets_no_invented_abort():
    """Coordinator 0 commits a two-owner transaction and drops its record at
    its GC tick at 0.1 s; owner 1 keeps its own until its tick at 0.2 s.  A
    duplicate PREPARE then makes owner 1 send its READY again.  The
    coordinator's watermark passed the id, so it answers nothing: it
    announces no Abort for a transaction it committed."""
    sim = make_sim(3, seed=5)
    span = key_spanning(sim.members)
    keys = [span[0], span[1]]
    txn = Transaction(tuple((k, 0) for k in keys), tuple((k, b"c") for k in keys))
    tranx = sim.nodes[0].node.coordinate(txn, None)
    sim.run_until(1.5 * TEST_GC_PERIOD)
    owner = sim.nodes[1].node
    assert tranx not in sim.nodes[0].node.coord and sim.nodes[0].node.gc.is_final_by_watermark(tranx)
    assert owner.part[tranx].state is PartState.COMMIT
    sub = Transaction(((span[1], 0),), ((span[1], b"c"),))
    owner.on_message(Envelope(MsgType.PREPARE, rpc.SERVER, 0, 1, tranx, rpc.enc_txn(sub)))
    sim.run_until(1.9 * TEST_GC_PERIOD)
    assert [e[3]["tranx"] for e in sends(sim, "READY")] == [tranx, tranx]
    assert sends(sim, "ABORT_DECISION") == []
    assert oracle.decided(sim.trace)[tranx] == {"Commit"} and oracle.double_decisions(sim.trace) == []
    sim.run(1.0)
    assert all(sim.global_state()[k] == (b"c", 1) for k in keys)
    assert oracle.atomicity_violations(sim.trace) == [] and oracle.locks_clean(sim) == []


def test_a_ready_slice_whose_abort_is_lost_is_settled_by_the_watermark():
    """Every abort decision to Ready owner 1 is lost.  Coordinator 0 drops
    its aborted record at its GC tick and broadcasts its watermark, and
    owner 1's next tick settles the slice as aborted: within 3 GC periods
    of the abort it keeps no record, lock or resend entry, and it stops
    repeating READY."""
    sim = make_sim(3, seed=5)
    dropped = drop_where(sim, lambda dst, env, n: env.msg_type == MsgType.ABORT_DECISION)
    txn, keys = stale_own_slice(sim, 2)
    start = sim.now
    tranx = sim.nodes[0].node.coordinate(txn, None)
    node = sim.nodes[1].node
    sim.run_until(start + RESEND / 2)
    assert len(dropped) == 1 and node.locks.held_by(tranx) == {keys[1]}
    settled = start + 3 * TEST_GC_PERIOD
    sim.run_until(settled)
    assert tranx not in node.part and tranx not in node._resend and node.locks.is_idle()
    assert [e[3]["to"] for e in sim.trace if e[2] == "part.state" and e[1] == 1] == [
        "Start", "Ready", "Abort",
    ]
    sim.run(1.0)
    assert [e for e in sends(sim, "READY") if e[0] > settled] == []
    assert oracle.decided(sim.trace)[tranx] == {"Abort"}
    assert resend_idle(sim) and oracle.locks_clean(sim) == []


def test_a_restarted_coordinator_answers_abort_for_its_undecided_id_above_its_watermark():
    """Coordinator 0 commits A on owners 0 and 2, whose commit decision is
    lost before owner 2 goes down, then prepares B on owners 1 and 2 and
    crashes undecided.  Restarted, it recovers A's unacked commit, which
    holds its watermark below B's id, and keeps no record of B: it answers
    owner 1's READY repeat with Abort, which frees owner 1's lock within
    2 RESEND of the restart."""
    sim = make_sim(3, seed=5)
    span = key_spanning(sim.members)
    drop_where(sim, lambda dst, env, n: env.msg_type == MsgType.COMMIT_DECISION and dst == ("s", 2))
    coord = sim.nodes[0].node
    a = coord.coordinate(Transaction((), ((span[0], b"a"), (span[2], b"a"))), None)
    sim.run(0.01)
    assert coord.coord[a].state is CoordState.COMMIT and coord.coord[a].pending_ack == {2}
    sim.crash(2)
    b = coord.coordinate(Transaction((), ((span[1], b"b"), (span[2], b"b"))), None)
    sim.run(0.01)
    assert coord.coord[b].state is CoordState.PREPARE
    assert sim.nodes[1].node.locks.held_by(b) == {span[1]}
    sim.crash(0)
    sim.restart(0)
    restart = sim.now
    coord = sim.nodes[0].node
    assert list(coord.coord) == [a] and not coord.gc.is_final_by_watermark(b)
    sim.run_until(restart + 2 * RESEND)
    owner = sim.nodes[1].node
    assert owner.part[b].state is PartState.ABORT and owner.locks.is_idle()
    assert oracle.decided(sim.trace)[b] == {"Abort"}
    assert not coord.gc.is_final_by_watermark(b)


def test_a_resent_commit_whose_attempt_aborted_runs_again_after_a_coordinator_restart():
    """Coordinator 0 aborts a two-owner COMMIT with TIMEOUT while owner 1 is
    cut off, and the answer never reaches the client.  0 restarts, the cut
    heals, and the client resends the same request: an abort leaves no
    record, so it runs as a new transaction and commits once."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    span = key_spanning(sim.members)
    keys = [span[0], span[1]]
    txn = Transaction(tuple((k, 0) for k in keys), tuple((k, b"again") for k in keys))
    commit = Envelope(MsgType.COMMIT, rpc.CLIENT, 7, 1, None, rpc.enc_txn(txn))
    answers = drop_where(sim, lambda dst, env, n: dst == ("c", 7))
    rule = sim.partition([0], [1])
    sim.nodes[0].node.on_message(commit)
    sim.run(PREPARE_BUDGET * RESEND + 0.1)
    assert [rpc.dec_commit_resp(body(e))[:2] for e in answers] == [(False, AbortReason.TIMEOUT)]
    sim.heal(rule)
    sim.crash(0)
    sim.restart(0)
    sim.nodes[0].node.on_message(commit)
    sim.run(1.0)
    assert [rpc.dec_commit_resp(body(e))[:2] for e in answers[1:]] == [(True, None)]
    first, again = sorted(oracle.decided(sim.trace).items())
    assert first[1] == {"Abort"} and again[1] == {"Commit"} and again[0] != first[0]
    assert all(sim.global_state()[k] == (b"again", 1) for k in keys)
    assert oracle.duplicate_applies(sim.trace) == []
    assert oracle.atomicity_violations(sim.trace) == [] and oracle.locks_clean(sim) == []


def test_contended_run_leaves_no_record_two_gc_periods_after_it_quiesces():
    spec = WorkloadSpec(key_count=64, read_fraction=0.5, clients=4, duration=0.5, seed=1000)
    sim = make_sim(3, seed=spec.seed)
    preload_sim(sim, spec, spec.seed)
    drivers = start_clients(sim, spec)
    nodes = [n.node for n in sim.nodes.values()]

    def quiet():
        return all(d.done for d in drivers) and all(
            all(not r.pending_ack for r in n.coord.values())
            and all(r.state in (PartState.COMMIT, PartState.ABORT) for r in n.part.values())
            for n in nodes
        )

    while not quiet():
        assert sim.step()
    # only a write owner keeps a record, and a node whose last write slice
    # is more than a GC period old has already dropped it
    assert any(n.part for n in nodes)
    sim.run(2 * TEST_GC_PERIOD)
    for n in nodes:
        assert (n.coord, n.part) == ({}, {}), n.sid


def test_two_writers_that_deny_each_others_read_lock_both_commit():
    """A reads x, y and writes x (coordinator 0); B reads x, y, z and writes
    y (coordinator 1).  Started together, each holds the exclusive lock on
    the key the other's validation READ finds locked, so both abort
    LOCK_DENIED_READ.  With no
    jitter their one-round rebuilds take equally long, so retrying at once
    they would deny each other on every attempt; a writer denied a read
    lock again backs off, and both commit."""
    sim = make_sim(3, seed=22, net=NetConfig(jitter=0.0))
    x = keys_owned_by(0, sim.members, 1)[0]
    y, z = keys_owned_by(1, sim.members, 2)
    assert commit_txn(sim, sim.new_client(seed=9), [x, y, z], {k: b"0" for k in (x, y, z)})[0]
    sim.run(0.5)

    def writer(cs, keys, writes):
        h = cl.TxnHandle()
        yield from cl.txn_read_many(cs, h, keys)
        for k, v in writes.items():
            cl.txn_write(h, k, v)
        ok, reason = yield from cl.txn_commit(cs, h)
        return ok, reason, h.attempts

    boxes = [], []
    for seed, box, keys, writes in ((1, boxes[0], [x, y], {x: b"a"}), (2, boxes[1], [x, y, z], {y: b"b"})):
        c = sim.new_client(seed=seed)
        c.state.max_retries = 6
        c.run(writer(c.state, keys, writes), box.append)
    deadline = sim.now + 5.0
    while not (boxes[0] and boxes[1]) and sim.now < deadline:
        assert sim.step()
    (ok_a, reason_a, attempts_a), (ok_b, reason_b, attempts_b) = boxes[0][0][1], boxes[1][0][1]
    assert ok_a and ok_b, (reason_a, reason_b)
    assert min(attempts_a, attempts_b) >= 2  # they did deny each other
    assert oracle.locks_clean(sim) == []


def test_load_reads_each_owner_batch_with_one_read():
    sim = make_sim(3, seed=21)
    spec = WorkloadSpec(key_count=100, value_size=8, seed=3)
    batches = sorted(owner_batches(spec.key_count, sim.members).items())
    reads = []
    orig = sim.net_send

    def net_send(src, dst, env):
        if src[0] == "c" and env.msg_type == MsgType.READ:
            reads.append((dst[1], rpc.dec_read_req(env.payload)[0]))
        orig(src, dst, env)

    sim.net_send = net_send
    # each owner's 33 or 34 keys of 8 B values fit one batch's log entry
    expected = batches
    for seed, field in ((1, "inserted"), (2, "skipped")):  # a load, then a reload
        del reads[:]
        client = sim.new_client(seed=seed)  # a cold cache, as a fresh `dtx load` has
        for sid, keys in batches:
            report = run_gen(sim, client, load_script(keys, spec, spec.seed)(client.state))
            assert report[field] == len(keys) and report["failed_batches"] == 0
        assert reads == expected
        sim.run(0.5)
    loaded = sim.global_state()
    assert len(loaded) == spec.key_count and {ver for _, ver in loaded.values()} == {1}


@pytest.mark.parametrize("value_size", [250, 1000])
def test_a_load_of_large_values_inserts_every_key(value_size):
    """Each load batch is as long as its PartReady fits one WAL entry."""
    sim = make_sim(3, seed=1)
    spec = WorkloadSpec(key_count=64, value_size=value_size, seed=1)
    client = sim.new_client(seed=1)
    for sid, keys in sorted(owner_batches(spec.key_count, sim.members).items()):
        report = run_gen(sim, client, load_script(keys, spec, spec.seed)(client.state))
        assert report == {"inserted": len(keys), "skipped": 0, "failed_batches": 0}
    assert len(sim.global_state()) == spec.key_count


def test_preload_equals_a_completed_synced_load():
    spec = WorkloadSpec(key_count=60, seed=3)
    loaded = make_sim(3, seed=21)
    client = loaded.new_client(seed=1)
    for sid, keys in sorted(owner_batches(spec.key_count, loaded.members).items()):
        report = run_gen(loaded, client, load_script(keys, spec, spec.seed)(client.state))
        assert report["inserted"] == len(keys)
    loaded.run(0.5)  # a few GC periods: every node has synced its store
    preloaded = make_sim(3, seed=21)
    preload_sim(preloaded, spec, spec.seed)
    assert len(loaded.global_state()) == spec.key_count
    assert loaded.global_state() == preloaded.global_state()
    for sid in loaded.members:
        assert loaded.nodes[sid].durable == preloaded.nodes[sid].durable


def test_global_state_reads_the_unsynced_overlay_and_only_owned_keys():
    sim = make_sim(3, seed=2, gc_period=10.0)  # no GC sync within the test
    k, stray = keys_owned_by(0, sim.members, 2)
    sim.nodes[0].durable[k] = (b"old", 1)
    ok, _, _ = commit_txn(sim, sim.new_client(seed=1), [k], {k: b"new"})
    assert ok and sim.nodes[0].durable[k] == (b"old", 1)  # the commit is in the overlay
    sim.nodes[1].durable[stray] = (b"stray", 9)  # keys on a server that does not own them
    sim.nodes[2].durable[k] = (b"stale copy", 5)
    state = sim.global_state()
    assert state == {k: (b"new", 2)}


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


def test_own_slice_logged_without_a_decision_is_aborted_at_recovery(monkeypatch):
    """A single-owner commit whose CoordCommit append seals the block that
    holds its PartReady, on a node killed before CoordCommit is flushed,
    leaves an own slice in the log with no coordinator record.  Recovery
    aborts it (presumed abort), keeps no record or lock of it, and issues
    the client's retry an id of its own restart epoch."""
    sim = make_sim(3, seed=5, gc_period=10.0)
    sim.auto_restart = 0.100
    k = b"k0"
    assert owner_of(k, sim.members) == 0
    log = sim.nodes[0].node.tranxlog
    for seq in (1, 2, 3):  # filler, unflushed
        log.append(PartCommit(TranxID(1, seq)), durable=False)
    orig_append = TranxLog.append
    sealed = []

    def append(self, rec, durable):
        if self is not log or not isinstance(rec, CoordCommit) or sealed:
            return orig_append(self, rec, durable)
        orig_append(self, rec, False)
        sealed.append(len(self.manager._buf))
        raise SimCrash(0, "after the seal, before CoordCommit is flushed")

    monkeypatch.setattr(TranxLog, "append", append)
    c = sim.new_client(seed=1)
    value = b"v" * 3966  # PartReady fills the open block; CoordCommit does not fit
    ok, reason, _ = commit_txn(sim, c, [], {k: value}, timeout=20.0)
    assert sealed == [1]  # the open block holds CoordCommit alone: PartReady is durable
    assert sim.crashes == 1
    sim.run(2.0)  # settle; the first GC tick after the restart is 10 s away
    node = sim.nodes[0].node
    assert (ok, reason) == (True, None)
    assert TranxID(0, 1) not in node.part and TranxID(0, 1) not in node.coord
    retry = TranxID(0, (1 << 40) + 1)  # the first id of epoch 2
    assert node.gc.last_issued == retry.seq
    assert node.coord[retry].state is CoordState.COMMIT
    assert sim.global_state()[k] == (value, 1)
    assert oracle.locks_clean(sim) == []


def lost_three_owner_commit(label, nth):
    """The three-owner commit of test_02b, begun on coordinator 0, which
    crashes at its nth `label` crash point and restarts 50 ms later.
    Returns (sim, the lost TranxID, keys, restart time) at the crash."""

    def begin(plan):
        sim = make_sim(3, seed=21)
        sim.auto_restart = 0.05
        ks = list(key_spanning(sim.members).values())
        txn = Transaction(tuple((k, 0) for k in ks), tuple((k, b"lost") for k in ks))
        sim.crash_plan = plan
        sim.schedule(0.0, lambda: sim.nodes[0].node.coordinate(txn, None))
        return sim, ks

    points = []
    sim, _ = begin(CrashPlan(sid=0, collect=points))
    sim.run(1.0)
    index = [i for i, (_, label_) in enumerate(points) if label_ == label][nth]
    sim, ks = begin(CrashPlan(sid=0, index=index))
    while not sim.crash_plan.fired:
        assert sim.step()
    return sim, TranxID(0, 1), ks, sim.now + sim.auto_restart


def test_a_transaction_its_crashed_coordinator_never_decided_aborts_at_every_participant():
    """Coordinator 0 crashes with both remote owners Ready and logs nothing
    of the transaction.  The restarted coordinator's watermark passes the
    lost id, so the first GC tick that carries it to an owner settles the
    slice as aborted: within 3 GC periods of the restart no owner keeps a
    record or lock of it, and no coordinator announced a decision."""
    sim, lost, ks, restart = lost_three_owner_commit("recv.READY", 1)
    sim.run_until(restart + 3 * TEST_GC_PERIOD)
    assert sim.nodes[0].incarnation == 1 and sim.nodes[0].alive
    for sid in (1, 2):
        node = sim.nodes[sid].node
        assert lost not in node.part and node.locks.is_idle(), sid
    assert lost not in oracle.decided(sim.trace)
    assert resend_idle(sim) and oracle.locks_clean(sim) == []


def test_a_restarted_coordinator_never_reuses_an_id_it_sent_in_a_prepare():
    """Coordinator 0 crashes right after its first PREPARE of a transaction
    it logged nothing of, so the restarted node could not know that id was
    sent.  A new transaction through it on the same owners commits its own
    slices: no participant answers it with the lost transaction's vote."""
    sim, lost, ks, restart = lost_three_owner_commit("send.PREPARE", 0)
    sim.run_until(restart)
    c = sim.new_client(seed=1)
    ok, _, _ = commit_txn(sim, c, ks, {k: b"new" for k in ks})
    sim.run_until(restart + 3 * TEST_GC_PERIOD)
    for sid in (1, 2):
        node = sim.nodes[sid].node
        assert lost not in node.part and not node.locks.held_by(lost), sid
    sim.run(1.0)
    assert ok
    assert all(sim.global_state()[k] == (b"new", 1) for k in ks)
    assert {v for _, v, _ in oracle.applied_values(sim.trace)} == {b"new"}
    assert lost not in oracle.decided(sim.trace)
    assert oracle.atomicity_violations(sim.trace) == [] and oracle.locks_clean(sim) == []


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
    c = sim.new_client(seed=1, tries=3, timeout=0.05)
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
