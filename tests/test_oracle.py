"""The checkers themselves: serializability search, graph method, trace audits."""

import heapq

from conftest import make_sim
from hypothesis import given, settings, strategies as st

from dtx import oracle
from dtx.bench import preload_sim, start_clients
from dtx.model import TranxID
from dtx.workload import WorkloadSpec


def txn(reads, writes):
    return {"reads": reads, "writes": writes}


# -- brute-force search ---------------------------------------------------------


def test_simple_serializable_history():
    txns = [
        txn({b"a": 0}, {b"a": b"x"}),  # a -> v1
        txn({b"a": 1}, {b"a": b"y"}),  # a -> v2
        txn({b"a": 2, b"b": 0}, {}),  # pure read at the end
    ]
    res = oracle.check_serializable(txns)
    assert res.ok is True and res.order == [0, 1, 2]


def test_lost_update_is_not_serializable():
    # both read a@0 and both write it: versions v1 would be produced twice
    txns = [txn({b"a": 0}, {b"a": b"x"}), txn({b"a": 0}, {b"a": b"y"})]
    assert oracle.check_serializable(txns).ok is False


def test_stale_read_pair_is_not_serializable():
    # t0 bumps a; t1 read a fresh but b stale relative to t2, forming a cycle
    txns = [
        txn({b"a": 0}, {b"a": b"x"}),
        txn({b"a": 1, b"b": 0}, {b"b": b"y"}),
        txn({b"a": 0, b"b": 1}, {b"a": b"z"}),
    ]
    assert oracle.check_serializable(txns).ok is False


def test_initial_versions_respected():
    txns = [txn({b"a": 3}, {b"a": b"x"})]
    assert oracle.check_serializable(txns).ok is False
    assert oracle.check_serializable(txns, {b"a": 3}).ok is True


def test_search_budget_returns_inconclusive():
    # many independent blind writers: factorial orders, tiny budget
    txns = [txn({}, {bytes([i]): b"v"}) for i in range(8)]
    res = oracle.check_serializable(txns, max_states=3)
    assert res.ok is None and res.order is None


def test_replay_versions():
    txns = [txn({b"a": 0}, {b"a": b"x"}), txn({b"a": 1}, {b"a": b"y", b"b": b"z"})]
    state = oracle.replay_versions(txns, [0, 1])
    assert state == {b"a": (b"y", 2), b"b": (b"z", 1)}


# -- graph method ----------------------------------------------------------------


def test_graph_matches_search_on_basic_cases():
    good = [
        txn({b"a": 0}, {b"a": b"x"}),
        txn({b"a": 1, b"b": 0}, {b"b": b"y"}),
        txn({b"a": 1, b"b": 1}, {}),
    ]
    res = oracle.check_serializable_graph(good)
    assert res.ok is True
    # replaying its order reproduces a consistent final state
    assert oracle.replay_versions(good, res.order)[b"a"] == (b"x", 1)

    bad = [txn({b"a": 0}, {b"a": b"x"}), txn({b"a": 0}, {b"a": b"y"})]
    assert oracle.check_serializable_graph(bad).ok is False


def test_graph_rejects_blind_writes():
    import pytest

    with pytest.raises(ValueError):
        oracle.check_serializable_graph([txn({}, {b"a": b"x"})])


def test_graph_detects_read_of_unwritten_version_and_gaps():
    # nobody produced a@2
    assert oracle.check_serializable_graph([txn({b"a": 2}, {})]).ok is False
    # writers produce v1 and v3 but not v2: contiguity violated
    txns = [txn({b"a": 0}, {b"a": b"x"}), txn({b"a": 2}, {b"a": b"y"})]
    assert oracle.check_serializable_graph(txns).ok is False


def test_graph_detects_cycle():
    # t0 reads b before t1 writes it, t1 reads a before t0 writes it,
    # yet each also observes the other's write -> contradictory
    txns = [
        txn({b"a": 0, b"b": 1}, {b"a": b"x"}),
        txn({b"b": 0, b"a": 1}, {b"b": b"y"}),
    ]
    assert oracle.check_serializable_graph(txns).ok is False


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_graph_agrees_with_search(data):
    n_keys = data.draw(st.integers(1, 3))
    keys = [bytes([97 + i]) for i in range(n_keys)]
    n = data.draw(st.integers(1, 7))
    versions = {k: 0 for k in keys}
    txns = []
    for _ in range(n):
        ks = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=n_keys, unique=True))
        reads = {k: versions[k] for k in ks}
        writes = {}
        if data.draw(st.booleans()):
            wk = data.draw(st.sampled_from(ks))
            writes[wk] = bytes([data.draw(st.integers(0, 255))])
            versions[wk] += 1
        # occasionally corrupt a read version to produce violating histories
        if data.draw(st.integers(0, 4)) == 0:
            ck = data.draw(st.sampled_from(ks))
            reads[ck] = max(0, reads[ck] + data.draw(st.sampled_from([-1, 1])))
        txns.append(txn(reads, writes))
    slow = oracle.check_serializable(txns)
    fast = oracle.check_serializable_graph(txns)
    assert slow.ok == fast.ok


def test_check_history_falls_back_on_blind_writes():
    txns = [txn({}, {b"a": b"x"}), txn({b"a": 1}, {})]
    assert oracle.check_history(txns).ok is True


def edge_set_order(txns, initial):
    """The serial order as the graph checker computed it before it kept
    successor lists: a set of distinct edges, then Kahn's sort taking the
    lowest ready index first.  None on a cycle."""
    writer_of = {}
    for i, t in enumerate(txns):
        for k in t["writes"]:
            writer_of[(k, t["reads"][k] + 1)] = i
    edges = set()
    for i, t in enumerate(txns):
        for k, v in t["reads"].items():
            w = writer_of.get((k, v))
            if v > initial.get(k, 0) and w != i:
                edges.add((w, i))
            nxt = writer_of.get((k, v + 1))
            if nxt is not None and nxt != i:
                edges.add((i, nxt))
        for k in t["writes"]:
            prev = writer_of.get((k, t["reads"][k]))
            if prev is not None and prev != i:
                edges.add((prev, i))
    indeg = [0] * len(txns)
    out = {}
    for a, b in edges:
        indeg[b] += 1
        out.setdefault(a, []).append(b)
    ready = [i for i in range(len(txns)) if indeg[i] == 0]
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in out.get(i, ()):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    return order if len(order) == len(txns) else None


def recorded_history():
    """The committed transactions of a contended simulated run: 4 clients on
    16 preloaded keys, half of them reads, for 1 virtual second."""
    sim = make_sim(3, seed=3)
    spec = WorkloadSpec(key_count=16, read_fraction=0.5, clients=4, seed=3, duration=1.0)
    preload_sim(sim, spec, spec.seed)
    drivers = start_clients(sim, spec)
    sim.run_until(3.0)
    assert all(d.done for d in drivers)
    return [txn(r["reads"], r["writes"]) for d in drivers for r in d.history if r["ok"]]


def test_graph_order_on_a_recorded_history_is_the_edge_set_order():
    txns = recorded_history()
    initial = {k: 1 for t in txns for k in (*t["reads"], *t["writes"])}
    assert len(txns) > 1000 and sum(bool(t["writes"]) for t in txns) > 500
    res = oracle.check_serializable_graph(txns, initial)
    assert res.ok is True and res.order == edge_set_order(txns, initial)
    # two transactions that each read the other's write form a cycle
    x, y = b"cycle-x", b"cycle-y"
    cyclic = txns + [txn({x: 0, y: 1}, {x: b"p"}), txn({y: 0, x: 1}, {y: b"q"})]
    assert edge_set_order(cyclic, initial) is None
    res = oracle.check_serializable_graph(cyclic, initial)
    assert res.ok is False and res.order is None


# -- trace audits ------------------------------------------------------------------

T1, T2 = TranxID(0, 1), TranxID(0, 2)


def ev(t, sid, event, **info):
    return (t, sid, event, info)


def test_decided_and_double_decisions():
    trace = [
        ev(0.1, 0, "coord.state", tranx=T1, to="Commit"),
        ev(0.2, 0, "coord.state", tranx=T2, to="Abort"),
        ev(0.3, 0, "coord.state", tranx=T2, to="Commit"),
    ]
    assert oracle.decided(trace) == {T1: {"Commit"}, T2: {"Abort", "Commit"}}
    assert oracle.double_decisions(trace) == [T2]


def test_atomicity_violations():
    trace = [
        ev(0.1, 1, "part.state", tranx=T1, to="Commit"),
        ev(0.2, 2, "part.state", tranx=T1, to="Abort"),
        ev(0.3, 1, "part.state", tranx=T2, to="Commit"),
        ev(0.4, 2, "part.state", tranx=T2, to="Commit"),
    ]
    bad = oracle.atomicity_violations(trace)
    assert len(bad) == 1 and bad[0][0] == T1


def test_duplicate_applies_reset_at_restart():
    w = [(b"k", b"v", 1)]
    trace = [
        ev(0.1, 1, "part.apply", tranx=T1, writes=w),
        ev(0.2, 1, "crash"),
        ev(0.3, 1, "restart"),
        ev(0.4, 1, "part.apply", tranx=T1, writes=w),  # recovery replay: fine
        ev(0.5, 1, "part.apply", tranx=T1, writes=w),  # same lifetime: bad
    ]
    assert oracle.duplicate_applies(trace) == [(1, T1)]


def test_two_phase_violations_reset_at_crash():
    trace = [
        ev(0.1, 1, "lock.grant", tranx=T1, key=b"a"),
        ev(0.2, 1, "lock.release", tranx=T1, key=b"a"),
        ev(0.3, 1, "lock.grant", tranx=T1, key=b"b"),  # violation
        ev(0.4, 2, "lock.release", tranx=T2, key=b"a"),
        ev(0.5, 2, "crash"),
        ev(0.6, 2, "restart"),
        ev(0.7, 2, "lock.grant", tranx=T2, key=b"a"),  # recovery re-lock: fine
    ]
    assert oracle.two_phase_violations(trace) == [(1, T1)]


def test_resolve_history_uses_applied_values_for_unknowns():
    trace = [ev(0.1, 1, "part.apply", tranx=T1, writes=[(b"k", b"vA", 3)])]
    history = [
        {"ok": True, "reads": {}, "writes": {b"x": b"q"}},
        {"ok": False, "reason": "unknown", "reads": {}, "writes": {b"k": b"vA"}},
        {"ok": False, "reason": "unknown", "reads": {}, "writes": {b"k": b"vB"}},
        {"ok": False, "reason": "unknown", "reads": {b"k": 3}, "writes": {}},
        {"ok": False, "reason": "lock_denied_write", "reads": {}, "writes": {b"k": b"vA"}},
    ]
    resolved = oracle.resolve_history(history, trace)
    assert resolved == history[:2]
