"""Lock table: exclusive-only whole grants, refusal, contract checks."""

from conftest import make_sim

import pytest

from dtx.bench import preload_sim, start_clients
from dtx.locks import LockTable, RejectReason
from dtx.model import PartState, TranxID
from dtx.server import ServerNode
from dtx.workload import WorkloadSpec


def make_table():
    return LockTable()


def acquire(table, tranx, shared, exclusive):
    out = []
    table.acquire_for_prepare(tranx, shared, exclusive, lambda ok, why: out.append((ok, why)))
    return out


T1, T2, T3 = TranxID(0, 1), TranxID(0, 2), TranxID(1, 1)
A, B = b"a", b"b"


def test_exclusive_against_exclusive_rejected_immediately():
    table = make_table()
    acquire(table, T1, [], [b"k"])
    assert acquire(table, T2, [], [b"k"]) == [(False, RejectReason.EXCLUSIVE_DENIED)]


def test_all_or_nothing_releases_partial_grants():
    table = make_table()
    acquire(table, T1, [], [b"b"])
    # T2 is refused at exclusive b and is never granted a
    out = acquire(table, T2, [], [b"a", b"b"])
    assert out == [(False, RejectReason.EXCLUSIVE_DENIED)]
    assert not table.exclusively_held(b"a")
    assert acquire(table, T3, [], [b"a"]) == [(True, None)]


def test_overlapping_shared_exclusive_sets_rejected():
    table = make_table()
    with pytest.raises(ValueError):
        table.acquire_for_prepare(T1, [b"k"], [b"k"], lambda ok, why: None)


def test_a_shared_key_is_refused_and_nothing_is_granted():
    """Locks are exclusive only: any shared key raises, before a grant."""
    table = make_table()
    with pytest.raises(ValueError):
        acquire(table, T1, [A], [B])
    assert table.is_idle() and table.held_by(T1) == set()


def test_release_is_idempotent_and_a_released_key_is_granted_again():
    table = make_table()
    acquire(table, T1, [], [A, B])
    table.release_all(T1)
    table.release_all(T1)  # no-op
    assert table.is_idle()
    assert acquire(table, T2, [], [B]) == [(True, None)]
    assert table.held_by(T2) == {B}


def test_audit_and_stats():
    table = make_table()
    acquire(table, T1, [], [b"a", b"b"])
    table.audit()
    assert table.stats() == {"held_locks": 2}
    table.release_all(T1)
    assert table.is_idle()


def test_trace_hook_sees_grant_and_release():
    table = make_table()
    events = []
    table.trace = lambda ev, **info: events.append((ev, info["key"]))
    acquire(table, T1, [], [b"a"])
    table.release_all(T1)
    assert events == [("lock.grant", b"a"), ("lock.release", b"a")]


def test_a_transaction_that_holds_or_waits_cannot_acquire_again():
    """No request waits, so holding is the one case."""
    table = make_table()
    acquire(table, T1, [], [A])
    with pytest.raises(AssertionError):
        acquire(table, T1, [], [B])


def test_a_contended_round_keeps_every_lock_table_sound(monkeypatch):
    """A contended simulator round: every live node's table is audited
    after each acquire and release, and every participant record on every
    node belongs to a slice that writes a key (one it prepared, or an abort
    that overtook its PREPARE); every table is idle once it quiesces."""
    spec = WorkloadSpec(key_count=64, read_fraction=0.5, clients=8, duration=1.0, seed=1)
    sim = make_sim(3, seed=spec.seed)
    preload_sim(sim, spec, spec.seed)
    slices = set()  # (sid, tranx) of every slice prepared
    calls = []

    def sound():
        for sid, n in sim.nodes.items():
            if n.alive:
                n.node.locks.audit()
                for t, rec in n.node.part.items():
                    assert (sid, t) in slices or rec.state is PartState.ABORT, (sid, t, rec)

    def audited(orig):
        def call(self, *args):
            orig(self, *args)
            calls.append(1)
            sound()

        return call

    orig_prepare = ServerNode._local_prepare

    def prepare(self, tranx, sub):
        assert sub.writes, (self.sid, tranx, sub)
        slices.add((self.sid, tranx))
        orig_prepare(self, tranx, sub)

    for name in ("acquire_for_prepare", "release_all"):
        monkeypatch.setattr(LockTable, name, audited(getattr(LockTable, name)))
    monkeypatch.setattr(ServerNode, "_local_prepare", prepare)
    start_clients(sim, spec)
    sim.run_until(spec.duration + 1.0)
    sound()
    assert len(calls) > 1000 and len(slices) > 500
    assert all(n.node.locks.is_idle() for n in sim.nodes.values())
