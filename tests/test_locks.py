"""Lock table: grant matrix, bounded waits, whole grants, abort guard."""

from conftest import make_sim

import pytest

from dtx.bench import preload_sim, start_clients
from dtx.locks import LOCK_WAIT, LockTable, RejectReason
from dtx.model import TranxID
from dtx.workload import WorkloadSpec


class FakeTimers:
    """Manual timer harness standing in for the runtime scheduler."""

    def __init__(self):
        self.timers = []  # (delay, fn, [cancelled])

    def set_timer(self, delay, fn):
        entry = [delay, fn, False]
        self.timers.append(entry)
        return entry

    def cancel_timer(self, entry):
        entry[2] = True

    def fire_all(self):
        pending, self.timers = self.timers, []
        for delay, fn, cancelled in pending:
            if not cancelled:
                fn()


def make_table():
    t = FakeTimers()
    return LockTable(t.set_timer, t.cancel_timer), t


def acquire(table, tranx, shared, exclusive):
    out = []
    table.acquire_for_prepare(tranx, shared, exclusive, lambda ok, why: out.append((ok, why)))
    return out


T1, T2, T3, T4 = TranxID(0, 1), TranxID(0, 2), TranxID(1, 1), TranxID(1, 2)
A, B = b"a", b"b"


def test_shared_with_shared_coexist():
    table, _ = make_table()
    assert acquire(table, T1, [b"k"], []) == [(True, None)]
    assert acquire(table, T2, [b"k"], []) == [(True, None)]
    assert table.holders_of(b"k") == {T1, T2}


def test_shared_against_exclusive_rejected_immediately():
    table, _ = make_table()
    assert acquire(table, T1, [], [b"k"]) == [(True, None)]
    assert acquire(table, T2, [b"k"], []) == [(False, RejectReason.SHARED_DENIED)]


def test_exclusive_against_exclusive_rejected_immediately():
    table, _ = make_table()
    acquire(table, T1, [], [b"k"])
    assert acquire(table, T2, [], [b"k"]) == [(False, RejectReason.EXCLUSIVE_DENIED)]


def test_exclusive_waits_for_shared_then_granted():
    table, timers = make_table()
    acquire(table, T1, [b"k"], [])
    out = acquire(table, T2, [], [b"k"])
    assert out == []  # parked, deadline armed
    table.release_all(T1)
    assert out == [(True, None)]
    assert table.held_by(T2) == {b"k"}


def test_exclusive_wait_times_out():
    table, timers = make_table()
    acquire(table, T1, [b"k"], [])
    out = acquire(table, T2, [], [b"k"])
    timers.fire_all()  # deadline expires before the holder releases
    assert out == [(False, RejectReason.WAIT_TIMEOUT)]
    assert table.held_by(T2) == set()
    table.release_all(T1)
    assert table.is_idle()


def test_all_or_nothing_releases_partial_grants():
    table, _ = make_table()
    acquire(table, T1, [], [b"b"])
    # T2 is refused at exclusive b and is never granted a
    out = acquire(table, T2, [], [b"a", b"b"])
    assert out == [(False, RejectReason.EXCLUSIVE_DENIED)]
    assert table.holders_of(b"a") == set()
    assert acquire(table, T3, [], [b"a"]) == [(True, None)]


def test_overlapping_shared_exclusive_sets_rejected():
    table, _ = make_table()
    with pytest.raises(ValueError):
        table.acquire_for_prepare(T1, [b"k"], [b"k"], lambda ok, why: None)


def test_already_aborted_guard_wins_even_after_wait():
    table, timers = make_table()
    acquire(table, T1, [b"k"], [])
    out = acquire(table, T2, [], [b"k"])
    table.record_abort(T2)  # abort decision lands while T2 waits
    table.release_all(T1)
    assert out == [(False, RejectReason.ALREADY_ABORTED)]
    assert table.is_idle()


def test_release_is_idempotent_and_wakes_fifo():
    table, _ = make_table()
    acquire(table, T1, [b"k"], [])
    out2 = acquire(table, T2, [], [b"k"])
    out3 = acquire(table, T3, [], [b"k"])
    table.release_all(T1)
    table.release_all(T1)  # no-op
    # exactly one waiter gets the exclusive lock; FIFO says it is T2
    assert out2 == [(True, None)]
    assert out3 == []


def test_audit_and_stats():
    table, _ = make_table()
    acquire(table, T1, [b"a"], [b"b"])
    table.audit()
    s = table.stats()
    assert s["held_locks"] == 2 and s["waiters"] == 0
    table.release_all(T1)
    assert table.is_idle()


def test_trace_hook_sees_grant_and_release():
    table, _ = make_table()
    events = []
    table.trace = lambda ev, **info: events.append((ev, info["key"]))
    acquire(table, T1, [b"a"], [])
    table.release_all(T1)
    assert events == [("lock.grant", b"a"), ("lock.release", b"a")]


# steps, then the outcomes and the holdings each named transaction ends
# with; a step acquires (tranx, shared, exclusive) or releases a tranx
WHOLE_OR_NOTHING = {
    "a-parked-request-holds-nothing": (
        [(T1, [B], []), (T2, [], [A, B]), (T3, [], [A])],
        {T2: [], T3: [(True, None)]},
        {T1: {B}, T2: set(), T3: {A}},
    ),
    "a-key-taken-while-parked-refuses-the-retry": (
        [(T1, [B], []), (T2, [], [A, B]), (T3, [], [A]), T1],
        {T2: [(False, RejectReason.EXCLUSIVE_DENIED)], T3: [(True, None)]},
        {T1: set(), T2: set(), T3: {A}},
    ),
    "the-oldest-parked-request-retries-first": (
        # T2 parks on a, then moves to b behind T3, which parked on b first
        [(T1, [A], []), (T4, [B], []), (T2, [], [A, B]), (T3, [], [B]), T1, T4],
        {T2: [(True, None)], T3: []},
        {T2: {A, B}, T3: set()},
    ),
}


@pytest.mark.parametrize("case", sorted(WHOLE_OR_NOTHING))
def test_a_request_is_granted_whole_or_parks_holding_nothing(case):
    steps, outcomes, holdings = WHOLE_OR_NOTHING[case]
    table, _ = make_table()
    out = {}
    for step in steps:
        if isinstance(step, TranxID):
            table.release_all(step)
        else:
            out[step[0]] = acquire(table, *step)
        table.audit()
    assert {t: out[t] for t in outcomes} == outcomes
    assert {t: table.held_by(t) for t in holdings} == holdings


def test_a_request_that_moves_to_a_second_key_keeps_its_first_deadline():
    table, timers = make_table()
    acquire(table, T1, [A], [])
    acquire(table, T4, [B], [])
    out = acquire(table, T2, [], [A, B])
    table.release_all(T1)  # T2 retries and parks again, on b
    assert out == [] and table.held_by(T2) == set() and table.stats()["waiters"] == 1
    assert [delay for delay, _, _ in timers.timers] == [LOCK_WAIT]  # armed at the first park only
    timers.fire_all()
    assert out == [(False, RejectReason.WAIT_TIMEOUT)] and table.stats()["waiters"] == 0
    table.release_all(T4)
    assert table.is_idle()


def test_a_transaction_that_holds_or_waits_cannot_acquire_again():
    table, _ = make_table()
    acquire(table, T1, [A], [])
    acquire(table, T2, [], [A])  # parked
    for t in (T1, T2):
        with pytest.raises(AssertionError):
            acquire(table, t, [B], [])


def test_a_contended_round_keeps_every_lock_table_sound(monkeypatch):
    """Every live node's table is audited after each acquire and release
    of a contended simulator round: some request parks, and every table is
    idle once the round quiesces."""
    spec = WorkloadSpec(key_count=64, read_fraction=0.5, clients=8, duration=1.0, seed=1)
    sim = make_sim(3, seed=spec.seed)
    preload_sim(sim, spec, spec.seed)
    waiters = []

    def audited(orig):
        def call(self, *args):
            orig(self, *args)
            waiters.append(self.stats()["waiters"])
            for n in sim.nodes.values():
                if n.alive:
                    n.node.locks.audit()

        return call

    for name in ("acquire_for_prepare", "release_all"):
        monkeypatch.setattr(LockTable, name, audited(getattr(LockTable, name)))
    start_clients(sim, spec)
    sim.run_until(spec.duration + 1.0)
    assert max(waiters) > 0
    assert all(n.node.locks.is_idle() for n in sim.nodes.values())
