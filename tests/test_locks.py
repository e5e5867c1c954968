"""Lock table: grant matrix, bounded waits, all-or-nothing, abort guard."""

import pytest

from dtx.locks import LockTable, RejectReason
from dtx.model import TranxID


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


T1, T2, T3 = TranxID(0, 1), TranxID(0, 2), TranxID(1, 1)


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
    # T2 takes a, then hits exclusive b -> rejected, a must be released
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
