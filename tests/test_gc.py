"""Watermark GC: GCLog double-buffering, completion tracking, tick ordering."""

import pytest

from dtx.env import MemEnv
from dtx.gc import EPOCH_SHIFT, GCLOG_NAME, CompletionTracker, GcLog, GcManager, _half_size
from dtx.model import TranxID


# -- GcLog --------------------------------------------------------------------


def test_gclog_fresh_reads_zero_and_round_trips():
    env = MemEnv()
    log = GcLog(env, [0, 1, 2])
    assert log.read() == {0: 0, 1: 0, 2: 0}
    log.write({0: 5, 1: 3, 2: 0})
    assert log.read() == {0: 5, 1: 3, 2: 0}
    # reopen over the same medium
    log2 = GcLog(env, [0, 1, 2])
    assert log2.read() == {0: 5, 1: 3, 2: 0}
    assert log2.generation == log.generation


def test_gclog_survives_corruption_of_either_half():
    env = MemEnv()
    log = GcLog(env, [0, 1])
    log.write({0: 1, 1: 1})  # generation 1 -> half 1
    log.write({0: 2, 1: 1})  # generation 2 -> half 0
    half = _half_size(2)
    region = env.open_region(GCLOG_NAME)
    # wreck the newest half (generation 2, half 0): reader falls back to gen 1
    region.write_at(4, b"\xee")
    region.persist()
    assert GcLog(env, [0, 1]).read() == {0: 1, 1: 1}
    # wreck the other half too: all zeros, never an exception
    region.write_at(half + 4, b"\xee")
    region.persist()
    assert GcLog(env, [0, 1]).read() == {0: 0, 1: 0}


def test_gclog_torn_write_keeps_previous_generation():
    env = MemEnv()
    log = GcLog(env, [0])
    log.write({0: 7})  # gen 1, durable
    # a write whose persist never happens (crash mid-update of the other half)
    log.generation += 1
    data = log._encode_half(log.generation, {0: 99})
    log.region.write_at((log.generation % 2) * log.half, data)
    env.crash_all()  # unpersisted bytes vanish
    assert GcLog(env, [0]).read() == {0: 7}


def test_gclog_member_count_mismatch_is_invalid():
    import struct
    import zlib

    env = MemEnv()
    log = GcLog(env, [0, 1])
    log.write({0: 4, 1: 4})  # gen 1 -> half 1
    # hand-craft a half claiming the wrong member count, with a valid crc:
    # decode must reject it on the count check, not just the checksum
    body = struct.pack("<QI", 2, 1) + struct.pack("<IQ", 0, 9)
    bad = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    region = env.open_region(GCLOG_NAME)
    region.write_at(0, bad)  # gen 2 would win if it were accepted
    region.persist()
    assert GcLog(env, [0, 1]).read() == {0: 4, 1: 4}


# -- CompletionTracker ----------------------------------------------------------


def test_tracker_contiguous_prefix_and_out_of_order():
    t = CompletionTracker()
    assert [t.next() for _ in range(5)] == [1, 2, 3, 4, 5]
    assert t.lc == 0
    t.mark(2)
    assert t.lc == 0  # gap at 1
    t.mark(1)
    assert t.lc == 2  # spillover absorbed
    t.mark(5)
    t.mark(4)
    assert t.lc == 2
    t.mark(3)
    assert t.lc == 5


def test_tracker_is_idempotent_and_resumes_from_base():
    """A restarted tracker issues from its epoch's base.  Its watermark
    stops below the seqs recovery holds, decided but not acked, and passes
    every other id of the earlier epochs, issued and never decided."""
    t = CompletionTracker(epoch=3)
    base = 2 << EPOCH_SHIFT
    t.hold(base - 9)
    t.hold(base - 4)
    assert t.lc == base - 10
    assert t.next() == base + 1
    t.mark(base - 9)
    t.mark(base - 9)
    assert t.lc == base - 5
    t.mark(base - 4)
    assert t.lc == base
    t.mark(base + 1)
    t.mark(base + 1)
    assert t.lc == base + 1 and t._pending == {}


def test_tracker_rejects_unissued_seq():
    t = CompletionTracker()
    t.next()
    with pytest.raises(AssertionError):
        t.mark(2)


# -- GcManager ------------------------------------------------------------------


class FakeTranxLog:
    def __init__(self):
        self.calls = []

    def reclaim_oldest(self, table):
        self.calls.append(dict(table))
        return 1


class FakeStore:
    def __init__(self):
        self.syncs = 0

    def sync(self):
        self.syncs += 1


def make_manager(server=0, members=(0, 1)):
    env = MemEnv()
    broadcasts = []
    events = []
    mgr = GcManager(
        server=server,
        gclog=GcLog(env, list(members)),
        tranxlog=FakeTranxLog(),
        store=FakeStore(),
        trace=lambda ev, **info: events.append(ev),
    )
    return mgr, broadcasts, events


def test_tick_persists_before_reclaiming_and_broadcasts():
    mgr, broadcasts, events = make_manager()
    mgr.tracker.next()
    mgr.tracker.next()
    mgr.mark_complete(TranxID(0, 1))
    mgr.mark_complete(TranxID(0, 2))
    broadcasts.append(mgr.tick())
    assert mgr.tracker.lc == 2 and "gc.reclaim" in events
    assert broadcasts == [2]
    # the GCLog write is traced before the reclaim
    assert events.index("gc.gclog") < events.index("gc.reclaim")
    # reclamation saw the freshly persisted table
    assert mgr.tranxlog.calls[-1] == {0: 2, 1: 0}
    assert mgr.store.syncs == 1
    # the new watermark is durable: a fresh manager reads it back
    mgr2 = GcManager(
        server=0,
        gclog=GcLog(mgr.gclog.env, [0, 1]),
        tranxlog=FakeTranxLog(),
        store=FakeStore(),
    )
    assert mgr2.table == {0: 2, 1: 0}


def test_mark_complete_enforces_coordinator_and_issuance():
    mgr, _, _ = make_manager(server=0)
    with pytest.raises(AssertionError):
        mgr.mark_complete(TranxID(1, 1))  # not ours
    with pytest.raises(AssertionError):
        mgr.mark_complete(TranxID(0, 1))  # never issued


def test_broadcast_intake_ignores_stale_and_unknown():
    mgr, _, _ = make_manager(server=0, members=(0, 1))
    assert mgr.on_lc_broadcast(1, 4)
    assert mgr.table[1] == 4
    assert not mgr.on_lc_broadcast(1, 4)  # stale (equal)
    assert not mgr.on_lc_broadcast(1, 3)  # stale (lower)
    assert not mgr.on_lc_broadcast(9, 100)  # unknown sender
    assert mgr.table == {0: 0, 1: 4}
    # intake also persisted, synced and reclaimed
    assert mgr.store.syncs == 1
    assert GcLog(mgr.gclog.env, [0, 1]).read() == {0: 0, 1: 4}


def test_is_final_by_watermark():
    mgr, _, _ = make_manager()
    mgr.on_lc_broadcast(1, 6)
    assert mgr.is_final_by_watermark(TranxID(1, 6))
    assert not mgr.is_final_by_watermark(TranxID(1, 7))
    assert not mgr.is_final_by_watermark(TranxID(0, 1))
