"""Watermark GC: the GCLog's epoch and double-buffering, TranxID issue and
completion tracking, tick ordering."""

import struct
import zlib

import pytest

from dtx.env import MemEnv
from dtx.gc import EPOCH_SHIFT, GCLOG_NAME, GcLog, GcManager, _half_size
from dtx.model import TranxID
from dtx.wal import CorruptionError


# -- GcLog --------------------------------------------------------------------


def test_gclog_fresh_reads_zero_and_round_trips():
    env = MemEnv()
    log = GcLog(env, [0, 1, 2])
    assert (log.epoch, log.table) == (0, {0: 0, 1: 0, 2: 0})
    log.epoch = 4
    log.write({0: 5, 1: 3, 2: 0})
    # reopen over the same medium
    log2 = GcLog(env, [0, 1, 2])
    assert (log2.epoch, log2.table) == (4, {0: 5, 1: 3, 2: 0})
    assert log2.generation == log.generation


def test_gclog_half_bytes_are_pinned():
    """Two members, generation 3, epoch 2: the half a third write lands in."""
    env = MemEnv()
    log = GcLog(env, [1, 0])
    log.epoch = 2
    for table in ({0: 1, 1: 1}, {0: 2, 1: 1}, {0: 5, 1: 258}):
        log.write(table)
    assert log.half == _half_size(2) == 44
    assert log.region.read_at(log.half, log.half).hex() == (
        "0300000000000000"  # generation
        "02000000"  # epoch
        "02000000"  # slot count
        "00000000" "0500000000000000"  # server 0, seq 5
        "01000000" "0201000000000000"  # server 1, seq 258
        "afea83ac"  # crc32
    )


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
    assert GcLog(env, [0, 1]).table == {0: 1, 1: 1}
    # wreck the other half too: no half holds the epoch, so the file is
    # refused rather than read as epoch 0, which would reissue ids
    region.write_at(half + 4, b"\xee")
    region.persist()
    with pytest.raises(CorruptionError, match=GCLOG_NAME):
        GcLog(env, [0, 1])


def test_gclog_whose_first_write_tore_opens_as_fresh():
    """The first write goes to half 1; torn, it leaves half 0 all zero,
    which no write has touched, so the file opens as generation 0."""
    env = MemEnv()
    log = GcLog(env, [0, 1])
    data = log._encode_half(1, {0: 3, 1: 3})
    log.region.write_at(log.half, data[: len(data) // 2])
    log.region.persist()
    reopened = GcLog(env, [0, 1])
    assert (reopened.generation, reopened.epoch, reopened.table) == (0, 0, {0: 0, 1: 0})


def test_gclog_torn_write_keeps_previous_generation():
    env = MemEnv()
    log = GcLog(env, [0])
    log.write({0: 7})  # gen 1, durable
    # a write whose persist never happens (crash mid-update of the other half)
    log.generation += 1
    data = log._encode_half(log.generation, {0: 99})
    log.region.write_at((log.generation % 2) * log.half, data)
    env.crash_all()  # unpersisted bytes vanish
    assert GcLog(env, [0]).table == {0: 7}


def test_gclog_member_count_mismatch_is_invalid():
    env = MemEnv()
    log = GcLog(env, [0, 1])
    log.write({0: 4, 1: 4})  # gen 1 -> half 1
    # hand-craft a half claiming the wrong member count, with a valid crc
    # where a half ends: decode must reject it on the count check, not
    # just the checksum
    body = struct.pack("<QII", 2, 0, 1) + struct.pack("<IQ", 0, 9) + bytes(12)
    bad = body + struct.pack("<I", zlib.crc32(body))
    region = env.open_region(GCLOG_NAME)
    region.write_at(0, bad)  # gen 2 would win if it were accepted
    region.persist()
    assert GcLog(env, [0, 1]).table == {0: 4, 1: 4}


def test_gclog_of_the_layout_without_an_epoch_is_refused():
    """A half without the epoch field is 8 B shorter, so a gclog written
    before the epoch moved into it fails at open instead of restarting at
    epoch 0."""
    env = MemEnv()
    old_half = 8 + 4 + 2 * 12 + 4
    env.create_region(GCLOG_NAME, 2 * old_half)
    with pytest.raises(CorruptionError):
        GcLog(env, [0, 1])


# -- restart epoch ----------------------------------------------------------------


def manager(env, server=0, members=(0, 1)):
    return GcManager(server=server, gclog=GcLog(env, list(members)), tranxlog=None, store=None)


def test_restart_raises_the_epoch_by_one_before_issuing():
    env = MemEnv()
    for epoch in (1, 2, 3):
        mgr = manager(env)
        assert mgr.gclog.epoch == epoch - 1
        mgr.restart()
        assert GcLog(env, [0, 1]).epoch == epoch  # durable before any seq
        assert mgr.next_seq() == (epoch - 1) << EPOCH_SHIFT | 1


def test_a_restart_torn_before_its_persist_takes_the_same_epoch_again(monkeypatch):
    env = MemEnv()
    manager(env).restart()  # epoch 1, durable

    class Crash(Exception):
        pass

    def crash(offset=0, n=None):
        raise Crash

    torn = manager(env)
    with monkeypatch.context() as m, pytest.raises(Crash):
        m.setattr(torn.gclog.region, "persist", crash)
        torn.restart()  # epoch 2 written, never persisted
    assert (torn.base, torn.last_issued, torn._pending) == (0, 0, {})  # issued nothing
    env.crash_all()
    again = manager(env)
    assert again.gclog.epoch == 1
    again.restart()
    assert again.gclog.epoch == 2
    assert again.next_seq() == (1 << EPOCH_SHIFT) + 1


# -- issue and completion -------------------------------------------------------


def test_tracker_contiguous_prefix_and_out_of_order():
    mgr = manager(MemEnv())
    assert [mgr.next_seq() for _ in range(5)] == [1, 2, 3, 4, 5]
    assert mgr.lc == 0
    mgr.mark_complete(TranxID(0, 2))
    assert mgr.lc == 0  # gap at 1
    mgr.mark_complete(TranxID(0, 1))
    assert mgr.lc == 2  # spillover absorbed
    mgr.mark_complete(TranxID(0, 5))
    mgr.mark_complete(TranxID(0, 4))
    assert mgr.lc == 2
    mgr.mark_complete(TranxID(0, 3))
    assert mgr.lc == 5


def test_tracker_is_idempotent_and_resumes_from_base():
    """A restarted manager issues from its epoch's base.  Its watermark
    stops below the seqs recovery holds, decided but not acked, and passes
    every other id of the earlier epochs, issued and never decided."""
    mgr = manager(MemEnv())
    mgr.gclog.epoch = 2
    mgr.restart()  # epoch 3
    base = 2 << EPOCH_SHIFT
    mgr.hold(base - 9)
    mgr.hold(base - 4)
    assert mgr.lc == base - 10
    assert mgr.next_seq() == base + 1
    mgr.mark_complete(TranxID(0, base - 9))
    mgr.mark_complete(TranxID(0, base - 9))
    assert mgr.lc == base - 5
    mgr.mark_complete(TranxID(0, base - 4))
    assert mgr.lc == base
    mgr.mark_complete(TranxID(0, base + 1))
    mgr.mark_complete(TranxID(0, base + 1))
    assert mgr.lc == base + 1 and mgr._pending == {}


def test_tracker_rejects_unissued_seq():
    mgr = manager(MemEnv())
    mgr.next_seq()
    with pytest.raises(AssertionError):
        mgr.mark_complete(TranxID(0, 2))


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
    events = []
    mgr = GcManager(
        server=server,
        gclog=GcLog(env, list(members)),
        tranxlog=FakeTranxLog(),
        store=FakeStore(),
        trace=lambda ev, **info: events.append(ev),
    )
    return mgr, env, events


def test_tick_persists_before_reclaiming_and_broadcasts():
    mgr, env, events = make_manager()
    broadcasts = []
    mgr.next_seq()
    mgr.next_seq()
    mgr.mark_complete(TranxID(0, 1))
    mgr.mark_complete(TranxID(0, 2))
    broadcasts.append(mgr.tick())
    assert mgr.lc == 2 and "gc.reclaim" in events
    assert broadcasts == [2]
    # the GCLog write is traced before the reclaim
    assert events.index("gc.gclog") < events.index("gc.reclaim")
    # reclamation saw the freshly persisted table
    assert mgr.tranxlog.calls[-1] == {0: 2, 1: 0}
    assert mgr.store.syncs == 1
    # the new watermark is durable: a fresh manager reads it back
    mgr2 = GcManager(
        server=0,
        gclog=GcLog(env, [0, 1]),
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
    mgr, env, _ = make_manager(server=0, members=(0, 1))
    assert mgr.on_lc_broadcast(1, 4)
    assert mgr.table[1] == 4
    assert not mgr.on_lc_broadcast(1, 4)  # stale (equal)
    assert not mgr.on_lc_broadcast(1, 3)  # stale (lower)
    assert not mgr.on_lc_broadcast(9, 100)  # unknown sender
    assert mgr.table == {0: 0, 1: 4}
    # intake also persisted, synced and reclaimed
    assert mgr.store.syncs == 1
    assert GcLog(env, [0, 1]).table == {0: 0, 1: 4}


def test_is_final_by_watermark():
    mgr, _, _ = make_manager()
    mgr.on_lc_broadcast(1, 6)
    assert mgr.is_final_by_watermark(TranxID(1, 6))
    assert not mgr.is_final_by_watermark(TranxID(1, 7))
    assert not mgr.is_final_by_watermark(TranxID(0, 1))
