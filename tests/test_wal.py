"""WAL block format, torn-tail semantics, rotation, and reclamation."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from dtx.env import MemEnv
from dtx.model import CoordAbort, CoordCommit, PartReady, TranxID
from dtx.wal import (
    BLOCK_HEADER,
    BLOCK_PAYLOAD_CAP,
    BLOCK_SIZE,
    CorruptionError,
    LogManager,
    RecordTooLargeError,
    TranxLog,
    wal_file_name,
)


def test_block_layout_is_bit_exact():
    env = MemEnv()
    m = LogManager(env, BLOCK_SIZE * 4)
    m.append(b"hello")
    m.append(b"world!")
    m.flush()
    name = m.file_names()[0]
    region = env.open_region(name)
    used, crc = struct.unpack("<II", region.read_at(0, BLOCK_HEADER))
    payload = region.read_at(BLOCK_HEADER, used)
    assert payload == b"\x05\x00\x00\x00hello" + b"\x06\x00\x00\x00world!"
    import zlib

    assert crc == zlib.crc32(payload) & 0xFFFFFFFF


@settings(max_examples=50)
@given(st.lists(st.binary(min_size=0, max_size=600), min_size=1, max_size=60))
def test_append_flush_read_round_trip(payloads):
    env = MemEnv()
    m = LogManager(env, BLOCK_SIZE * 64)
    for p in payloads:
        m.append(p)
    m.flush()
    got = []
    names = m.file_names()
    for i, name in enumerate(names):
        got.extend(m.read_file(name, newest=i == len(names) - 1))
    assert got == payloads


def test_record_too_large():
    m = LogManager(MemEnv(), BLOCK_SIZE * 2)
    with pytest.raises(RecordTooLargeError):
        m.append(b"x" * (BLOCK_PAYLOAD_CAP - 3))
    m.append(b"x" * (BLOCK_PAYLOAD_CAP - 4))  # exactly fits one block


def test_rotation_at_file_capacity():
    env = MemEnv()
    m = LogManager(env, BLOCK_SIZE * 2)  # two blocks per file
    for _ in range(5):
        m.append(b"y" * 3000)  # one entry per block
        m.flush()
    assert len(m.file_names()) == 3


def test_unflushed_entries_lost_on_crash_flushed_survive():
    env = MemEnv()
    m = LogManager(env, BLOCK_SIZE * 8)
    m.append(b"durable")
    m.flush()
    m.append(b"volatile")  # never flushed
    env.crash_all()
    m2 = LogManager(env, BLOCK_SIZE * 8)
    names = m2.file_names()
    got = [e for i, n in enumerate(names) for e in m2.read_file(n, newest=i == len(names) - 1)]
    assert got == [b"durable"]


def read_all(m):
    names = m.file_names()
    return [e for i, n in enumerate(names) for e in m.read_file(n, newest=i == len(names) - 1)]


def test_a_log_reopened_twice_reads_back_every_flushed_entry():
    """A reopened log continues its newest file at the first unwritten
    block, so a second crash leaves no unwritten block in an older file."""
    env = MemEnv()
    m = LogManager(env, BLOCK_SIZE * 8)
    m.append(b"first")
    m.flush()
    env.crash_all()
    m2 = LogManager(env, BLOCK_SIZE * 8)
    assert read_all(m2) == [b"first"]
    m2.append(b"second")
    m2.flush()
    env.crash_all()
    m3 = LogManager(env, BLOCK_SIZE * 8)
    assert read_all(m3) == [b"first", b"second"]
    assert len(m3.file_names()) == 1


def test_torn_tail_tolerated_only_in_newest_file():
    env = MemEnv()
    m = LogManager(env, BLOCK_SIZE * 2)
    for _ in range(4):  # spans two files
        m.append(b"z" * 3000)
        m.flush()
    names = m.file_names()
    assert len(names) == 2
    # corrupt the last block of the newest file -> clean stop
    region = env.open_region(names[-1])
    region.write_at(BLOCK_SIZE + 12, b"\xff\xff\xff")
    region.persist()
    m2 = LogManager(env, BLOCK_SIZE * 2)
    assert len(m2.read_file(names[-1], newest=True)) == 1
    # the same corruption in an older file is hard corruption
    region0 = env.open_region(names[0])
    region0.write_at(12, b"\xff\xff\xff")
    region0.persist()
    with pytest.raises(CorruptionError):
        m2.read_file(names[0], newest=False)


def test_valid_block_after_torn_block_is_corruption():
    env = MemEnv()
    m = LogManager(env, BLOCK_SIZE * 4)
    for _ in range(3):
        m.append(b"a" * 3000)
        m.flush()
    name = m.file_names()[0]
    region = env.open_region(name)
    region.write_at(BLOCK_SIZE + 12, b"\xff\xff\xff")  # tear the middle block
    region.persist()
    with pytest.raises(CorruptionError):
        LogManager(env, BLOCK_SIZE * 4).read_file(name, newest=True)


def test_file_names_sort_in_creation_order():
    assert wal_file_name(5) == "00000000000000000005.log"
    assert wal_file_name(5) < wal_file_name(10) < wal_file_name(100)


# -- typed log ----------------------------------------------------------------


def _tlog(capacity_blocks: int = 64) -> tuple[MemEnv, TranxLog]:
    env = MemEnv()
    return env, TranxLog(env, BLOCK_SIZE * capacity_blocks)


def test_tranxlog_scan_round_trip_and_summaries():
    env, log = _tlog()
    recs = [
        PartReady(TranxID(1, 4), ((b"k", 0),), ((b"k", b"v", 1),)),
        CoordCommit(TranxID(0, 9), (77, 3)),
        CoordAbort(TranxID(0, 2)),
    ]
    for r in recs:
        log.append(r, durable=True)
    assert list(log.scan()) == recs
    summary = log.summaries[log.manager.active_file]
    assert summary == {1: 4, 0: 9}


def test_reclaim_respects_watermarks_and_stops_at_first_uncovered():
    env, log = _tlog(capacity_blocks=1)  # one block per file: easy file control
    for seq in range(1, 6):
        log.append(CoordCommit(TranxID(0, seq)), durable=True)
    files_before = log.file_count()
    assert files_before >= 5
    # watermark covers seq<=2 -> files holding 1 and 2 go, file with 3 stops the pass
    deleted = log.reclaim_oldest({0: 2})
    assert deleted == 2
    assert log.file_count() == files_before - 2
    # active file never deleted even when covered
    log.reclaim_oldest({0: 100})
    assert log.manager.active_file in log.manager.file_names()


def test_reclaim_skips_nothing_after_restart_scan():
    env, log = _tlog(capacity_blocks=1)
    for seq in range(1, 4):
        log.append(CoordCommit(TranxID(0, seq)), durable=True)
    # fresh handle over the same medium: summaries rebuilt by scan()
    log2 = TranxLog(env, BLOCK_SIZE)
    recs = list(log2.scan())
    assert [r.tranx.seq for r in recs] == [1, 2, 3]
    assert log2.reclaim_oldest({0: 3}) >= 2
