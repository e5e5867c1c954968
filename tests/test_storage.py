"""Versioned stores, the LRU cache, and version discipline."""

import pytest

from dtx.storage import (
    FileKvStore,
    MemKvStore,
    ServerCache,
    StorageEngine,
)


def test_mem_store_overlay_vs_durable():
    durable = {}
    s = MemKvStore(durable)
    s.apply([(b"k", b"v", 1)])
    assert s.get(b"k") == (b"v", 1)
    assert durable == {}  # not synced yet: a crash would lose it
    s.sync()
    assert durable == {b"k": (b"v", 1)}
    # a "restart" reopens the durable dict
    s2 = MemKvStore(durable)
    assert s2.get(b"k") == (b"v", 1)


def test_file_store_replay_and_torn_tail(tmp_path):
    root = str(tmp_path)
    s = FileKvStore(root)
    s.apply([(b"a", b"1", 1), (b"b", b"2", 1), (b"a", b"3", 2)])
    s.sync()
    s.close()
    s2 = FileKvStore(root)
    assert s2.get(b"a") == (b"3", 2)
    assert s2.get(b"b") == (b"2", 1)
    s2.close()
    # torn tail: append garbage half-frame; replay must stop cleanly before it
    with open(f"{root}/db/data.log", "ab") as f:
        f.write(b"\x50\x00\x00\x00\x99\x99")
    s3 = FileKvStore(root)
    assert s3.get(b"a") == (b"3", 2)
    s3.close()


def test_rows_written_after_a_torn_tail_survive_the_next_open(tmp_path):
    """Open truncates the torn frame replay stopped at, so a row appended
    after it is not hidden behind it at the next open."""
    root = str(tmp_path)
    s = FileKvStore(root)
    s.apply([(b"a", b"1", 1)])
    s.sync()
    s.close()
    with open(f"{root}/db/data.log", "ab") as f:
        f.write(b"\x50\x00\x00\x00\x99")  # 5 bytes of a torn frame
    s2 = FileKvStore(root)
    s2.apply([(b"b", b"2", 1)])
    s2.sync()
    s2.close()
    s3 = FileKvStore(root)
    assert s3.get(b"a") == (b"1", 1) and s3.get(b"b") == (b"2", 1)
    s3.close()


def test_file_store_checksum_guards_frames(tmp_path):
    root = str(tmp_path)
    s = FileKvStore(root)
    s.apply([(b"a", b"1", 1), (b"b", b"2", 1)])
    s.sync()
    s.close()
    path = f"{root}/db/data.log"
    data = bytearray(open(path, "rb").read())
    data[10] ^= 0xFF  # corrupt the first frame body
    open(path, "wb").write(bytes(data))
    s2 = FileKvStore(root)  # replay stops at the corrupt frame
    assert s2.get(b"a") is None and s2.get(b"b") is None
    s2.close()


def test_cache_lru_eviction_and_version_monotonicity():
    c = ServerCache(capacity=2)
    assert c.put(b"a", b"1", 5)
    assert not c.put(b"a", b"0", 4)  # stale put refused
    assert c.get(b"a") == (b"1", 5)
    c.put(b"b", b"2", 1)
    c.put(b"c", b"3", 1)  # capacity 2: least-recently-used entry evicted
    assert len(c) == 2
    assert c.get(b"c") == (b"3", 1)
    c.invalidate([b"c"])
    assert c.get(b"c") is None
    assert c.hits >= 1 and c.misses >= 1


def test_cache_capacity_zero_is_passthrough():
    c = ServerCache(capacity=0)
    assert not c.put(b"a", b"1", 1)
    assert c.get(b"a") is None


def test_engine_version_discipline():
    eng = StorageEngine(MemKvStore({}))
    eng.apply_writes([(b"k", b"v1", 1)])
    with pytest.raises(AssertionError):
        eng.apply_writes([(b"k", b"v3", 3)])  # gap
    with pytest.raises(AssertionError):
        eng.apply_writes([(b"k", b"v1", 1)])  # repeat on the live path
    eng.apply_writes([(b"k", b"v2", 2)])
    assert eng.get(b"k") == (b"v2", 2)
    assert eng.current_version(b"missing") == 0


def test_engine_replay_is_idempotent():
    eng = StorageEngine(MemKvStore({}))
    eng.apply_writes([(b"k", b"v1", 1), (b"j", b"w1", 1)])
    eng.apply_writes([(b"k", b"v1", 1)], replay=True)  # no-op, no assert
    eng.apply_writes([(b"k", b"v2", 2)], replay=True)
    assert eng.get(b"k") == (b"v2", 2)

