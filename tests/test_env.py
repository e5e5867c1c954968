"""Durable environments: persist barriers, crash semantics, region registries."""

import os

from conftest import dir_id, fsynced_dirs

import pytest

from dtx.env import DiskEnv, MemEnv, RegionFullError


def test_memory_region_crash_zeroes_unpersisted():
    env = MemEnv()
    r = env.create_region("r.log", 64)
    r.write_at(0, b"keep")
    r.persist(0, 4)
    r.write_at(8, b"lose")
    r.crash()
    assert r.read_at(0, 4) == b"keep"
    assert r.read_at(8, 4) == b"\0\0\0\0"


def test_memory_region_holds_only_what_was_written():
    r = MemEnv().create_region("r.log", 1 << 20)
    assert len(r._buf) == 0
    assert r.read_at((1 << 20) - 8, 8) == bytes(8)
    r.write_at(100, b"abc")
    assert len(r._buf) == 103
    assert r.read_at(0, 100) == bytes(100)  # the gap before the write
    assert r.read_at(98, 10) == b"\0\0abc\0\0\0\0\0"  # runs past the buffer
    r.write_at(101, b"xyzw")  # overlaps the end
    assert r.read_at(100, 6) == b"axyzw\0"
    r.crash()
    assert r.read_at(98, 10) == bytes(10)


def test_region_bounds_checked():
    r = MemEnv().create_region("r.log", 16)
    with pytest.raises(RegionFullError):
        r.write_at(10, b"toolongdata")
    with pytest.raises(ValueError):
        r.read_at(10, 10)


def test_partial_persist_keeps_other_ranges_dirty():
    r = MemEnv().create_region("r.log", 64)
    r.write_at(0, b"aaaa")
    r.write_at(32, b"bbbb")
    r.persist(0, 4)  # only the first write is durable
    r.crash()
    assert r.read_at(0, 4) == b"aaaa"
    assert r.read_at(32, 4) == b"\0\0\0\0"


def test_memenv_region_registry():
    env = MemEnv()
    env.create_region("b.log", 8)
    env.create_region("a.log", 8)
    env.create_region("gclog", 8)
    assert env.list_regions(".log") == ["a.log", "b.log"]
    assert env.region_exists("gclog")
    with pytest.raises(FileExistsError):
        env.create_region("a.log", 8)
    env.delete_region("a.log")
    assert not env.region_exists("a.log")


def test_memenv_ts():
    env = MemEnv()
    assert env.next_ts() < env.next_ts()


@pytest.mark.parametrize("backend", ["mapped", "file"])
def test_diskenv_round_trip(tmp_path, backend):
    env = DiskEnv(str(tmp_path), backend=backend)
    r = env.create_region("00000000000000000001.log", 4096)
    r.write_at(0, b"payload")
    r.persist(0, 7)
    r.close()
    # reopen from the directory
    env2 = DiskEnv(str(tmp_path), backend=backend)
    assert env2.list_regions(".log") == ["00000000000000000001.log"]
    r2 = env2.open_region("00000000000000000001.log")
    assert r2.read_at(0, 7) == b"payload"
    r2.close()
    env2.delete_region("00000000000000000001.log")
    assert env2.list_regions(".log") == []


def test_diskenv_rejects_unknown_backend(tmp_path):
    with pytest.raises(ValueError):
        DiskEnv(str(tmp_path), backend="nvme")


def test_diskenv_wal_files_live_under_wal_dir(tmp_path):
    env = DiskEnv(str(tmp_path))
    r = env.create_region("00000000000000000009.log", 4096)
    r.close()
    assert os.path.exists(os.path.join(str(tmp_path), "wal", "00000000000000000009.log"))


def test_diskenv_ts_monotone(tmp_path):
    env = DiskEnv(str(tmp_path))
    ts = [env.next_ts() for _ in range(100)]
    assert ts == sorted(ts) and len(set(ts)) == 100


@pytest.mark.parametrize("backend", ["mapped", "file"])
def test_diskenv_syncs_the_directory_of_each_region_it_creates(tmp_path, backend, monkeypatch):
    env = DiskEnv(str(tmp_path), backend=backend)
    seen = fsynced_dirs(monkeypatch)
    env.create_region("00000000000000000001.log", 4096).close()
    assert seen == [dir_id(os.path.join(str(tmp_path), "wal"))]
    env.create_region("gclog", 4096).close()
    assert seen[1:] == [dir_id(str(tmp_path))]
    env.open_region("gclog").close()  # opening creates no name
    assert len(seen) == 2


def test_a_fresh_diskenv_syncs_the_names_of_the_directories_it_creates(tmp_path, monkeypatch):
    """A new data root is synced into its parent, and wal/ and db/ into the
    root; reopening the root creates nothing and syncs nothing."""
    root = os.path.join(str(tmp_path), "server-0")
    seen = fsynced_dirs(monkeypatch)
    DiskEnv(root)
    assert set(seen) == {dir_id(str(tmp_path)), dir_id(root)}
    synced = len(seen)
    DiskEnv(root)
    assert len(seen) == synced
