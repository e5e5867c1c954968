"""Shared helpers: simulator construction, generator-driving shortcuts, and
a directory-fsync spy."""

from __future__ import annotations

import os
import stat

import pytest

from dtx import client as cl
from dtx.server import ServerConfig
from dtx.sim import NetConfig, Simulator

# Short GC period so reclamation shows up in second-scale test runs.
TEST_GC_PERIOD = 0.100


def make_sim(n_servers: int = 3, seed: int = 0, net: NetConfig | None = None, **cfg) -> Simulator:
    members = list(range(n_servers))
    config = ServerConfig(
        members=members,
        gc_period=cfg.pop("gc_period", TEST_GC_PERIOD),
        **cfg,
    )
    return Simulator(members, config=config, seed=seed, net=net)


def txn_gen(cs, keys, writes):
    """One transaction as a client generator; returns (ok, reason, handle)."""
    h = cl.TxnHandle()
    for k in sorted(keys):
        yield from cl.txn_read(cs, h, k)
    for k, v in writes.items():
        cl.txn_write(h, k, v)
    ok, reason = yield from cl.txn_commit(cs, h)
    return ok, reason, h


def run_gen(sim: Simulator, client, gen, timeout: float = 30.0):
    """Drive one client generator to completion on the simulator."""
    box: list = []
    client.run(gen, box.append)
    deadline = sim.now + timeout
    while not box and sim.now <= deadline and sim.step():
        pass
    if not box:
        raise TimeoutError("generator did not finish within the timeout")
    kind, value = box[0]
    if kind == "error":
        raise value
    return value


def commit_txn(sim: Simulator, client, keys, writes, timeout: float = 30.0):
    return run_gen(sim, client, txn_gen(client.state, keys, writes), timeout)


@pytest.fixture
def sim3():
    return make_sim(3, seed=1)


def fsynced_dirs(monkeypatch):
    """(device, inode) of every directory os.fsync is called on."""
    seen = []
    real = os.fsync

    def spy(fd):
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            seen.append((st.st_dev, st.st_ino))
        real(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return seen


def dir_id(path):
    st = os.stat(path)
    return st.st_dev, st.st_ino
