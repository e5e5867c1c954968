"""Real-socket runtime: a three-server cluster over loopback TCP."""

import socket
import threading
import time

import pytest

from dtx import rpc
from dtx.nettransport import ServerRuntime, connect_client
from dtx.rpc import AbortReason, MsgType
from dtx.server import ServerNode, owner_of
from dtx.workload import ClusterConfig


def free_ports(n):
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def make_cluster(tmp_path, ports):
    lines = [f"member = {i} 127.0.0.1:{p}" for i, p in enumerate(ports)]
    lines += [
        f"data_dir = {tmp_path}",
        "gc_period = 0.1",
        "backend = file-sync",
    ]
    return ClusterConfig.parse("\n".join(lines))


@pytest.fixture
def cluster(tmp_path):
    cfg = make_cluster(tmp_path, free_ports(3))
    runtimes = [ServerRuntime(cfg, sid) for sid in cfg.member_ids]
    for r in runtimes:
        r.start()
    holder = {"runtimes": runtimes}
    yield cfg, holder
    for r in holder["runtimes"]:
        r.stop()


def test_commit_and_read_back_over_sockets(cluster):
    cfg, _ = cluster
    client = connect_client(cfg, seed=1)
    h = client.open_txn()
    keys = [b"sock-%d" % i for i in range(3)]
    for k in keys:
        assert client.read(h, k) is None
        client.write(h, k, b"v:" + k)
    ok, reason = client.commit(h)
    assert ok and reason is None
    # a second client with its own identity sees everything at version 1
    c2 = connect_client(cfg, seed=2)
    assert c2.state.client_id != client.state.client_id
    h2 = c2.open_txn()
    for k in keys:
        assert c2.read(h2, k) == b"v:" + k
        assert h2.reads[k][1] == 1
    client.driver.close()
    c2.driver.close()


def test_conflicting_clients_serialize_over_sockets(cluster):
    cfg, _ = cluster
    a, b = connect_client(cfg, seed=1), connect_client(cfg, seed=2)
    k = b"contended"
    for c, v in ((a, b"from-a"), (b, b"from-b")):
        h = c.open_txn()
        c.read(h, k)
        c.write(h, k, v)
        ok, _ = c.commit(h)
        assert ok
    h = a.open_txn()
    fresh = connect_client(cfg, seed=3)
    hf = fresh.open_txn()
    assert fresh.read(hf, k) == b"from-b" and hf.reads[k][1] == 2
    for c in (a, b, fresh):
        c.driver.close()


def test_server_restart_preserves_committed_data(cluster):
    cfg, holder = cluster
    client = connect_client(cfg, seed=1)
    # pick a key owned by server 0 so the restart matters for it
    k = next(b"own-%d" % i for i in range(64) if owner_of(b"own-%d" % i, list(cfg.member_ids)) == 0)
    h = client.open_txn()
    client.read(h, k)
    client.write(h, k, b"persisted")
    ok, _ = client.commit(h)
    assert ok
    client.driver.close()

    holder["runtimes"][0].stop()
    time.sleep(0.1)
    replacement = ServerRuntime(cfg, 0)
    replacement.start()
    holder["runtimes"][0] = replacement

    c2 = connect_client(cfg, seed=2, timeout=2.0)
    h2 = c2.open_txn()
    assert c2.read(h2, k) == b"persisted" and h2.reads[k][1] == 1
    c2.driver.close()


def test_stopped_server_frees_its_port(cluster):
    cfg, holder = cluster
    time.sleep(0.3)  # past a GC period, so the peers hold connections to server 0
    runtime = holder["runtimes"].pop(0)
    runtime.stop()
    probe = socket.socket()
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        probe.bind(runtime.addr)
        probe.listen(1)
    finally:
        probe.close()


def test_live_node_runs_on_one_protocol_thread(tmp_path, monkeypatch):
    """start, on_message and every timer callback share one thread per server."""
    seen = {}  # sid -> {(what, thread ident)}

    def record(sid, what):
        seen.setdefault(sid, set()).add((what, threading.get_ident()))

    def traced(name, orig):
        def wrapper(self, *args):
            record(self.sid, name)
            return orig(self, *args)

        return wrapper

    orig_set_timer = ServerRuntime.set_timer

    def set_timer(self, delay, fn):
        def fire():
            record(self.sid, "timer")
            fn()

        return orig_set_timer(self, delay, fire)

    monkeypatch.setattr(ServerNode, "start", traced("start", ServerNode.start))
    monkeypatch.setattr(ServerNode, "on_message", traced("on_message", ServerNode.on_message))
    monkeypatch.setattr(ServerRuntime, "set_timer", set_timer)

    cfg = make_cluster(tmp_path, free_ports(3))
    runtimes = [ServerRuntime(cfg, sid) for sid in cfg.member_ids]
    try:
        for r in runtimes:
            r.start()
        client = connect_client(cfg, seed=1)
        h = client.open_txn()
        for i in range(6):  # keys on several owners: a two-phase commit
            client.write(h, b"spread-%d" % i, b"v")
        assert client.commit(h)[0]
        client.driver.close()
        time.sleep(3 * cfg.gc_period)  # let the periodic timers fire
        names = [t.name for t in threading.enumerate()]
        assert "dtx-timer" not in names
        assert names.count("dtx-protocol") == len(runtimes)
        for r in runtimes:
            kinds = {what for what, _ in seen[r.sid]}
            assert kinds == {"start", "on_message", "timer"}
            assert {ident for _, ident in seen[r.sid]} == {r.loop.thread.ident}
    finally:
        for r in runtimes:
            r.stop()


def test_handshake_skips_a_member_that_is_down(tmp_path):
    cfg = make_cluster(tmp_path, free_ports(3))
    runtimes = [ServerRuntime(cfg, sid) for sid in cfg.member_ids[1:]]  # member 0 down
    try:
        for r in runtimes:
            r.start()
        client = connect_client(cfg, seed=1)
        assert client.state.client_id >> 48 == 1  # assigned by member 1
        members = list(cfg.member_ids)
        k = next(b"up-%d" % i for i in range(64) if owner_of(b"up-%d" % i, members) == 1)
        h = client.open_txn()
        client.read(h, k)
        client.write(h, k, b"v")
        assert client.commit(h)[0]
        client.driver.close()
    finally:
        for r in runtimes:
            r.stop()


def test_read_only_commit_validates_at_each_owner_over_sockets(cluster, monkeypatch):
    cfg, holder = cluster
    members = list(cfg.member_ids)
    keys = [
        next(b"ro-%d" % i for i in range(256) if owner_of(b"ro-%d" % i, members) == sid)
        for sid in members
    ]
    writer = connect_client(cfg, seed=1)
    h = writer.open_txn()
    for k in keys:
        writer.write(h, k, b"v")
    assert writer.commit(h)[0]
    writer.driver.close()
    time.sleep(0.3)  # let the decision fan-out and acks finish
    reader = connect_client(cfg, seed=2)

    received = []
    orig_on_message = ServerNode.on_message

    def on_message(self, env):
        if env.msg_type != MsgType.GC_LC:
            received.append((env.sender_kind, env.msg_type.name))
        return orig_on_message(self, env)

    monkeypatch.setattr(ServerNode, "on_message", on_message)
    h = reader.open_txn()
    for k in keys:
        assert reader.read(h, k) == b"v"
    assert reader.commit(h) == (True, None)
    assert {kind for kind, _ in received} == {rpc.CLIENT}
    assert {name for _, name in received} == {"READ", "VALIDATE"}

    # with every key cached, the commit validates at all three owners
    victim = holder["runtimes"][2]
    victim.stop()
    holder["runtimes"].remove(victim)
    driver = reader.driver
    h = reader.open_txn()
    for k in keys:
        reader.read(h, k)
    started = time.monotonic()
    assert reader.commit(h) == (False, AbortReason.TIMEOUT)
    assert time.monotonic() - started < driver.tries * (driver.timeout + 0.05)

    requests = [(sid, reader.state.env(MsgType.READ, rpc.enc_read_req(k))) for sid, k in zip(members, keys)]
    answers = driver.request_many(requests)
    assert answers[2] is None
    assert [rpc.dec_read_resp(a) for a in answers[:2]] == [((b"v", 1), False)] * 2

    # the live owners still answer each request with its own answer
    h = reader.open_txn()
    assert [reader.read(h, k) for k in keys[:2]] == [b"v", b"v"]
    assert reader.commit(h) == (True, None)
    driver.close()
