"""Real-socket runtime: a three-server cluster over loopback TCP."""

import socket
import threading
import time

import pytest

from dtx import rpc
from dtx.client import RPC_TIMEOUT, RPC_TRIES
from dtx.nettransport import ServerRuntime, SocketDriver, connect_client
from dtx.rpc import AbortReason, Envelope, MsgType
from dtx.server import ServerNode, owner_of
from dtx.sim import Simulator
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


@pytest.mark.parametrize("backend", ["mapped-flush", "file-sync"])
def test_a_stopped_server_closes_its_gc_log(tmp_path, backend):
    """The gclog, which also keeps the restart epoch, is closed on stop and
    is the one file of the data directory outside wal/ and db/."""
    (port,) = free_ports(1)
    cfg = ClusterConfig.parse(
        f"member = 0 127.0.0.1:{port}\ndata_dir = {tmp_path}\nbackend = {backend}"
    )
    runtime = ServerRuntime(cfg, 0)
    runtime.start()
    region = runtime.node.gclog.region
    assert not region._f.closed
    runtime.stop()
    assert region._f.closed
    assert sorted(p.name for p in (tmp_path / "server-0").iterdir()) == ["db", "gclog", "wal"]


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
        assert not {"dtx-timer", "dtx-read", "dtx-accept"} & set(names)
        assert names.count("dtx-protocol") == len(runtimes)
        for r in runtimes:
            kinds = {what for what, _ in seen[r.sid]}
            assert kinds == {"start", "on_message", "timer"}
            assert {ident for _, ident in seen[r.sid]} == {r.thread.ident}
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


def test_handshake_skips_an_answer_that_is_not_a_client_id(tmp_path):
    """Member 0 answers the handshake with 4 bytes, which decode to no
    client id, so the handshake asks member 1 and takes its answer."""
    raws = [RawServer({0: [(0, b"\x01\x00\x00\x00")]}), RawServer({0: [(0, rpc.enc_u64(1 << 48 | 5))]})]
    driver = SocketDriver(make_cluster(tmp_path, [r.listener.getsockname()[1] for r in raws]))
    try:
        assert driver.handshake() == 1 << 48 | 5
    finally:
        driver.close()
        for r in raws:
            r.close()


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
    # one READ per key, then a validation READ to each owner but the last
    # read's, so at least five: a slow answer is resent
    assert {kind for kind, _ in received} == {rpc.CLIENT}
    assert {name for _, name in received} == {"READ"} and len(received) >= 5

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

    requests = [(sid, reader.state.env(MsgType.READ, rpc.enc_read_req([k]))) for sid, k in zip(members, keys)]

    def round_trip():  # every request sent before any answer is awaited
        return (yield ("rpcs", requests))

    answers = reader._run(round_trip())
    assert answers[2] is None
    assert [rpc.dec_read_resp(a) for a in answers[:2]] == [([(b"v", 1)], False, ())] * 2

    # the live owners still answer each request with its own answer
    h = reader.open_txn()
    assert [reader.read(h, k) for k in keys[:2]] == [b"v", b"v"]
    assert reader.commit(h) == (True, None)
    driver.close()


def test_an_answer_refreshes_the_cache_over_sockets(cluster):
    """A caches a key, B commits it, and A's next answer from the key's
    owner carries the new entry into A's cache, as in the simulator."""
    cfg, _ = cluster
    members = list(cfg.member_ids)
    k, other = [key for key in (b"fresh-%d" % i for i in range(256)) if owner_of(key, members) == 0][:2]
    a, b = connect_client(cfg, seed=1), connect_client(cfg, seed=2)
    try:
        for c, value in ((a, b"a"), (b, b"b")):
            h = c.open_txn()
            c.read(h, k)
            c.write(h, k, value)
            assert c.commit(h) == (True, None)
        assert a.state.cache._map[k] == (b"a", 1)
        assert a.read(a.open_txn(), other) is None
        assert a.state.cache._map[k] == (b"b", 2)
        h = a.open_txn()
        assert a.read(h, k) == b"b" and a.commit(h) == (True, None) and h.attempts == 1
    finally:
        a.driver.close()
        b.driver.close()


def test_read_many_sends_one_read_per_owner_over_sockets(cluster, monkeypatch):
    cfg, _ = cluster
    members = list(cfg.member_ids)
    home = [k for k in (b"many-%d" % i for i in range(256)) if owner_of(k, members) == 0][:3]
    other = next(k for k in (b"many-%d" % i for i in range(256)) if owner_of(k, members) == 1)
    writer = connect_client(cfg, seed=1)
    h = writer.open_txn()
    assert writer.read_many(h, [*home, other]) == [None] * 4
    for k in (*home, other):
        writer.write(h, k, b"v:" + k)
    assert writer.commit(h)[0]
    writer.driver.close()
    time.sleep(0.3)  # let the decision fan-out and acks finish

    received = []
    orig_on_message = ServerNode.on_message

    def on_message(self, env):
        if env.sender_kind == rpc.CLIENT:
            received.append((self.sid, env.msg_type.name))
        return orig_on_message(self, env)

    monkeypatch.setattr(ServerNode, "on_message", on_message)
    reader = connect_client(cfg, seed=2)
    del received[:]  # the handshake
    h = reader.open_txn()
    assert reader.read_many(h, home) == [b"v:" + k for k in home]
    assert reader.commit(h) == (True, None)
    # one owner, nothing locked: one READ, and the commit sends nothing
    assert received == [(0, "READ")]

    del received[:]
    h = reader.open_txn()
    assert reader.read_many(h, [other, home[0]]) == [b"v:" + other, b"v:" + home[0]]
    assert reader.commit(h) == (True, None)
    # the round read `other` alone and vouches for it; home[0] came from
    # the cache, so its owner validates it
    assert received == [(1, "READ"), (0, "READ")]

    reader.state.cache.invalidate([other, *home])
    del received[:]
    h = reader.open_txn()
    assert reader.read_many(h, [other, *home]) == [b"v:" + other] + [b"v:" + k for k in home]
    assert reader.commit(h) == (True, None)
    # two owners read in one round, so both are validated
    assert sorted(received) == [(0, "READ"), (0, "READ"), (1, "READ"), (1, "READ")]
    reader.driver.close()


def test_declared_read_only_round_is_validated_by_its_owners_over_sockets(cluster, monkeypatch):
    cfg, _ = cluster
    members = list(cfg.member_ids)
    keys = [b"group-%d" % i for i in range(256)]
    x = next(k for k in keys if owner_of(k, members) == 0)
    y = next(k for k in keys if owner_of(k, members) == 1)
    writer = connect_client(cfg, seed=1)
    h = writer.open_txn()
    assert writer.read_many(h, [x, y]) == [None, None]
    writer.write(h, x, b"vx")
    writer.write(h, y, b"vy")
    assert writer.commit(h)[0]
    writer.driver.close()
    time.sleep(0.3)  # let the decision fan-out and acks finish

    received = []
    orig_on_message = ServerNode.on_message

    def on_message(self, env):
        received.append((self.sid, env.msg_type.name))
        return orig_on_message(self, env)

    monkeypatch.setattr(ServerNode, "on_message", on_message)
    reader = connect_client(cfg, seed=2)
    h = reader.open_txn(read_only=True)
    del received[:]  # the handshake
    assert reader.read_many(h, [x, y]) == [b"vx", b"vy"]
    assert h.fresh is not None  # both owners vouched
    assert reader.commit(h) == (True, None) and h.attempts == 1
    # one READ per owner and one notice each way; no validation READ
    got = sorted(m for m in received if m[1] != "GC_LC")
    assert got == [(0, "READ"), (0, "READ_NOTICE"), (1, "READ"), (1, "READ_NOTICE")]
    reader.driver.close()


def hold_with_full_accept_queue(port):
    """A listener on port that never accepts, its accept queue filled, so a
    connect to it neither completes nor fails."""
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", port))
    listener.listen(0)
    held = [listener]
    while True:
        filler = socket.socket()
        filler.settimeout(0.2)
        held.append(filler)
        try:
            filler.connect(("127.0.0.1", port))
        except socket.timeout:
            return held
        assert len(held) < 16, "the accept queue never filled"


def test_a_peer_that_cannot_be_reached_does_not_stall_the_node(tmp_path):
    """Member 2's port takes no connection, and every GC period servers 0
    and 1 send it GC_LC: two-owner commits between 0 and 1 stay fast."""
    cfg = make_cluster(tmp_path, free_ports(3))
    held = hold_with_full_accept_queue(int(cfg.address_of(2).rpartition(":")[2]))
    runtimes = [ServerRuntime(cfg, sid) for sid in (0, 1)]
    try:
        for r in runtimes:
            r.start()
        client = connect_client(cfg, seed=1)
        members = list(cfg.member_ids)
        k0, k1 = (next(k for k in (b"near-%d" % i for i in range(256)) if owner_of(k, members) == sid)
                  for sid in (0, 1))
        durations = []
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            h = client.open_txn()
            client.write(h, k0, b"v%d" % len(durations))
            client.write(h, k1, b"v%d" % len(durations))
            started = time.monotonic()
            assert client.commit(h) == (True, None)
            durations.append(time.monotonic() - started)
        client.driver.close()
        assert max(durations) < 0.5, (len(durations), max(durations))
    finally:
        for r in runtimes:
            r.stop()
        for s in held:
            s.close()


def test_concurrent_handshakes_each_get_their_own_answer(cluster):
    """Every CLIENT_HELLO has sender 0 and message id 0, so only the
    connection it came in on tells whose answer is whose."""
    cfg, _ = cluster
    n = 16
    barrier = threading.Barrier(n)
    results = [None] * n

    def shake(i):
        driver = SocketDriver(cfg, timeout=1.0)
        barrier.wait()
        started = time.monotonic()
        try:
            results[i] = (driver.handshake(), time.monotonic() - started)
        finally:
            driver.close()

    threads = [threading.Thread(target=shake, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert None not in results
    assert len({cid for cid, _ in results}) == n
    assert max(took for _, took in results) < 0.5, sorted(took for _, took in results)


class RawServer:
    """A listener standing in for member 0.  It accepts one connection, reads
    its frames, and answers the first copy of message id m with the
    (message id, body) answers of `script[m]`, if any, each body after an
    empty updates block."""

    def __init__(self, script=None):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.script = script or {}
        self.frames = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def config(self, tmp_path):
        port = self.listener.getsockname()[1]
        return ClusterConfig.parse(f"member = 0 127.0.0.1:{port}\ndata_dir = {tmp_path}")

    def _serve(self):
        conn, _ = self.listener.accept()
        buf = b""
        with conn:
            while data := conn.recv(1 << 16):
                buf += data
                while len(buf) >= 4 and len(buf) >= 4 + int.from_bytes(buf[:4], "little"):
                    n = 4 + int.from_bytes(buf[:4], "little")
                    env, buf = rpc.frame_decode(buf[:n]), buf[n:]
                    first = all(e.message_id != env.message_id for e in self.frames)
                    self.frames.append(env)
                    for mid, payload in self.script.get(env.message_id, ()) if first else ():
                        payload = rpc.enc_response((), payload)  # an empty updates block first
                        resp = Envelope(MsgType.RESPONSE, rpc.SERVER, 0, mid, None, payload)
                        conn.sendall(rpc.frame_encode(resp))

    def close(self):
        self.thread.join(timeout=10.0)
        self.listener.close()


def request_env(message_id):
    return Envelope(MsgType.READ, rpc.CLIENT, 7, message_id, None, rpc.enc_read_req([b"k"]))


def test_a_server_that_never_answers_gets_every_try_a_timeout_apart(tmp_path):
    raw = RawServer()
    driver = SocketDriver(raw.config(tmp_path))
    # each send is due from the clock reading just before it
    clock, sent = [], []
    now, send = driver.now, driver.send
    driver.now = lambda: clock.append(now()) or clock[-1]
    driver.send = lambda dest, env: (sent.append(clock[-1]), send(dest, env))
    assert driver.request(0, request_env(1)) is None
    driver.close()
    raw.close()
    assert len(sent) == len(raw.frames) == RPC_TRIES
    assert {env.message_id for env in raw.frames} == {1}
    assert min(b - a for a, b in zip(sent, sent[1:])) >= RPC_TIMEOUT


def test_a_late_answer_is_dropped_and_each_request_gets_its_own(tmp_path):
    """Message 1 is given up, and its answer comes just before message 2's;
    message 3 is answered, and a second answer to it comes just before
    message 4's."""
    raw = RawServer({
        2: [(1, b"late"), (2, b"two")],
        3: [(3, b"three")],
        4: [(3, b"again"), (4, b"four")],
    })
    driver = SocketDriver(raw.config(tmp_path), timeout=0.2, tries=2)
    answers = [driver.request(0, request_env(mid)) for mid in (1, 2, 3, 4)]
    driver.close()
    raw.close()
    assert answers == [None, b"two", b"three", b"four"]


def test_both_runtimes_default_to_one_resend_policy(tmp_path):
    driver = SocketDriver(make_cluster(tmp_path, free_ports(3)))
    client = Simulator([0], seed=1).new_client()
    assert (driver.timeout, driver.tries) == (client.timeout, client.tries) == (RPC_TIMEOUT, RPC_TRIES)
    driver.close()
