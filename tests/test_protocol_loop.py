"""Server event loop: frames and timers on one thread, FIFO per connection,
bounded output, stop, core pin; strict cluster config."""

import os
import socket
import sys
import threading
import time

import pytest

from dtx import nettransport, rpc
from dtx.nettransport import ServerRuntime, connect_client
from dtx.rpc import Envelope, MsgType
from dtx.server import ServerNode, owner_of
from dtx.workload import ClusterConfig, ConfigError


def wait_for(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.001)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def one_server(tmp_path, *lines):
    cfg = ClusterConfig.parse(
        "\n".join([f"member = 0 127.0.0.1:{free_port()}", f"data_dir = {tmp_path}", *lines])
    )
    return ServerRuntime(cfg, 0)


def frame(sender, message_id):
    return rpc.frame_encode(Envelope(MsgType.READ, rpc.CLIENT, sender, message_id, None, b"k"))


def run_concurrent_senders(tmp_path, monkeypatch, senders=4, per_sender=500):
    """Send (sender, i) frames on one connection per sender thread, each frame
    cut in two writes at a different place; return them in handled order."""
    seen = []  # (sender id, message id) of each frame, which the node does not handle
    monkeypatch.setattr(
        ServerNode, "on_message", lambda self, env: seen.append((env.sender_id, env.message_id))
    )
    runtime = one_server(tmp_path)
    runtime.start()

    def send(p):
        with socket.create_connection(runtime.addr) as sock:
            for i in range(per_sender):
                data = frame(p, i)
                cut = i % len(data)
                sock.sendall(data[:cut])
                sock.sendall(data[cut:])

    threads = [threading.Thread(target=send, args=(p,)) for p in range(senders)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the senders as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        wait_for(lambda: len(seen) >= senders * per_sender)
    finally:
        sys.setswitchinterval(interval)
        runtime.stop()
    assert not any(t.is_alive() for t in threads)
    assert not runtime.thread.is_alive()
    return seen


def test_every_submitted_item_processed_exactly_once(tmp_path, monkeypatch):
    seen = run_concurrent_senders(tmp_path, monkeypatch)
    assert sorted(seen) == [(p, i) for p in range(4) for i in range(500)]


def test_fifo_per_producer(tmp_path, monkeypatch):
    seen = run_concurrent_senders(tmp_path, monkeypatch)
    for p in range(4):
        assert [i for q, i in seen if q == p] == list(range(500))


def test_timers_fire_on_loop_thread_in_deadline_order(tmp_path, monkeypatch):
    fired = []

    def arm(self, env):
        for name, delay in (("c", 0.06), ("a", 0.02), ("b", 0.04)):
            self.ctx.set_timer(delay, lambda n=name: fired.append((n, threading.get_ident())))
        self.ctx.cancel_timer(self.ctx.set_timer(0.03, lambda: fired.append(("cancelled", None))))

    monkeypatch.setattr(ServerNode, "on_message", arm)
    runtime = one_server(tmp_path)
    runtime.start()
    try:
        with socket.create_connection(runtime.addr) as sock:
            sock.sendall(frame(1, 1))
            wait_for(lambda: len(fired) == 3)
            time.sleep(0.05)  # the cancelled timer's deadline is long past
    finally:
        runtime.stop()
    assert [n for n, _ in fired] == ["a", "b", "c"]
    assert {ident for _, ident in fired} == {runtime.thread.ident}


def test_timer_item_carries_its_due_time(tmp_path, monkeypatch):
    armed, stamps = [], []

    def marker():
        pass

    def arm(self, env):
        armed.append(time.monotonic())
        self.ctx.set_timer(0.02, marker)

    orig_handle = ServerRuntime._handle_event

    def handle(self, item):
        if item.fn is marker:
            stamps.append((item.enqueued_at, time.monotonic()))
        return orig_handle(self, item)

    monkeypatch.setattr(ServerNode, "on_message", arm)
    monkeypatch.setattr(ServerRuntime, "_handle_event", handle)
    runtime = one_server(tmp_path)
    runtime.start()
    try:
        with socket.create_connection(runtime.addr) as sock:
            sock.sendall(frame(1, 1))
            wait_for(lambda: stamps)
    finally:
        runtime.stop()
    due, ran = stamps[0]
    assert armed[0] + 0.02 <= due <= ran


def test_stop_handles_what_was_read_and_ends_the_thread(tmp_path, monkeypatch):
    """Frames 1 and 2 arrive in one write, so one turn reads both; stop()
    comes while frame 1 is being handled, and frame 2 is still handled."""
    entered, release = threading.Event(), threading.Event()
    handled = []

    def on_message(self, env):
        handled.append(env.message_id)
        if env.message_id == 1:
            entered.set()
            release.wait(timeout=10.0)

    monkeypatch.setattr(ServerNode, "on_message", on_message)
    runtime = one_server(tmp_path)
    runtime.start()
    stopper = threading.Thread(target=runtime.stop)
    with socket.create_connection(runtime.addr) as sock:
        sock.sendall(frame(1, 1) + frame(1, 2))
        assert entered.wait(timeout=10.0)
        stopper.start()
        wait_for(lambda: runtime._stopping)
        release.set()
        stopper.join(timeout=10.0)
    assert not stopper.is_alive() and not runtime.thread.is_alive()
    assert handled == [1, 2]


def test_a_peer_that_never_reads_fills_the_output_bound_and_later_sends_drop(tmp_path, monkeypatch):
    """Member 1 accepts but never reads.  Each READ from the client makes
    member 0 send member 1 32 frames of 64 KiB: its output buffer stops at
    the bound, the rest is dropped and counted, and clients are served."""
    limit = 1 << 20
    monkeypatch.setattr(nettransport, "OUT_LIMIT", limit)
    sink = socket.socket()
    sink.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # inherited by the accepted socket
    sink.bind(("127.0.0.1", 0))
    sink.listen(1)
    runtime = one_server(tmp_path, f"member = 1 127.0.0.1:{sink.getsockname()[1]}")
    big = Envelope(MsgType.GC_LC, rpc.SERVER, 0, 0, None, bytes(64 * 1024))
    size = len(rpc.frame_encode(big))
    pending = []
    orig_on_message = ServerNode.on_message

    def on_message(self, env):
        if env.msg_type == MsgType.READ:
            for _ in range(32):
                self.ctx.send(1, big)
            pending.append(len(self.ctx._peers[1].out))
        return orig_on_message(self, env)

    monkeypatch.setattr(ServerNode, "on_message", on_message)
    runtime.start()
    accepted = []
    try:
        cfg = runtime.cluster
        members = list(cfg.member_ids)
        mine = [k for k in (b"own-%d" % i for i in range(256)) if owner_of(k, members) == 0]
        reader = connect_client(cfg, seed=1)
        for k in mine[:12]:  # 12 floods of 2 MiB: more than the bound and the kernel's buffers
            h = reader.open_txn()
            assert reader.read(h, k) is None
            if not accepted:
                sink.settimeout(5.0)
                accepted.append(sink.accept()[0])
        reader.driver.close()
        writer = connect_client(cfg, seed=2)
        h = writer.open_txn()
        writer.write(h, mine[0], b"v")
        assert writer.commit(h) == (True, None)
        writer.driver.close()
    finally:
        runtime.stop()
        for s in (sink, *accepted):
            s.close()
    assert max(pending) <= limit
    assert pending[-1] > limit - size  # full: the socket took nothing more
    assert runtime.stages.stages["protocol"].backpressured >= 12 * 32 - (limit + (16 << 20)) // size


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or 0 not in os.sched_getaffinity(0),
    reason="needs CPU affinity support and core 0",
)
def test_protocol_core_pins_the_loop_thread(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(ServerNode, "on_message", lambda self, env: seen.append(os.sched_getaffinity(0)))
    runtime = one_server(tmp_path, "protocol_core = 0")
    assert runtime.cluster.protocol_core == 0
    runtime.start()
    try:
        with socket.create_connection(runtime.addr) as sock:
            sock.sendall(frame(1, 1))
            wait_for(lambda: seen)
    finally:
        runtime.stop()
    assert seen == [{0}]


@pytest.mark.parametrize(
    "line",
    [
        "bakend = file-sync",  # misspelt key: must not silently run mapped-flush
        "stage = protocol cores=99",  # the removed per-stage syntax
        f"protocol_core = {max(99, os.cpu_count() or 1)}",
        "protocol_core = -1",
        "protocol_core = one",
        "gc_period = fast",
        "member = x 127.0.0.1:7001",
        "member = 1 127.0.0.1:port",
        "member = 1 127.0.0.1:0",
        "member = 1 127.0.0.1:65536",
        "member = 1 :7001",
        "member = 1 127.0.0.1",
    ],
    ids=["misspelt-key", "stage-line", "core-out-of-range", "negative-core", "core-not-int",
         "period-not-float", "id-not-int", "port-not-int", "port-zero", "port-too-large",
         "empty-host", "no-port"],
)
def test_cluster_config_rejects_unknown_keys_and_bad_cores(line):
    with pytest.raises(ConfigError):
        ClusterConfig.parse(f"member = 0 127.0.0.1:1\n{line}")
