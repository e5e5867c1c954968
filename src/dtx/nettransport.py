"""Real-socket runtime: framed TCP transport around the same ServerNode.

Topology: every server accepts inbound connections (from clients and from
peers) and opens write-only outbound connections to peers on demand.
Replies to clients go back on the inbound connection the request arrived
on; replies to servers travel through the normal outbound channel, exactly
as in the simulator, so the protocol code cannot tell the difference.

Threading: the node's state machines assume one writer, so everything
they do runs on one protocol thread (ProtocolLoop): recovery at start-up,
every received message and every timer callback, each passed through
ServerRuntime._handle_event.  The thread owns a bounded FIFO queue and a
timer heap; it runs due timers, then waits on the queue until the next
deadline.  Reader threads parse frames and submit them to the queue; a
full queue blocks the reader, and nothing is dropped.  The thread can be
pinned to one core (ClusterConfig.protocol_core).
"""

from __future__ import annotations

import heapq
import itertools
import logging
import os
import socket
import struct
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from types import SimpleNamespace

from . import rpc
from .client import BlockingClient, ClientState
from .env import DiskEnv
from .rpc import Envelope, FrameError, MsgType
from .server import ServerConfig, ServerNode
from .storage import FileKvStore
from .workload import ClusterConfig

log = logging.getLogger(__name__)

_BACKENDS = {"mapped-flush": "mapped", "file-sync": "file"}


def _parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    return host, int(port)


def send_frame(sock: socket.socket, lock: threading.Lock, env: Envelope) -> None:
    data = rpc.frame_encode(env)
    with lock:
        sock.sendall(data)


def recv_frame(sock: socket.socket) -> Envelope | None:
    """One framed envelope, or None on clean EOF."""
    header = _read_exact(sock, 4)
    if header is None:
        return None
    (n,) = struct.unpack("<I", header)
    if n > rpc.MAX_FRAME:
        raise FrameError(f"frame length {n} exceeds limit")
    body = _read_exact(sock, n)
    if body is None:
        raise FrameError("connection closed mid-frame")
    return rpc.frame_decode(header + body)


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


class _Item:
    """One unit of protocol work: a received message or a timer callback.

    A timer's item is also its cancel handle.  `enqueued_at` is the
    monotonic time the item was queued or, for a timer, fell due.
    """

    __slots__ = ("fn", "enqueued_at", "cancelled")

    def __init__(self, fn, enqueued_at: float = 0.0) -> None:
        self.fn = fn
        self.enqueued_at = enqueued_at
        self.cancelled = False


_STOP = _Item(None)


class ProtocolLoop:
    """One thread that runs queued items and due timers through `handler`.

    Queued items run in FIFO order; a timer that has fallen due runs before
    the next queued item.  A full queue blocks the producer (counted in
    `backpressured`).  stop() runs what is already queued, then ends the
    thread; items submitted after stop() are dropped.
    """

    CAPACITY = 1024

    def __init__(self, handler, core: int | None = None) -> None:
        self._handler = handler
        self._core = core
        self._queue: deque[_Item] = deque()
        self._timers: list = []  # heap of (due, seq, item)
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.backpressured = 0
        self.thread = threading.Thread(target=self._run, daemon=True, name="dtx-protocol")

    def start(self) -> None:
        self.thread.start()
        if self._core is not None:
            os.sched_setaffinity(self.thread.native_id, {self._core})

    def submit(self, fn) -> None:
        item = _Item(fn)
        with self._lock:
            if len(self._queue) >= self.CAPACITY and not self._closed:
                self.backpressured += 1
                while len(self._queue) >= self.CAPACITY and not self._closed:
                    self._not_full.wait()
            if self._closed:
                return
            item.enqueued_at = time.monotonic()
            self._queue.append(item)
            self._not_empty.notify()

    def set_timer(self, delay: float, fn) -> _Item:
        item = _Item(fn, time.monotonic() + delay)
        with self._lock:
            heapq.heappush(self._timers, (item.enqueued_at, next(self._seq), item))
            self._not_empty.notify()
        return item

    @staticmethod
    def cancel_timer(item: _Item) -> None:
        item.cancelled = True

    def stop(self) -> None:
        with self._lock:
            self._closed = True
            self._queue.append(_STOP)
            self._not_empty.notify()
            self._not_full.notify_all()
        if self.thread.is_alive():
            self.thread.join(timeout=5.0)

    def _run(self) -> None:
        while True:
            with self._lock:
                item = self._next()
            if item is _STOP:
                return
            self._handler(item)

    def _next(self) -> _Item:
        """The next due timer, else the next queued item; waits for one."""
        while True:
            now = time.monotonic()
            if self._timers and self._timers[0][0] <= now:
                item = heapq.heappop(self._timers)[2]
                if not item.cancelled:
                    return item
            elif self._queue:
                self._not_full.notify()
                return self._queue.popleft()
            else:
                self._not_empty.wait(self._timers[0][0] - now if self._timers else None)


class ServerRuntime:
    """One server process: sockets and a protocol loop around a ServerNode."""

    def __init__(self, cluster: ClusterConfig, sid: int, data_dir: str | None = None) -> None:
        self.cluster = cluster
        self.sid = sid
        self.addr = _parse_addr(cluster.address_of(sid))
        root = data_dir or f"{cluster.data_dir}/server-{sid}"
        self.env = DiskEnv(root, backend=_BACKENDS[cluster.backend])
        self.store = FileKvStore(root)
        self._outbound: dict[int, tuple[socket.socket, threading.Lock]] = {}
        self._reply_conns: OrderedDict = OrderedDict()  # (sender_id, msg_id) -> conn
        self._lock = threading.Lock()
        self._stopping = False

        # _handle_event is looked up per item, so a wrapper put on the class
        # after construction (perfbench's tracer) still sees every item.
        self.loop = ProtocolLoop(lambda item: self._handle_event(item), cluster.protocol_core)
        # Read by perfbench/server_main.py: the backpressure count, per stage.
        self.stages = SimpleNamespace(stages={"protocol": self.loop})

        config = ServerConfig(
            members=list(cluster.member_ids),
            wal_file_capacity=cluster.wal_file_capacity,
            lock_wait=cluster.lock_wait,
            gc_period=cluster.gc_period,
        )
        self.node = ServerNode(sid, config, self.env, self.store, self)
        self._listener: socket.socket | None = None

    # -- ctx interface used by ServerNode ------------------------------------

    def now(self) -> float:
        return time.monotonic()

    def set_timer(self, delay: float, fn) -> _Item:
        return self.loop.set_timer(delay, fn)

    def cancel_timer(self, handle: _Item) -> None:
        self.loop.cancel_timer(handle)

    def send(self, dest: int, env: Envelope) -> None:
        try:
            sock, lock = self._peer_conn(dest)
            send_frame(sock, lock, env)
        except OSError:
            with self._lock:
                self._outbound.pop(dest, None)  # reconnect on next send

    def reply(self, request: Envelope, resp: Envelope) -> None:
        if request.sender_kind == rpc.SERVER:
            self.send(request.sender_id, resp)
            return
        with self._lock:
            conn = self._reply_conns.pop((request.sender_id, request.message_id), None)
        if conn is None:
            return  # requester gone; its retry will re-register
        sock, lock = conn
        try:
            send_frame(sock, lock, resp)
        except OSError:
            pass

    # -- plumbing ---------------------------------------------------------------

    def _handle_event(self, item: _Item) -> None:
        """The protocol thread's one entry point, for messages and timers."""
        try:
            item.fn()
        except Exception:
            log.exception("protocol handler failed")

    def _peer_conn(self, dest: int):
        with self._lock:
            entry = self._outbound.get(dest)
        if entry is not None:
            return entry
        sock = socket.create_connection(_parse_addr(self.cluster.address_of(dest)), timeout=2.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        entry = (sock, threading.Lock())
        with self._lock:
            self._outbound[dest] = entry
        return entry

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        self.loop.start()
        # Recovery arms the first timers, so it runs on the protocol thread too.
        booted: Future = Future()

        def boot() -> None:
            try:
                self.node.start()
            except Exception as exc:
                booted.set_exception(exc)
            else:
                booted.set_result(None)

        self.loop.submit(boot)
        booted.result()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self.addr)
        listener.listen(64)
        self._listener = listener
        threading.Thread(target=self._accept_loop, daemon=True, name="dtx-accept").start()
        log.info("server %d serving on %s:%d", self.sid, *self.addr)

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._read_loop, args=(sock,), daemon=True, name="dtx-read"
            ).start()

    def _read_loop(self, sock: socket.socket) -> None:
        write_lock = threading.Lock()
        try:
            while True:
                env = recv_frame(sock)
                if env is None:
                    return
                if env.sender_kind == rpc.CLIENT:
                    with self._lock:
                        self._reply_conns[(env.sender_id, env.message_id)] = (sock, write_lock)
                        while len(self._reply_conns) > 4096:
                            self._reply_conns.popitem(last=False)
                self.loop.submit(lambda e=env: self.node.on_message(e))
        except (OSError, FrameError) as exc:
            log.debug("connection dropped: %s", exc)
        finally:
            sock.close()

    def stop(self) -> None:
        self._stopping = True
        if self._listener is not None:
            self._listener.close()
        self.loop.stop()
        self.node.shutdown()
        with self._lock:
            for sock, _ in self._outbound.values():
                sock.close()
            self._outbound.clear()

    def serve_forever(self) -> None:
        self.start()
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            self.stop()


class SocketDriver:
    """Blocking request/reply transport for one client (one thread)."""

    def __init__(self, cluster: ClusterConfig, timeout: float = 1.0, tries: int = 5) -> None:
        self.cluster = cluster
        self.timeout = timeout
        self.tries = tries
        self._conns: dict[int, socket.socket] = {}

    def _conn(self, sid: int) -> socket.socket:
        sock = self._conns.get(sid)
        if sock is not None:
            return sock
        sock = socket.create_connection(_parse_addr(self.cluster.address_of(sid)), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.timeout)
        self._conns[sid] = sock
        return sock

    def _drop(self, sid: int) -> None:
        sock = self._conns.pop(sid, None)
        if sock is not None:
            sock.close()

    def request(self, dest: int, env: Envelope) -> bytes | None:
        return self.request_many([(dest, env)])[0]

    def request_many(self, requests: list[tuple[int, Envelope]]) -> list[bytes | None]:
        """Write every request's frame before reading any answer, so the
        requests cost one round trip together.  At most one request per
        destination.  Returns the answers in request order, None for a
        destination that stayed silent through every try."""
        assert len({dest for dest, _ in requests}) == len(requests)
        answers: list[bytes | None] = [None] * len(requests)
        todo = list(range(len(requests)))
        for _ in range(self.tries):
            sent = []
            for i in todo:
                dest, env = requests[i]
                try:
                    self._conn(dest).sendall(rpc.frame_encode(env))
                    sent.append(i)
                except (OSError, FrameError):
                    self._drop(dest)
            for i in sent:
                dest, env = requests[i]
                try:
                    answers[i] = self._answer(self._conns[dest], env.message_id)
                except (OSError, FrameError):
                    self._drop(dest)
            todo = [i for i in todo if answers[i] is None]
            if not todo:
                break
            time.sleep(0.05)
        return answers

    @staticmethod
    def _answer(sock: socket.socket, message_id: int) -> bytes:
        while True:
            resp = recv_frame(sock)
            if resp is None:
                raise OSError("connection closed")
            if resp.message_id == message_id:
                return resp.payload
            # stale reply to an earlier timed-out request: skip it

    @staticmethod
    def sleep(seconds: float) -> None:
        time.sleep(seconds)

    def handshake(self) -> int:
        """Ask each member in turn for a client id; any one may assign it."""
        env = Envelope(MsgType.CLIENT_HELLO, rpc.CLIENT, 0, 0, None, b"")
        for sid in self.cluster.member_ids:
            payload = self.request(sid, env)
            if payload is not None:
                return int.from_bytes(payload[:8], "little")
        raise ConnectionError("no server answered the client handshake")

    def close(self) -> None:
        for sid in list(self._conns):
            self._drop(sid)


def connect_client(
    cluster: ClusterConfig,
    cache_capacity: int = 256,
    seed: int | None = None,
    timeout: float = 1.0,
) -> BlockingClient:
    import random

    driver = SocketDriver(cluster, timeout=timeout)
    client_id = driver.handshake()
    state = ClientState(
        client_id,
        list(cluster.member_ids),
        random.Random(seed),
        cache_capacity=cache_capacity,
    )
    return BlockingClient(driver, state)
