"""Real-socket runtime: framed TCP transport around the same ServerNode.

Every server accepts connections from clients and peers and opens outbound
connections to peers on demand.  A reply to a client goes back on the
connection the client's latest frame came in on; a reply to a server goes
through the outbound channel, as in the simulator.

A server runs one thread, `dtx-protocol`: recovery, then a `selectors`
loop that owns every socket and the timer heap.  A turn runs every due
timer, then every frame read in the turn (in arrival order per
connection), then one write attempt per connection with pending output.
Each timer and frame goes through ServerRuntime._handle_event.  Output is
buffered up to OUT_LIMIT bytes per connection; a message that does not fit
is dropped and counted in `backpressured`, since the protocol resends.  A
failed connect or write closes the connection; the next send reconnects.
ClusterConfig.protocol_core pins the thread to one core.
"""

from __future__ import annotations

import errno
import heapq
import itertools
import logging
import os
import selectors
import socket
import struct
import threading
import time
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
_LEN = struct.Struct("<I")
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE

# Pending output per connection, in bytes: room for the largest frame
# behind another.  A message that would pass it is dropped.
OUT_LIMIT = 2 * rpc.MAX_FRAME


def _parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    return host, int(port)


def recv_frame(sock: socket.socket) -> Envelope | None:
    """One framed envelope from a blocking socket, or None on clean EOF."""
    header = _read_exact(sock, 4)
    if header is None:
        return None
    (n,) = _LEN.unpack(header)
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
    """A received message or a timer callback (a timer's item is its cancel
    handle); `enqueued_at` is when the frame was read or the timer fell due."""

    __slots__ = ("fn", "enqueued_at", "cancelled")

    def __init__(self, fn, enqueued_at: float) -> None:
        self.fn = fn
        self.enqueued_at = enqueued_at
        self.cancelled = False


class _Conn:
    """A socket the loop owns, with its unparsed input and unsent output."""

    __slots__ = ("sock", "peer", "inbuf", "out", "writing")

    def __init__(self, sock: socket.socket, peer: int | None) -> None:
        self.sock = sock
        self.peer = peer  # the member an outbound connection goes to
        self.inbuf = bytearray()
        self.out = bytearray()
        self.writing = False  # registered for EVENT_WRITE


class ServerRuntime:
    """One server process: one thread whose selectors loop runs a ServerNode."""

    def __init__(self, cluster: ClusterConfig, sid: int, data_dir: str | None = None) -> None:
        self.cluster = cluster
        self.sid = sid
        self.addr = _parse_addr(cluster.address_of(sid))
        root = data_dir or f"{cluster.data_dir}/server-{sid}"
        self.env = DiskEnv(root, backend=_BACKENDS[cluster.backend])
        self.store = FileKvStore(root)
        self._sel = selectors.DefaultSelector()
        self._timers: list = []  # heap of (due, seq, item)
        self._seq = itertools.count()
        self._peers: dict[int, _Conn] = {}  # member id -> outbound connection
        self._clients: dict[int, _Conn] = {}  # client id -> connection of its latest frame
        self._pending: set[_Conn] = set()  # connections with output to write
        self._listener: socket.socket | None = None
        # stop() wakes the loop through this pair; start() reads the boot byte.
        self._loop_end, self._caller_end = socket.socketpair()
        self._stopping = False
        self._boot_error: BaseException | None = None
        self.backpressured = 0  # messages dropped at a full output buffer
        # Read by perfbench/server_main.py: the backpressure count, per stage.
        self.stages = SimpleNamespace(stages={"protocol": self})
        self.thread = threading.Thread(target=self._run, daemon=True, name="dtx-protocol")

        config = ServerConfig(members=list(cluster.member_ids), gc_period=cluster.gc_period)
        self.node = ServerNode(sid, config, self.env, self.store, self)

    # -- ctx interface used by ServerNode ------------------------------------

    def now(self) -> float:
        return time.monotonic()

    def set_timer(self, delay: float, fn) -> _Item:
        item = _Item(fn, time.monotonic() + delay)
        heapq.heappush(self._timers, (item.enqueued_at, next(self._seq), item))
        return item

    def cancel_timer(self, handle: _Item) -> None:
        handle.cancelled = True

    def send(self, dest: int, env: Envelope) -> None:
        conn = self._peers.get(dest)
        if conn is None:
            # Connect without blocking; until it completes, a write raises BlockingIOError.
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            err = sock.connect_ex(_parse_addr(self.cluster.address_of(dest)))
            if err not in (0, errno.EINPROGRESS):
                sock.close()
                return
            conn = self._peers[dest] = self._register(sock, dest)
        self._queue(conn, rpc.frame_encode(env))

    def reply(self, request: Envelope, resp: Envelope) -> None:
        conn = self._clients.get(request.sender_id)
        if conn is not None:  # else the client's retry is answered from the dedup window
            self._queue(conn, rpc.frame_encode(resp))

    def _handle_event(self, item: _Item) -> None:
        """The loop's one entry point into the node, for messages and timers."""
        try:
            item.fn()
        except Exception:
            log.exception("protocol handler failed")

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Run recovery on the loop thread; return once the port is bound."""
        self.thread.start()
        self._caller_end.recv(1)  # the boot byte, or EOF when boot failed
        if self._boot_error is not None:
            self.thread.join()
            raise self._boot_error
        log.info("server %d serving on %s:%d", self.sid, *self.addr)

    def stop(self) -> None:
        """Handle the frames already read, close every socket, shut down."""
        if self.thread.is_alive():
            self._stopping = True
            self._caller_end.send(b"\0")
            self.thread.join()
        self._caller_end.close()
        self.node.shutdown()

    def serve_forever(self) -> None:
        self.start()
        try:
            self.thread.join()
        except KeyboardInterrupt:
            pass
        self.stop()

    # -- the loop --------------------------------------------------------------------

    def _run(self) -> None:
        try:
            if self.cluster.protocol_core is not None:
                os.sched_setaffinity(0, {self.cluster.protocol_core})
            self._sel.register(self._loop_end, _READ)
            self.node.start()  # recovery arms the first timers
            self._listener = socket.create_server(self.addr, backlog=64)  # sets SO_REUSEADDR
            self._sel.register(self._listener, _READ)
            self._listener.setblocking(False)
        except BaseException as exc:  # start() re-raises it on the caller's thread
            self._boot_error = exc
        else:
            self._loop_end.send(b"\1")
            while not self._stopping:
                self._turn()
        for key in list(self._sel.get_map().values()):
            key.fileobj.close()  # the listener's close frees the port
        self._sel.close()
        self._loop_end.close()  # if boot failed, the EOF tells start()

    def _turn(self) -> None:
        timers = self._timers
        events = self._sel.select(max(0.0, timers[0][0] - time.monotonic()) if timers else None)
        now = time.monotonic()
        while timers and timers[0][0] <= now:
            item = heapq.heappop(timers)[2]
            if not item.cancelled:
                self._handle_event(item)
        for key, mask in events:
            if key.fileobj is self._listener:
                self._accept()
            elif key.fileobj is self._loop_end:
                self._loop_end.recv(64)  # stop() woke the loop
            elif mask & _READ:
                self._read(key.data)
        # A group commit's WAL seal goes here, before any answer is written.
        self._flush()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # BlockingIOError once the backlog is empty
                return
            self._register(sock, None)

    def _register(self, sock: socket.socket, peer: int | None) -> _Conn:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock, peer)
        self._sel.register(sock, _READ, conn)
        return conn

    def _close(self, conn: _Conn) -> None:
        self._sel.unregister(conn.sock)
        conn.sock.close()
        self._pending.discard(conn)
        if self._peers.get(conn.peer) is conn:
            del self._peers[conn.peer]
        for cid in [cid for cid, c in self._clients.items() if c is conn]:
            del self._clients[cid]

    def _read(self, conn: _Conn) -> None:
        """Handle every whole frame the socket has; keep the partial rest."""
        try:
            data = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
            return
        now = time.monotonic()
        buf = conn.inbuf
        buf += data
        pos = 0
        try:
            while len(buf) - pos >= 4:
                n = _LEN.unpack_from(buf, pos)[0]
                if n > rpc.MAX_FRAME:
                    raise FrameError(f"frame length {n} exceeds limit")
                if pos + 4 + n > len(buf):
                    break
                env = rpc.frame_decode(bytes(buf[pos : pos + 4 + n]))
                pos += 4 + n
                # Recorded and handled in one step, so an answer given at
                # once goes back on this connection.
                if env.sender_kind == rpc.CLIENT:
                    self._clients[env.sender_id] = conn
                self._handle_event(_Item(lambda e=env: self.node.on_message(e), now))
        except FrameError as exc:
            log.debug("connection dropped: %s", exc)
            self._close(conn)
            return
        del buf[:pos]

    def _queue(self, conn: _Conn, data: bytes) -> None:
        if len(conn.out) + len(data) > OUT_LIMIT:
            self.backpressured += 1
            return
        conn.out += data
        self._pending.add(conn)

    def _flush(self) -> None:
        """One write attempt per connection with pending output.  A socket
        still connecting raises BlockingIOError; one that failed, OSError."""
        pending, self._pending = self._pending, set()
        for conn in pending:
            try:
                del conn.out[: conn.sock.send(conn.out)]
            except BlockingIOError:
                pass
            except OSError:
                self._close(conn)
                continue
            if conn.out:
                self._pending.add(conn)
            if conn.writing != bool(conn.out):
                conn.writing = not conn.writing
                self._sel.modify(conn.sock, _READ | _WRITE if conn.writing else _READ, conn)


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
