"""Real-socket runtime: framed TCP transport around the same ServerNode.

EventLoop is the socket plumbing of both ends: a `selectors` loop that
owns its sockets and a timer heap.  A turn makes one write attempt per
connection with pending output, waits for a socket or the next due timer,
then runs every due timer and every frame read (in arrival order per
connection).  A member is connected without blocking, and output is
buffered up to OUT_LIMIT bytes per connection; a message that does not fit
is dropped and counted in `backpressured`, since the protocol resends.  A
failed connect or write closes the connection; the next send reconnects.

A server, ServerRuntime, turns its loop on one thread, `dtx-protocol`,
after recovery.  A reply to a client goes back on the connection the
client's latest frame came in on; a message to a server goes through the
outbound connection, as in the simulator.  Each timer and frame goes
through ServerRuntime._handle_event.  ClusterConfig.protocol_core pins
the thread to one core.

A client, SocketDriver, is the simulator's request core (client.RequestCore)
on a private loop, which the caller's thread turns while a call runs
(BlockingClient._run).  Each client connects to each member itself.
"""

from __future__ import annotations

import contextlib
import errno
import heapq
import itertools
import logging
import os
import random
import selectors
import socket
import struct
import threading
import time
from types import SimpleNamespace

from . import rpc
from .client import RPC_TIMEOUT, RPC_TRIES, BlockingClient, ClientState, RequestCore
from .env import DiskEnv
from .model import MalformedRecordError
from .rpc import Envelope, FrameError, MsgType
from .server import ServerConfig, ServerNode
from .storage import FileKvStore
from .workload import ClusterConfig, parse_addr

log = logging.getLogger(__name__)

_BACKENDS = {"mapped-flush": "mapped", "file-sync": "file"}
_LEN = struct.Struct("<I")
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE

# Pending output per connection, in bytes: room for the largest frame
# behind another.  A message that would pass it is dropped.
OUT_LIMIT = 2 * rpc.MAX_FRAME


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


class EventLoop:
    """Sockets and timers of one thread (see the module docstring).  A
    subclass handles frames in _on_frame; a socket registered with a
    callable as its data, such as a listener, calls it when readable."""

    def __init__(self, cluster: ClusterConfig) -> None:
        self.cluster = cluster
        self._sel = selectors.DefaultSelector()
        self._timers: list = []  # heap of (due, seq, item)
        self._seq = itertools.count()
        self._peers: dict[int, _Conn] = {}  # member id -> outbound connection
        self._pending: set[_Conn] = set()  # connections with output to write
        self.backpressured = 0  # messages dropped at a full output buffer

    def call_at(self, at: float, fn) -> _Item:
        item = _Item(fn, at)
        heapq.heappush(self._timers, (at, next(self._seq), item))
        return item

    def send(self, dest: int, env: Envelope) -> None:
        conn = self._peers.get(dest)
        if conn is None:
            # Connect without blocking; until it completes, a write raises BlockingIOError.
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            err = sock.connect_ex(parse_addr(self.cluster.address_of(dest)))
            if err not in (0, errno.EINPROGRESS):
                sock.close()
                return
            conn = self._peers[dest] = self._register(sock, dest)
        self._queue(conn, rpc.frame_encode(env))

    def _handle_event(self, item: _Item) -> None:
        item.fn()

    def turn(self) -> None:
        """Write pending output, wait, then run due timers and read frames."""
        # A group commit's WAL seal goes here, before any answer is written.
        self._flush()
        timers = self._timers
        events = self._sel.select(max(0.0, timers[0][0] - time.monotonic()) if timers else None)
        now = time.monotonic()
        while timers and timers[0][0] <= now:
            item = heapq.heappop(timers)[2]
            if not item.cancelled:
                self._handle_event(item)
        for key, mask in events:
            if type(key.data) is not _Conn:
                key.data()
            elif mask & _READ:
                self._read(key.data)

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
                self._on_frame(conn, env, now)
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


class ServerRuntime(EventLoop):
    """One server process: one thread whose event loop runs a ServerNode."""

    def __init__(self, cluster: ClusterConfig, sid: int, data_dir: str | None = None) -> None:
        super().__init__(cluster)
        self.sid = sid
        self.addr = parse_addr(cluster.address_of(sid))
        root = data_dir or f"{cluster.data_dir}/server-{sid}"
        self.env = DiskEnv(root, backend=_BACKENDS[cluster.backend])
        self.store = FileKvStore(root)
        self._clients: dict[int, _Conn] = {}  # client id -> connection of its latest frame
        self._listener: socket.socket | None = None
        # stop() wakes the loop through this pair; start() reads the boot byte.
        self._loop_end, self._caller_end = socket.socketpair()
        self._stopping = False
        self._boot_error: BaseException | None = None
        # Read by perfbench/server_main.py: the backpressure count, per stage.
        self.stages = SimpleNamespace(stages={"protocol": self})
        self.thread = threading.Thread(target=self._run, daemon=True, name="dtx-protocol")

        config = ServerConfig(members=list(cluster.member_ids), gc_period=cluster.gc_period)
        self.node = ServerNode(sid, config, self.env, self.store, self)

    # -- ctx interface used by ServerNode ------------------------------------

    def now(self) -> float:
        return time.monotonic()

    def set_timer(self, delay: float, fn) -> _Item:
        return self.call_at(time.monotonic() + delay, fn)

    def cancel_timer(self, handle: _Item) -> None:
        handle.cancelled = True

    send = EventLoop.send  # an own entry, so perfbench/layers.py can wrap it by name

    def reply(self, client_id: int, resp: Envelope) -> None:
        conn = self._clients.get(client_id)
        if conn is not None:  # else the client's retry is answered from the dedup window
            self._queue(conn, rpc.frame_encode(resp))

    def _handle_event(self, item: _Item) -> None:
        """The loop's one entry point into the node, for messages and timers."""
        try:
            item.fn()
        except Exception:
            log.exception("protocol handler failed")

    def _on_frame(self, conn: _Conn, env: Envelope, now: float) -> None:
        # Recorded and handled in one step, so an answer given at once goes
        # back on this connection.
        if env.sender_kind == rpc.CLIENT:
            self._clients[env.sender_id] = conn
        self._handle_event(_Item(lambda: self.node.on_message(env), now))

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
            with contextlib.suppress(OSError):  # the loop saw _stopping and closed its end
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
            self._sel.register(self._loop_end, _READ, self._wake)
            self.node.start()  # recovery arms the first timers
            self._listener = socket.create_server(self.addr, backlog=64)  # sets SO_REUSEADDR
            self._sel.register(self._listener, _READ, self._accept)
            self._listener.setblocking(False)
        except BaseException as exc:  # start() re-raises it on the caller's thread
            self._boot_error = exc
        else:
            self._loop_end.send(b"\1")
            while not self._stopping:
                self.turn()
            self._flush()  # the answers to the last turn's frames
        for key in list(self._sel.get_map().values()):
            key.fileobj.close()  # the listener's close frees the port
        self._sel.close()
        self._loop_end.close()  # if boot failed, the EOF tells start()

    def _wake(self) -> None:
        self._loop_end.recv(64)  # stop() woke the loop

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # BlockingIOError once the backlog is empty
                return
            self._register(sock, None)

    def _close(self, conn: _Conn) -> None:
        super()._close(conn)
        for cid in [cid for cid, c in self._clients.items() if c is conn]:
            del self._clients[cid]


class SocketDriver(RequestCore, EventLoop):
    """One socket client's transport: the request core on a private event
    loop, turned by the caller's thread."""

    def __init__(self, cluster: ClusterConfig, timeout: float = RPC_TIMEOUT, tries: int = RPC_TRIES) -> None:
        EventLoop.__init__(self, cluster)
        RequestCore.__init__(self, time.monotonic, self.send, self.call_at, timeout, tries)

    def _on_frame(self, conn: _Conn, env: Envelope, now: float) -> None:
        self.on_reply(env)

    def request(self, dest: int, env: Envelope) -> bytes | None:
        """Send the request, then turn the loop until it is answered or
        given up; the answer, or None if the server stayed silent."""
        done: list = []
        self._request(dest, env, done.append, self.tries)
        while not done:
            self.turn()
        return done[0]

    def handshake(self) -> int:
        """Ask each member in turn for a client id; any one may assign it,
        and an answer that does not decode counts as none."""
        env = Envelope(MsgType.CLIENT_HELLO, rpc.CLIENT, 0, 0, None, b"")
        for sid in self.cluster.member_ids:
            payload = self.request(sid, env)
            if payload is not None:
                with contextlib.suppress(MalformedRecordError):
                    return rpc.dec_u64(payload)
        raise ConnectionError("no server answered the client handshake")

    def _drop(self, sid: int) -> None:
        conn = self._peers.get(sid)
        if conn is not None:
            self._close(conn)

    def close(self) -> None:
        for sid in list(self._peers):
            self._drop(sid)
        self._sel.close()


def connect_client(
    cluster: ClusterConfig,
    cache_capacity: int = 256,
    seed: int | None = None,
    timeout: float = RPC_TIMEOUT,
) -> BlockingClient:
    driver = SocketDriver(cluster, timeout=timeout)
    cid = driver.handshake()
    state = ClientState(cid, list(cluster.member_ids), random.Random(seed), cache_capacity=cache_capacity)
    driver.cache = state.cache
    return BlockingClient(driver, state)
