"""Deterministic discrete-event simulator for whole-cluster runs.

Everything runs single-threaded on a virtual clock: a heap of (time, seq,
callback) events.  Server nodes are the real ServerNode objects; only their
context (clock, timers, transport, durability) is simulated, so protocol
behaviour under test is exactly the production code path.

What the simulator models:

* network: per-message latency with jitter, plus injectable drop,
  duplication, extra delay, and partitions between endpoint groups;
* server capacity: each node has a busy-until horizon and a fixed service
  time per handled message, which is what makes throughput numbers
  meaningful on a virtual clock;
* crashes: a crashed node's object is discarded (volatile state gone), its
  memory-backed regions lose every byte that was never persisted, and a
  restart reruns real recovery over what survived;
* crash points: the node code calls ctx.crash_point(label) after durable
  appends and around sends/receives; a CrashPlan can enumerate those
  points or fire a crash at the n-th one, which is how the recovery sweep
  covers every interleaving.

Clients are generator scripts (see client.py) driven by continuations, with
timeout-and-resend request semantics so exactly-once machinery is exercised
for real.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass, field

from . import rpc
from .client import ClientState
from .env import MemEnv
from .model import ServerId, TranxID
from .rpc import Envelope
from .server import ServerConfig, ServerNode, owner_of
from .storage import MemKvStore

SERVICE_TIME = 50e-6  # virtual seconds a server spends on each message


class SimCrash(Exception):
    """Raised at an armed crash point; caught by the event loop."""

    def __init__(self, sid: ServerId, label: str) -> None:
        super().__init__(f"injected crash at server {sid}: {label}")
        self.sid = sid
        self.label = label


@dataclass
class NetConfig:
    latency: float = 0.0002
    jitter: float = 0.0001
    drop_p: float = 0.0
    dup_p: float = 0.0
    delay_p: float = 0.0
    extra_delay: float = 0.010


@dataclass
class CrashPlan:
    """Crash-point enumeration (index=None) or injection at the index-th hit.

    When sid is given only that server's points are counted, so an index is
    stable across runs that share a seed and workload prefix.
    """

    index: int | None = None
    sid: ServerId | None = None
    count: int = 0
    fired: bool = False
    collect: list | None = None


@dataclass
class _Timer:
    fire_at: float
    cancelled: bool = False


class _Ctx:
    """The side-effect context one ServerNode incarnation runs against."""

    def __init__(self, sim: "Simulator", sid: ServerId, incarnation: int) -> None:
        self.sim = sim
        self.sid = sid
        self.incarnation = incarnation
        self.trace = sim._trace if sim.keep_trace else None

    def now(self) -> float:
        return self.sim.now

    def set_timer(self, delay: float, fn) -> _Timer:
        t = _Timer(self.sim.now + delay)

        def run() -> None:
            if t.cancelled:
                return
            node = self.sim.nodes[self.sid]
            if not node.alive or node.incarnation != self.incarnation:
                return  # stale timer from a previous incarnation
            fn()

        self.sim._push(t.fire_at, run)
        return t

    def cancel_timer(self, t: _Timer) -> None:
        t.cancelled = True

    def send(self, dest: ServerId, env: Envelope) -> None:
        self.sim.net_send(("s", self.sid), ("s", dest), env)

    def reply(self, request: Envelope, resp: Envelope) -> None:
        kind = "c" if request.sender_kind == rpc.CLIENT else "s"
        self.sim.net_send(("s", self.sid), (kind, request.sender_id), resp)

    def crash_point(self, sid: ServerId, label: str) -> None:
        self.sim._crash_point(sid, label)


@dataclass
class SimNode:
    sid: ServerId
    env: MemEnv
    durable: dict = field(default_factory=dict)
    node: ServerNode | None = None
    incarnation: int = 0
    alive: bool = False
    busy_until: float = 0.0


class SimClient:
    """Transport driver for one client: request/timeout/resend + generators."""

    def __init__(
        self,
        sim: "Simulator",
        client_id: int,
        rng: random.Random,
        rpc_timeout: float = 0.050,
        rpc_tries: int = 40,
    ) -> None:
        self.sim = sim
        self.client_id = client_id
        self.rpc_timeout = rpc_timeout
        self.rpc_tries = rpc_tries
        self.state = ClientState(client_id, list(sim.members), rng)
        self._waiters: dict[int, tuple] = {}  # message_id -> (continuation, timer)

    def on_reply(self, env: Envelope) -> None:
        waiter = self._waiters.pop(env.message_id, None)
        if waiter is None:
            return  # late duplicate of an already-answered request
        cont, timer = waiter
        timer.cancelled = True
        cont(env.payload)

    def _request(self, dest: ServerId, env: Envelope, cont, tries_left: int) -> None:
        timer = _Timer(self.sim.now + self.rpc_timeout)

        def on_timeout() -> None:
            if timer.cancelled:
                return
            self._waiters.pop(env.message_id, None)
            if tries_left <= 1:
                cont(None)
            else:
                self._request(dest, env, cont, tries_left - 1)

        self.sim._push(timer.fire_at, on_timeout)
        self._waiters[env.message_id] = (cont, timer)
        self.sim.net_send(("c", self.client_id), ("s", dest), env)

    def _request_all(self, requests, cont) -> None:
        """Issue every request at once; cont gets the payloads, in request
        order, once each has been answered or given up."""
        payloads: list = [None] * len(requests)
        waiting = len(requests)

        def answered(i: int, payload) -> None:
            nonlocal waiting
            payloads[i] = payload
            waiting -= 1
            if not waiting:
                cont(payloads)

        for i, (dest, env) in enumerate(requests):
            self._request(dest, env, lambda p, i=i: answered(i, p), self.rpc_tries)

    def run(self, gen, on_done) -> None:
        """Drive a client generator; on_done gets ("ok", value) or ("error", e)."""
        self._step(gen, None, True, on_done)

    def _step(self, gen, value, first: bool, on_done) -> None:
        try:
            effect = next(gen) if first else gen.send(value)
        except StopIteration as stop:
            on_done(("ok", stop.value))
            return
        except Exception as exc:  # e.g. ReadUnavailableError during an outage
            on_done(("error", exc))
            return
        if effect[0] == "rpc":
            self._request(
                effect[1],
                effect[2],
                lambda payload: self._step(gen, payload, False, on_done),
                self.rpc_tries,
            )
        elif effect[0] == "rpcs":
            self._request_all(effect[1], lambda payloads: self._step(gen, payloads, False, on_done))
        elif effect[0] == "sleep":
            self.sim._push(self.sim.now + effect[1], lambda: self._step(gen, None, False, on_done))
        else:
            on_done(("error", RuntimeError(f"unknown effect {effect[0]!r}")))


class ClosedLoopDriver:
    """Back-to-back transaction issue loop for one client.

    txn_script(client_state) must return a fresh generator whose return
    value is a history record dict (or None to skip recording).
    """

    def __init__(
        self,
        sim: "Simulator",
        client: SimClient,
        txn_script,
        until: float,
        max_txns: int | None = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.txn_script = txn_script
        self.until = until
        self.max_txns = max_txns
        self.history: list = []
        self.errors: list = []
        self.done = False

    def start(self) -> None:
        self._launch()

    def _launch(self) -> None:
        if self.max_txns is not None and len(self.history) + len(self.errors) >= self.max_txns:
            self.done = True
            return
        if self.sim.now >= self.until:
            self.done = True
            return
        self.client.run(self.txn_script(self.client.state), self._finished)

    def _finished(self, outcome) -> None:
        kind, value = outcome
        if kind == "ok":
            if value is not None:
                self.history.append(value)
        else:
            self.errors.append(value)
        self._launch()


class Simulator:
    FIRST_CLIENT_ID = 1_000_000  # far above any server id

    def __init__(
        self,
        members: list[ServerId],
        config: ServerConfig | None = None,
        seed: int = 0,
        net: NetConfig | None = None,
        keep_trace: bool = True,
    ) -> None:
        self.members = sorted(members)
        self.config = config or ServerConfig(members=list(self.members))
        assert sorted(self.config.members) == self.members
        self.net = net or NetConfig()
        self.rng = random.Random(seed)
        self.seed = seed
        self.keep_trace = keep_trace
        self.audit_messages = False  # True: count server messages per transaction

        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self.trace: list = []
        self.crash_plan: CrashPlan | None = None
        self.auto_restart: float | None = None
        self.crashes = 0
        self.dropped = 0
        self.dropped_dead = 0
        self.msgs_total = 0
        self.server_msgs: Counter = Counter()
        self.msgs_by_tranx: dict[TranxID, Counter] = {}
        self._partitions: list[tuple[frozenset, frozenset]] = []

        self.nodes: dict[ServerId, SimNode] = {
            sid: SimNode(sid, MemEnv()) for sid in self.members
        }
        self.clients: dict[int, SimClient] = {}
        self._next_client = self.FIRST_CLIENT_ID
        for sid in self.members:
            self.restart(sid)

    # -- event loop ---------------------------------------------------------

    def _push(self, at: float, fn) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn))

    def schedule(self, delay: float, fn) -> None:
        self._push(self.now + delay, fn)

    def run_until(self, t_end: float) -> None:
        while self._heap and self._heap[0][0] <= t_end:
            at, _, fn = heapq.heappop(self._heap)
            self.now = at
            try:
                fn()
            except SimCrash as crash:
                self._trace(crash.sid, "crash.injected", label=crash.label)
                self.crash(crash.sid)
                if self.auto_restart is not None:
                    self.schedule(self.auto_restart, lambda s=crash.sid: self.restart(s))
        self.now = max(self.now, t_end)

    def run(self, duration: float) -> None:
        self.run_until(self.now + duration)

    # -- node lifecycle -------------------------------------------------------

    def crash(self, sid: ServerId) -> None:
        n = self.nodes[sid]
        if not n.alive:
            return
        n.alive = False
        n.incarnation += 1
        n.node = None  # all volatile state goes with it
        n.env.crash_all()  # unpersisted region bytes are lost
        n.busy_until = 0.0
        self.crashes += 1
        self._trace(sid, "crash")

    def restart(self, sid: ServerId) -> None:
        n = self.nodes[sid]
        if n.alive:
            return
        ctx = _Ctx(self, sid, n.incarnation)
        node = ServerNode(sid, self.config, n.env, MemKvStore(n.durable), ctx)
        n.node = node
        n.alive = True
        try:
            node.start()
        except SimCrash as crash:
            self._trace(sid, "crash.injected", label=crash.label)
            self.crash(sid)
            self.schedule(0.050, lambda: self.restart(sid))
            return
        self._trace(sid, "restart", incarnation=n.incarnation)

    # -- network -------------------------------------------------------------

    @staticmethod
    def _ep(x) -> tuple[str, int]:
        return ("s", x) if isinstance(x, int) else x

    def partition(self, side_a, side_b):
        rule = (frozenset(map(self._ep, side_a)), frozenset(map(self._ep, side_b)))
        self._partitions.append(rule)
        self._trace(-1, "net.partition", a=sorted(rule[0]), b=sorted(rule[1]))
        return rule

    def heal(self, rule) -> None:
        self._partitions.remove(rule)
        self._trace(-1, "net.heal")

    def _blocked(self, src, dst) -> bool:
        for a, b in self._partitions:
            if (src in a and dst in b) or (src in b and dst in a):
                return True
        return False

    def net_send(self, src, dst, env: Envelope) -> None:
        self._account(src, dst, env)
        if self._blocked(src, dst):
            self.dropped += 1
            return
        if self.net.drop_p and self.rng.random() < self.net.drop_p:
            self.dropped += 1
            return
        delay = self.net.latency + self.rng.random() * self.net.jitter
        if self.net.delay_p and self.rng.random() < self.net.delay_p:
            delay += self.rng.random() * self.net.extra_delay
        self._push(self.now + delay, lambda: self._deliver(dst, env))
        if self.net.dup_p and self.rng.random() < self.net.dup_p:
            dup_delay = delay + self.net.latency + self.rng.random() * self.net.extra_delay
            self._push(self.now + dup_delay, lambda: self._deliver(dst, env))

    def _deliver(self, dst, env: Envelope) -> None:
        kind, ident = dst
        if kind == "c":
            client = self.clients.get(ident)
            if client is not None:
                client.on_reply(env)
            return
        n = self.nodes.get(ident)
        if n is None or not n.alive:
            self.dropped_dead += 1
            return
        start = max(self.now, n.busy_until)
        n.busy_until = start + SERVICE_TIME
        incarnation = n.incarnation

        def handle() -> None:
            if not n.alive or n.incarnation != incarnation:
                return
            n.node.on_message(env)

        self._push(start, handle)

    def _account(self, src, dst, env: Envelope) -> None:
        self.msgs_total += 1
        if src[0] != "s" or dst[0] != "s":
            return
        name = env.msg_type.name
        self.server_msgs[name] += 1
        if self.audit_messages and env.tranx is not None:
            self.msgs_by_tranx.setdefault(env.tranx, Counter())[name] += 1

    # -- clients ---------------------------------------------------------------

    def new_client(self, seed: int | None = None, **kwargs) -> SimClient:
        cid = self._next_client
        self._next_client += 1
        rng = random.Random(seed if seed is not None else self.rng.randrange(2**32))
        client = SimClient(self, cid, rng, **kwargs)
        self.clients[cid] = client
        return client

    # -- instrumentation ---------------------------------------------------------

    def _trace(self, sid: ServerId, event: str, **info) -> None:
        if self.keep_trace:
            self.trace.append((self.now, sid, event, info))

    def _crash_point(self, sid: ServerId, label: str) -> None:
        plan = self.crash_plan
        if plan is None:
            return
        if plan.sid is not None and sid != plan.sid:
            return
        plan.count += 1
        if plan.collect is not None:
            plan.collect.append((sid, label))
        if plan.index is not None and not plan.fired and plan.count - 1 == plan.index:
            plan.fired = True
            raise SimCrash(sid, label)

    # -- state extraction (for oracles) -------------------------------------------

    def node_state(self, sid: ServerId) -> dict[bytes, tuple[bytes, int]]:
        """Applied key space of a live node (durable + volatile overlay)."""
        n = self.nodes[sid]
        assert n.alive
        return dict(n.node.storage.store.items())

    def durable_state(self, sid: ServerId) -> dict[bytes, tuple[bytes, int]]:
        """Only what would survive a crash of the node right now."""
        return dict(self.nodes[sid].durable)

    def global_state(self, durable_only: bool = False) -> dict[bytes, tuple[bytes, int]]:
        """Union of each server's applied state restricted to its owned keys."""
        out: dict[bytes, tuple[bytes, int]] = {}
        for sid in self.members:
            state = self.durable_state(sid) if durable_only else self.node_state(sid)
            for key, entry in state.items():
                if owner_of(key, self.members) == sid:
                    out[key] = entry
        return out

    def stats(self) -> dict:
        return {
            "now": self.now,
            "msgs_total": self.msgs_total,
            "server_msgs": dict(self.server_msgs),
            "dropped": self.dropped,
            "dropped_dead": self.dropped_dead,
            "crashes": self.crashes,
            "nodes": {
                sid: (n.node.stats_dump() if n.alive else "down")
                for sid, n in self.nodes.items()
            },
        }
