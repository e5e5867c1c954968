"""Deterministic discrete-event simulator for whole-cluster runs.

Everything runs single-threaded on a virtual clock: a heap of (time, seq,
method, arguments) events, seq breaking ties in push order.  Server nodes
are the real ServerNode objects; only their context (clock, timers,
transport, durability) is simulated, so protocol behaviour under test is
exactly the production code path.

The heap holds one entry per message in flight, one per server timer and
one timeout per client.  A message's one event is its arrival: an idle
node handles it there when nothing else is due at that instant, as the
handling pushed for later would be the next event popped anyway.  A client
keeps its unanswered requests in a map ordered by insertion, which is due
order, as each timeout is RPC_TIMEOUT after its send; one timer armed for
the head serves them all.

What the simulator models:

* network: per-message latency with jitter, plus injectable drop,
  duplication, extra delay, and partitions between endpoint groups;
* server capacity: each node has a busy-until horizon and a fixed service
  time per handled message, which is what makes throughput numbers
  meaningful on a virtual clock;
* crashes: a crashed node's object is discarded (volatile state gone), its
  memory-backed regions lose every byte that was never persisted, and a
  restart reruns real recovery over what survived;
* crash points: the node code calls ctx.crash_point(sid, label) after durable
  appends and around sends/receives; a CrashPlan can enumerate those
  points or fire a crash at the n-th one, which is how the recovery sweep
  covers every interleaving.

Clients are generator scripts (see client.py).  A SimClient is the socket
client's request core, client.RequestCore, bound to the virtual clock,
net_send and the heap; it resends each request every RPC_TIMEOUT, up to
RPC_TRIES sends, so exactly-once machinery is exercised for real.

Ownership runs one way.  The Simulator holds its parts: the node slots
(SimNode), each live ServerNode through its slot, the clients and the
event heap.  A part that needs the simulator (a node's _Ctx, a
ClosedLoopDriver, and a SimClient's clock, send and arm) holds a
weakref.ref to it and dereferences it once per entry point.  No heap event
holds the simulator: a message's arrival is pushed with the marker None,
which run_until hands to _deliver, and a queued restart carries a weak
reference.  A server timer's callback waits in its node slot's timer map,
which a crash empties.  So dropping the last reference to a Simulator
frees it, its nodes and their stores at once by reference counting, with
messages still in flight, and a crashed node's incarnation is freed at its
crash, not by a later cyclic collection.  A script's clock is its
client's `now`, so a transaction in flight pins nothing either.
"""

from __future__ import annotations

import heapq
import random
import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from .client import RPC_TIMEOUT, RPC_TRIES, ClientState, RequestCore
from .env import MemEnv
from .model import ServerId, TranxID, owner_of
from .rpc import Envelope, MsgType
from .server import ServerConfig, ServerNode
from .storage import MemKvStore

SERVICE_TIME = 50e-6  # virtual seconds a server spends on each message
_MSG_NAME = {t: t.name for t in MsgType}  # server_msgs keys


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


class _CrashPoints:
    """The CrashPlan the nodes' crash points count against.  A node's
    crash hook is bound to this holder, not to the Simulator, so it pins
    nothing and costs no weak dereference at each point."""

    __slots__ = ("plan",)

    def __init__(self) -> None:
        self.plan: CrashPlan | None = None

    def hit(self, sid: ServerId, label: str) -> None:
        plan = self.plan
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


def _fire(n: "SimNode", incarnation: int, t) -> None:
    """Run a server timer unless a crash dropped it or an earlier
    incarnation set it."""
    fn = n.timers.pop(t, None)
    if fn is not None and n.incarnation == incarnation:
        fn()


def _trace_via(sim_ref, sid: ServerId, event: str, **info) -> None:
    sim_ref()._trace(sid, event, **info)


def _restart(sim_ref, sid: ServerId) -> None:
    sim_ref().restart(sid)


class _Ctx:
    """The side-effect context one ServerNode incarnation runs against.  The
    node owns it, so it reaches the simulator through a weak reference."""

    def __init__(self, sim: "Simulator", sid: ServerId, incarnation: int) -> None:
        self._sim = weakref.ref(sim)
        self.sid = sid
        self.incarnation = incarnation
        self._ep = ("s", sid)
        self.trace = partial(_trace_via, self._sim) if sim.keep_trace else None
        self.crash_point = sim._crash_points.hit  # (sid, label)

    def now(self) -> float:
        return self._sim().now

    def set_timer(self, delay: float, fn):
        """Run fn after delay; it waits in the node slot's timer map."""
        sim = self._sim()
        n = sim.nodes[self.sid]
        t = object()
        n.timers[t] = fn
        sim._push(sim.now + delay, _fire, n, self.incarnation, t)
        return t

    def send(self, dest: ServerId, env: Envelope) -> None:
        self._sim().net_send(self._ep, ("s", dest), env)

    def reply(self, client_id: int, resp: Envelope) -> None:
        self._sim().net_send(self._ep, ("c", client_id), resp)


@dataclass
class SimNode:
    sid: ServerId
    env: MemEnv
    durable: dict = field(default_factory=dict)
    node: ServerNode | None = None
    incarnation: int = 0
    alive: bool = False
    busy_until: float = 0.0
    timers: dict = field(default_factory=dict)  # timer handle -> callback of the live node


def _now_via(sim_ref) -> float:
    return sim_ref().now


def _send_via(sim_ref, src, dest: ServerId, env: Envelope) -> None:
    sim_ref().net_send(src, ("s", dest), env)


def _push_via(sim_ref, at: float, fn) -> None:
    sim_ref()._push(at, fn)


class SimClient(RequestCore):
    """One client on the simulator: the request core bound to the virtual
    clock, the simulated network and the event heap, each through a weak
    reference, so `now` is a clock that does not pin the simulator."""

    def __init__(self, sim: "Simulator", client_id: int, rng: random.Random,
                 timeout: float = RPC_TIMEOUT, tries: int = RPC_TRIES) -> None:
        ref = weakref.ref(sim)
        send = partial(_send_via, ref, ("c", client_id))
        super().__init__(partial(_now_via, ref), send, partial(_push_via, ref), timeout, tries)
        self.client_id = client_id
        self.state = ClientState(client_id, list(sim.members), rng)
        self.cache = self.state.cache

    # own entries, so perfbench/layers.py can wrap them by name
    run = RequestCore.run
    on_reply = RequestCore.on_reply


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
        self._sim = weakref.ref(sim)
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
        if self._sim().now >= self.until or (
            self.max_txns is not None and len(self.history) + len(self.errors) >= self.max_txns
        ):
            self.done = True
            return
        self.client.run(self.txn_script(self.client.state), self._finished)

    def _finished(self, outcome) -> None:
        kind, value = outcome
        if kind != "ok":
            self.errors.append(value)
        elif value is not None:
            self.history.append(value)
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
        self._crash_points = _CrashPoints()
        self.auto_restart: float | None = None
        self.crashes = 0
        self.dropped = 0
        self.msgs_total = 0
        self.server_msgs: Counter = Counter()
        self.msgs_by_tranx: dict[TranxID, Counter] = {}
        self._partitions: list[tuple[frozenset, frozenset]] = []

        self.nodes: dict[ServerId, SimNode] = {sid: SimNode(sid, MemEnv()) for sid in self.members}
        self.clients: dict[int, SimClient] = {}
        self._next_client = self.FIRST_CLIENT_ID
        for sid in self.members:
            self.restart(sid)

    @property
    def crash_plan(self) -> CrashPlan | None:
        return self._crash_points.plan

    @crash_plan.setter
    def crash_plan(self, plan: CrashPlan | None) -> None:
        self._crash_points.plan = plan

    # -- event loop ---------------------------------------------------------

    def _push(self, at: float, fn, *args) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn, args))

    def schedule(self, delay: float, fn) -> None:
        self._push(self.now + delay, fn)

    def run_until(self, t_end: float) -> None:
        heap = self._heap
        deliver = self._deliver
        while heap and heap[0][0] <= t_end:
            at, _, fn, args = heapq.heappop(heap)
            self.now = at
            try:
                if fn is None:  # a message's arrival
                    deliver(*args)
                else:
                    fn(*args)
            except SimCrash as crash:
                self._trace(crash.sid, "crash.injected", label=crash.label)
                self.crash(crash.sid)
                if self.auto_restart is not None:
                    self._push(self.now + self.auto_restart, _restart, weakref.ref(self), crash.sid)
        self.now = max(self.now, t_end)

    def run(self, duration: float) -> None:
        self.run_until(self.now + duration)

    def step(self) -> bool:
        """Run the events of the next due instant; False when none is left."""
        if not self._heap:
            return False
        self.run_until(self._heap[0][0])
        return True

    # -- node lifecycle -------------------------------------------------------

    def crash(self, sid: ServerId) -> None:
        n = self.nodes[sid]
        if not n.alive:
            return
        n.alive = False
        n.incarnation += 1
        n.node = None  # all volatile state goes with it
        n.timers.clear()  # and its timers, so nothing queued holds it
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
            self._push(self.now + 0.050, _restart, weakref.ref(self), sid)
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
        self.msgs_total += 1
        if src[0] == "s" and dst[0] == "s":
            name = _MSG_NAME[env.msg_type]
            self.server_msgs[name] += 1
            if self.audit_messages and env.tranx is not None:
                self.msgs_by_tranx.setdefault(env.tranx, Counter())[name] += 1
        if self._partitions and self._blocked(src, dst):
            self.dropped += 1
            return
        net = self.net
        if net.drop_p and self.rng.random() < net.drop_p:
            self.dropped += 1
            return
        delay = net.latency + self.rng.random() * net.jitter
        if net.delay_p and self.rng.random() < net.delay_p:
            delay += self.rng.random() * net.extra_delay
        self._push(self.now + delay, None, dst, env)  # None: run_until delivers it
        if net.dup_p and self.rng.random() < net.dup_p:
            dup_delay = delay + net.latency + self.rng.random() * net.extra_delay
            self._push(self.now + dup_delay, None, dst, env)

    def _deliver(self, dst, env: Envelope) -> None:
        kind, ident = dst
        if kind == "c":
            client = self.clients.get(ident)
            if client is not None:
                client.on_reply(env)
            return
        n = self.nodes.get(ident)
        if n is None or not n.alive:
            return
        now, start = self.now, n.busy_until
        if start <= now:
            start = now
        n.busy_until = start + SERVICE_TIME
        heap = self._heap
        if start == now and (not heap or heap[0][0] > start):
            # the handling pushed now would be the next event popped
            n.node.on_message(env)
        else:
            self._push(start, self._handle, n, n.incarnation, env)

    @staticmethod
    def _handle(n: SimNode, incarnation: int, env: Envelope) -> None:
        if n.alive and n.incarnation == incarnation:
            n.node.on_message(env)

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

    # -- state extraction (for oracles) -------------------------------------------

    def node_state(self, sid: ServerId) -> dict[bytes, tuple[bytes, int]]:
        """Applied key space of a live node (durable + volatile overlay)."""
        n = self.nodes[sid]
        assert n.alive
        store = n.node.storage.store
        return {**store.durable, **store.overlay}

    def global_state(self) -> dict[bytes, tuple[bytes, int]]:
        """Union of each server's applied state restricted to its owned keys, read
        in place (durable, then the overlay over it); every server must be up."""
        out: dict[bytes, tuple[bytes, int]] = {}
        for sid in self.members:
            store = self.nodes[sid].node.storage.store
            for part in (store.durable, store.overlay):
                for key, entry in part.items():
                    if owner_of(key, self.members) == sid:
                        out[key] = entry
        return out
