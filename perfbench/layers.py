"""Layer tracing for the traced benchmark run, and the per-layer metrics.

Nothing here edits dtx: `install` replaces functions and methods of the
dtx modules with wrappers at run time, and `uninstall` puts the originals
back.  A wrapper records a span (name, start, end, parent span, request
id) and adds to per-name aggregates: calls, self time and total time.  A
span's self time is its duration minus the time its child spans cover;
the parent is the innermost span active on the same thread.  The request
id is `(client id, message id)` for client requests and the TranxID for
server-to-server messages; a span without its own id inherits its
parent's.

Aggregates cover every span; only the first SPAN_CAP spans per process
are kept for the span file written when the run ends, so a long traced
run cannot exhaust memory.

Wrappers are installed only while a traced window runs; the timed runs
never see them.  What tracing costs is reported as the tracing overhead.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from array import array
from collections import Counter

SPAN_CAP = 50_000
SAMPLE_CAP = 200_000


class _ThreadState:
    __slots__ = ("stack", "self_ns", "total_ns", "calls", "counts", "samples", "tid")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, array] = {}


class Tracer:
    """Span recorder with per-thread aggregates (no lock on the hot path)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.proto_clock = time.monotonic  # the clock lock waits are measured on
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._states_lock:
                self._states.append(st)
        return st

    def current_span(self) -> str | None:
        st = self._state()
        return st.stack[-1][0] if st.stack else None

    def count(self, name: str, n: float = 1) -> None:
        self._state().counts[name] += n

    def sample(self, name: str, value: float) -> None:
        st = self._state()
        arr = st.samples.get(name)
        if arr is None:
            arr = st.samples[name] = array("d")
        if len(arr) < SAMPLE_CAP:
            arr.append(value)

    def span(self, name: str, fn, args, kwargs, rid=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        st = self._state()
        stack = st.stack
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[3]
        frame = [name, next(self._ids), 0, rid]
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[2] += dur
            st.calls[name] += 1
            st.self_ns[name] += dur - frame[2]
            st.total_ns[name] += dur
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (frame[1], name, t0, t1, parent[1] if parent else None, rid, st.tid)
                )

    def reset(self) -> None:
        """Start a fresh measurement window (spans already kept stay)."""
        with self._states_lock:
            for st in self._states:
                st.calls.clear()
                st.self_ns.clear()
                st.total_ns.clear()
                st.counts.clear()
                st.samples.clear()

    def export(self) -> dict:
        """Aggregates merged over threads, as plain JSON-able data."""
        calls, self_ns, total_ns, counts = Counter(), Counter(), Counter(), Counter()
        samples: dict[str, list] = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            calls.update(st.calls)
            self_ns.update(st.self_ns)
            total_ns.update(st.total_ns)
            counts.update(st.counts)
            for k, arr in list(st.samples.items()):
                samples.setdefault(k, []).extend(arr)
        return {
            "spans": {n: [calls[n], self_ns[n], total_ns[n]] for n in calls},
            "counts": dict(counts),
            "samples": samples,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, t0, t1, parent, rid, tid in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_ns": t0,
                            "end_ns": t1,
                            "parent": parent,
                            "rid": None if rid is None else str(rid),
                            "thread": tid,
                        }
                    )
                    + "\n"
                )

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name, rid=None, before=None, after=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        `name` is a span name or a callable(args) -> span name; `rid` a
        callable(args) -> request id or None; `before(args)` runs at entry
        and returns the args to call with; `after(args, result, dur_ns)`
        runs on a normal return.  Module-level functions are also replaced
        in every dtx module that imported them by name.
        """
        orig = owner.__dict__[attr]
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            nm = name(args) if callable(name) else name
            t0 = time.perf_counter_ns()
            result = tracer.span(nm, orig, args, kwargs, rid(args) if rid else None)
            if after is not None:
                after(args, result, time.perf_counter_ns() - t0)
            return result

        self._patch(owner, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, orig))
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not mod_name.startswith("dtx.") or mod is None:
                continue
            if mod.__dict__.get(attr) is orig:
                setattr(mod, attr, replacement)
                self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


# --- what is wrapped ------------------------------------------------------------


def _client_or_tranx_rid(env):
    from dtx import rpc

    if env.sender_kind == rpc.CLIENT:
        return (env.sender_id, env.message_id)
    return env.tranx


def install(tracer: Tracer) -> Tracer:
    """Wrap the layer boundaries of every dtx module."""
    from dtx import client, env, gc, locks, model, nettransport, rpc, server, sim, storage, wal

    t = tracer

    # model: record codec and the bytes it produces
    t.wrap(model, "encode_record", "model.encode_record",
           after=lambda a, r, d: t.count("model.record_bytes", len(r)))
    t.wrap(model, "decode_record", "model.decode_record")

    # rpc: frame codec and every payload codec
    t.wrap(rpc, "frame_encode", "rpc.frame_encode", rid=lambda a: _client_or_tranx_rid(a[0]))
    t.wrap(rpc, "frame_decode", "rpc.frame_decode")
    for attr in sorted(rpc.__dict__):
        if attr.startswith(("enc_", "dec_")) and callable(rpc.__dict__[attr]):
            t.wrap(rpc, attr, f"rpc.{attr}")

    # wal: typed append, block seals (the durable flush unit), reclamation
    def before_seal(args):
        t.count("wal.seals")
        t.count("wal.seal_bytes", args[0]._buf_len)
        return args

    t.wrap(wal.TranxLog, "append", "wal.append")
    t.wrap(wal.LogManager, "_seal", "wal.seal", before=before_seal)
    t.wrap(wal.TranxLog, "reclaim_oldest", "wal.reclaim_oldest",
           after=lambda a, r, d: t.count("gc.reclaimed_files", r))

    # env: the persist barrier (fsync on file-sync, a no-op on mapped/memory)
    t.wrap(env.Region, "persist", "env.persist")

    # locks: acquire, with the result callback traced as server work
    orig_acquire = locks.LockTable.__dict__["acquire_for_prepare"]

    def acquire(self, tranx, shared_keys, exclusive_keys, on_result, *rest, **kw):
        called_at = t.proto_clock()
        returned = []

        def result(granted, why):
            t.count("locks.results")
            if not granted:
                t.count("locks.rejects")
                t.count(f"locks.reject.{why.name.lower()}")
            if returned:
                t.sample("locks.wait_s", t.proto_clock() - called_at)
            return t.span("server.lock_result", on_result, (granted, why), {})

        try:
            return t.span(
                "locks.acquire",
                orig_acquire,
                (self, tranx, shared_keys, exclusive_keys, result, *rest),
                kw,
                rid=tranx,
            )
        finally:
            returned.append(True)

    t._patch(locks.LockTable, "acquire_for_prepare", orig_acquire, acquire)
    t.wrap(locks.LockTable, "release_all", "locks.release_all")
    t.wrap(locks.LockTable, "record_abort", "locks.record_abort")

    # storage
    t.wrap(storage.StorageEngine, "get", "storage.get")
    t.wrap(storage.StorageEngine, "apply_writes", "storage.apply")
    t.wrap(storage.StorageEngine, "sync", "storage.sync")

    # gc
    t.wrap(gc.GcManager, "tick", "gc.tick")
    t.wrap(gc.GcManager, "on_lc_broadcast", "gc.on_lc_broadcast")
    t.wrap(gc.GcManager, "mark_complete", "gc.mark_complete")

    # server: dispatch per message type, and the periodic timers
    t.wrap(server.ServerNode, "on_message", lambda a: f"server.{a[1].msg_type.name}",
           rid=lambda a: _client_or_tranx_rid(a[1]))
    t.wrap(server.ServerNode, "_ack_tick", "server.timer")
    t.wrap(server.ServerNode, "_gc_tick", "server.timer")

    # client: the commit driver's backoff sleeps, and client-side steps
    orig_commit = client.__dict__["txn_commit"]

    def txn_commit(cs, h):
        gen = orig_commit(cs, h)
        value = None
        try:
            while True:
                effect = gen.send(value)
                if effect[0] == "sleep":
                    t.count("client.backoff_s", effect[1])
                value = yield effect
        except StopIteration as stop:
            return stop.value

    t._patch(client, "txn_commit", orig_commit, functools.wraps(orig_commit)(txn_commit))
    t.wrap(client.BlockingClient, "read", "client.read")
    t.wrap(client.BlockingClient, "commit", "client.commit")
    t.wrap(sim.SimClient, "on_reply", "client.step")
    t.wrap(sim.SimClient, "run", "client.step")

    # sim: the event loop and the simulated network
    t.wrap(sim.Simulator, "run_until", "sim.run_until")
    t.wrap(sim.Simulator, "net_send", "sim.net_send", rid=lambda a: _client_or_tranx_rid(a[3]))

    # stages + nettransport: protocol-stage handler, sends, client requests
    def before_handle(args):
        t.sample("stages.queue_wait_s", time.monotonic() - args[1].enqueued_at)
        return args

    def after_request(args, result, dur_ns):
        t.sample(f"nettransport.rtt_s.{args[2].msg_type.name}", dur_ns / 1e9)

    def before_drop(args):
        if t.current_span() == "nettransport.request":
            t.count("nettransport.resends")
        return args

    t.wrap(nettransport.ServerRuntime, "_handle_event", "stages.handle", before=before_handle)
    t.wrap(nettransport.ServerRuntime, "send", "nettransport.send",
           rid=lambda a: a[2].tranx)
    t.wrap(nettransport.SocketDriver, "request", "nettransport.request",
           rid=lambda a: _client_or_tranx_rid(a[2]), after=after_request)
    t.wrap(nettransport.SocketDriver, "_drop", "nettransport.drop", before=before_drop)
    return t


# --- aggregates -> per-layer metrics ------------------------------------------------


def client_counters(states) -> dict:
    """Cache hits and misses and RPCs, summed over `client.ClientState`s."""
    out = {"cache_hits": 0, "cache_misses": 0, "client_rpcs": 0}
    for cs in states:
        out["cache_hits"] += cs.cache.hits
        out["cache_misses"] += cs.cache.misses
        out["client_rpcs"] += cs.stats["rpcs"]
    return out


def server_counters(nodes) -> dict:
    """Messages sent, one-phase commits and client decisions, summed over
    `server.ServerNode`s."""
    out = {"server_msgs_sent": 0, "server_one_phase": 0, "server_decisions": 0}
    for node in nodes:
        out["server_msgs_sent"] += node.stats["msgs_sent"]
        out["server_one_phase"] += node.stats["one_phase"]
        out["server_decisions"] += node.stats["commits"] + node.stats["aborts"]
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def history_inputs(in_window: list) -> dict:
    """Per-window inputs taken from the client history records."""
    committed = [r for r in in_window if r["ok"]]
    return {
        "commits": len(committed),
        "txns": len(in_window),
        "commit_attempts": sum(r["attempts"] for r in committed),
        "first_attempt_commits": sum(1 for r in committed if r["attempts"] == 1),
    }


def merge(aggs: list[dict]) -> dict:
    spans: dict[str, list] = {}
    counts: Counter = Counter()
    samples: dict[str, list] = {}
    for agg in aggs:
        for name, (c, s, tot) in agg["spans"].items():
            cur = spans.setdefault(name, [0, 0, 0])
            cur[0] += c
            cur[1] += s
            cur[2] += tot
        counts.update(agg["counts"])
        for name, vals in agg["samples"].items():
            samples.setdefault(name, []).extend(vals)
    return {"spans": spans, "counts": dict(counts), "samples": samples}


SERVER_TYPES = ("READ", "COMMIT", "PREPARE", "READY", "COMMIT_DECISION", "ABORT_DECISION",
                "ACK", "GC_LC")
REJECT_REASONS = ("shared_denied", "exclusive_denied", "wait_timeout", "already_aborted")

# The per-layer metrics: name -> (unit, better, what it should move on the
# simulator, what it should move on the loopback cluster).  None means the
# layer does not run there.  The traced run of sim-read-mostly also drives
# a mapped-flush cluster (sock-mapped) and that of sim-contended a file-sync
# cluster (sock-fsync).  Loopback metrics carry the prefix "sock."; the
# loopback end-to-end numbers (sock.commits_per_s, sock.p50_ms, sock.p99_ms,
# sock.cpu_us_per_commit) have no bound, because wall-clock throughput on a
# shared 2-vCPU machine swings up to 2x between consecutive runs.
SIM_CPU = "cpu_us_per_commit on sim-*"
SOCK_P50 = "sock.p50_ms on sock-mapped"
SOCK_FSYNC = "sock.p50_ms and sock.commits_per_s on sock-fsync"
SOCK_P99 = "sock.p99_ms on sock-*"
CONTENDED = "p99_ms (virtual) on sim-contended"
PER_LAYER: dict[str, tuple] = {
    "model.encode_record.us": ("us", "lower", "cpu_us_per_commit on sim-read-mostly", SOCK_P50),
    "model.record_bytes_per_commit": ("B", "lower", "cpu_us_per_commit on sim-read-mostly",
                                      SOCK_FSYNC),
    "rpc.frame.us": ("us", "lower", None, SOCK_P50),
    "rpc.codec.us_per_commit": ("us", "lower", SIM_CPU, SOCK_P50),
    "rpc.dedup_entries_end": ("count", "lower", "peak_rss_mb on sim-*", "servers' memory"),
    "wal.append.us": ("us", "lower", SIM_CPU, SOCK_P50),
    "wal.flushes_per_commit": ("count", "lower", "nothing virtual: the barrier is free there",
                               SOCK_FSYNC),
    "wal.block_fill": ("ratio", "higher", "nothing virtual", SOCK_FSYNC),
    "wal.kib_per_commit": ("KiB", "lower", "nothing virtual", SOCK_FSYNC),
    "wal.files_end": ("count", "lower", "peak_rss_mb on sim-*", SOCK_P99 + " (GC reclaim work)"),
    "env.persist.us": ("us", "lower", SIM_CPU, SOCK_FSYNC + "; next to nothing on sock-mapped"),
    "env.persist_per_commit": ("count", "lower", SIM_CPU, SOCK_FSYNC),
    "locks.acquire_per_commit": ("count", "lower", SIM_CPU, SOCK_P50),
    "locks.acquire.us": ("us", "lower", SIM_CPU, SOCK_P50),
    "locks.reject_frac": ("ratio", "lower", CONTENDED, SOCK_P99),
    **{
        f"locks.reject_frac.{r}": ("ratio", "lower", CONTENDED, SOCK_P99)
        for r in REJECT_REASONS
    },
    "locks.wait_ms": ("ms", "lower", CONTENDED, SOCK_P99),
    "storage.get.us": ("us", "lower", SIM_CPU, SOCK_P50),
    "storage.apply.us": ("us", "lower", SIM_CPU, SOCK_P50),
    "storage.sync.us": ("us", "lower", SIM_CPU, SOCK_P99),
    "storage.db_bytes_end": ("B", "lower", None, "footprint of the store file"),
    "gc.tick.us": ("us", "lower", SIM_CPU, SOCK_P99),
    "gc.ticks": ("count", "lower", SIM_CPU, SOCK_P99),
    "gc.reclaimed_files": ("count", "higher", SIM_CPU, SOCK_P99),
    **{f"server.{mt}.us": ("us", "lower", SIM_CPU, SOCK_P50) for mt in SERVER_TYPES},
    "server.msgs_sent_per_commit": ("count", "lower", "commits_per_s and p50_ms (virtual) on sim-*",
                                    SOCK_P50),
    "server.one_phase_frac": ("ratio", "higher", "commits_per_s and p50_ms (virtual) on sim-*",
                              SOCK_P50),
    "client.attempts_per_commit": ("count", "lower", CONTENDED, SOCK_P99),
    "client.first_attempt_frac": ("ratio", "higher", CONTENDED, SOCK_P99),
    "client.backoff_ms_per_txn": ("ms", "lower", CONTENDED, SOCK_P99),
    "client.cache_hit_frac": ("ratio", "higher",
                              "p50_ms (virtual) on sim-contended; no change on sim-read-mostly",
                              SOCK_P50),
    "client.rpcs_per_txn": ("count", "lower",
                            "p50_ms (virtual) on sim-contended; no change on sim-read-mostly",
                            SOCK_P50),
    "sim.events_per_commit": ("count", "lower", SIM_CPU, None),
    "sim.msgs_per_commit": ("count", "lower", SIM_CPU, None),
    "sim.loop.us_per_commit": ("us", "lower", SIM_CPU, None),
    "stages.queue_wait_us.p50": ("us", "lower", None, SOCK_P99),
    "stages.queue_wait_us.p99": ("us", "lower", None, SOCK_P99),
    "stages.backpressure": ("count", "lower", None, SOCK_P99),
    "stages.busy_frac": ("ratio", "lower", None, "sock.commits_per_s on sock-mapped"),
    "nettransport.send.us": ("us", "lower", None, SOCK_P50),
    "nettransport.rtt_ms.read": ("ms", "lower", None, SOCK_P50),
    "nettransport.rtt_ms.commit": ("ms", "lower", None, SOCK_P50),
    "nettransport.resends": ("count", "lower", None, "failed counts"),
    "commits_per_s": ("1/s", "higher", None, "loopback end-to-end (no bound)"),
    "p50_ms": ("ms", "lower", None, "loopback end-to-end (no bound)"),
    "p99_ms": ("ms", "lower", None, "loopback end-to-end (no bound)"),
    "cpu_us_per_commit": ("us", "lower", None, "loopback end-to-end (no bound)"),
    "trace.overhead_us_per_commit": ("us", "lower", "nothing: the cost of tracing itself",
                                     "nothing: the cost of tracing itself"),
    "trace.overhead_commits_per_s": ("1/s", "lower", None, "nothing: the cost of tracing itself"),
}


def per_layer_names(runtime: str) -> dict[str, tuple[str, str, str]]:
    """Reported name -> (unit, better, what it should move) for "sim" or "sock"."""
    out = {}
    for name, (unit, better, on_sim, on_sock) in PER_LAYER.items():
        moves = on_sim if runtime == "sim" else on_sock
        if moves is not None:
            out[name if runtime == "sim" else "sock." + name] = (unit, better, moves)
    return out


def _per_call_us(spans, *names) -> float:
    calls = sum(spans.get(n, (0, 0, 0))[0] for n in names)
    self_ns = sum(spans.get(n, (0, 0, 0))[1] for n in names)
    return self_ns / calls / 1000.0 if calls else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _pct(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(agg: dict, inp: dict, runtime: str) -> dict[str, float]:
    """The per-layer metrics of one runtime ("sim" or "sock"), by reported name.

    `inp` carries what the aggregates cannot: commits, txns and history
    records of the traced window, client and server counters, end-of-run
    sizes, the window length and the server count, the overheads and, for
    the loopback cluster, its end-to-end numbers.
    """
    spans, counts, samples = agg["spans"], agg["counts"], agg["samples"]
    commits = inp["commits"]
    txns = inp["txns"]
    seals = counts.get("wal.seals", 0)
    results = counts.get("locks.results", 0)
    from dtx.wal import BLOCK_PAYLOAD_CAP, BLOCK_SIZE

    m = {
        "model.encode_record.us": _per_call_us(spans, "model.encode_record"),
        "model.record_bytes_per_commit": _ratio(counts.get("model.record_bytes", 0), commits),
        "rpc.frame.us": _per_call_us(spans, "rpc.frame_encode", "rpc.frame_decode"),
        "rpc.codec.us_per_commit": _ratio(
            sum(s[1] for n, s in spans.items() if n.startswith(("rpc.enc_", "rpc.dec_"))) / 1000.0,
            commits,
        ),
        "rpc.dedup_entries_end": inp["dedup_entries_end"],
        "wal.append.us": _per_call_us(spans, "wal.append"),
        "wal.flushes_per_commit": _ratio(seals, commits),
        "wal.block_fill": _ratio(counts.get("wal.seal_bytes", 0), seals * BLOCK_PAYLOAD_CAP),
        "wal.kib_per_commit": _ratio(seals * BLOCK_SIZE / 1024.0, commits),
        "wal.files_end": inp["wal_files_end"],
        "env.persist.us": _per_call_us(spans, "env.persist"),
        "env.persist_per_commit": _ratio(spans.get("env.persist", (0,))[0], commits),
        "locks.acquire_per_commit": _ratio(spans.get("locks.acquire", (0,))[0], commits),
        "locks.acquire.us": _per_call_us(spans, "locks.acquire"),
        "locks.reject_frac": _ratio(counts.get("locks.rejects", 0), results),
        "locks.wait_ms": 1000.0 * statistics.fmean(samples["locks.wait_s"])
        if samples.get("locks.wait_s") else 0.0,
        "storage.get.us": _per_call_us(spans, "storage.get"),
        "storage.apply.us": _per_call_us(spans, "storage.apply"),
        "storage.sync.us": _per_call_us(spans, "storage.sync"),
        "storage.db_bytes_end": inp.get("db_bytes_end", 0),
        "gc.tick.us": _per_call_us(spans, "gc.tick", "gc.on_lc_broadcast"),
        "gc.ticks": spans.get("gc.tick", (0,))[0],
        "gc.reclaimed_files": counts.get("gc.reclaimed_files", 0),
        "server.msgs_sent_per_commit": _ratio(inp["server_msgs_sent"], commits),
        "server.one_phase_frac": _ratio(inp["server_one_phase"], inp["server_decisions"]),
        "client.attempts_per_commit": _ratio(inp["commit_attempts"], commits),
        "client.first_attempt_frac": _ratio(inp["first_attempt_commits"], txns),
        "client.backoff_ms_per_txn": _ratio(1000.0 * counts.get("client.backoff_s", 0.0), txns),
        "client.cache_hit_frac": _ratio(inp["cache_hits"], inp["cache_hits"] + inp["cache_misses"]),
        "client.rpcs_per_txn": _ratio(inp["client_rpcs"], txns),
        "sim.events_per_commit": _ratio(inp.get("sim_events", 0), commits),
        "sim.msgs_per_commit": _ratio(inp.get("sim_msgs", 0), commits),
        "sim.loop.us_per_commit": _ratio(
            (spans.get("sim.run_until", (0, 0))[1] + spans.get("sim.net_send", (0, 0))[1]) / 1000.0,
            commits,
        ),
        "stages.queue_wait_us.p50": 1e6 * _pct(samples.get("stages.queue_wait_s", []), 50),
        "stages.queue_wait_us.p99": 1e6 * _pct(samples.get("stages.queue_wait_s", []), 99),
        "stages.backpressure": inp.get("stage_backpressure", 0),
        "stages.busy_frac": _ratio(
            spans.get("stages.handle", (0, 0, 0))[2] / 1e9, inp.get("window_s", 0) * inp.get("socket_servers", 0)
        ),
        "nettransport.send.us": _per_call_us(spans, "nettransport.send"),
        "nettransport.rtt_ms.read": 1000.0 * statistics.fmean(samples["nettransport.rtt_s.READ"])
        if samples.get("nettransport.rtt_s.READ") else 0.0,
        "nettransport.rtt_ms.commit": 1000.0 * statistics.fmean(samples["nettransport.rtt_s.COMMIT"])
        if samples.get("nettransport.rtt_s.COMMIT") else 0.0,
        "nettransport.resends": counts.get("nettransport.resends", 0),
        "trace.overhead_us_per_commit": inp["overhead_us_per_commit"],
        "trace.overhead_commits_per_s": inp.get("overhead_commits_per_s", 0),
    }
    for r in REJECT_REASONS:
        m[f"locks.reject_frac.{r}"] = _ratio(counts.get(f"locks.reject.{r}", 0), results)
    for mt in SERVER_TYPES:
        m[f"server.{mt}.us"] = _per_call_us(spans, f"server.{mt}")
    for name in ("commits_per_s", "p50_ms", "p99_ms", "cpu_us_per_commit"):
        m[name] = inp.get(name, 0.0)
    names = per_layer_names(runtime)
    prefix = "" if runtime == "sim" else "sock."
    out = {prefix + n: v for n, v in m.items() if prefix + n in names}
    assert set(out) == set(names), set(out) ^ set(names)
    return out
