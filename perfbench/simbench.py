"""Simulator workloads: wall-clock CPU cost and virtual-clock protocol cost.

A run is a sequence of rounds.  Each round builds a fresh 3-server
`Simulator` from a seed derived from the run's seed, preloads the key
space (`setup`), starts 4 closed-loop clients (`ClosedLoopDriver` over
`txn_script`), lets them warm their caches for WARMUP virtual seconds and
then measures WINDOW virtual seconds in slices of SLICE virtual seconds.
Each slice yields the CPU time of the simulator thread per transaction
committed in it, and right after it the CPU time of a fixed reference
workload (`Reference`).  On a shared machine the CPU runs at speeds up to
2x apart from one stretch of seconds to the next, and both costs move
together, so their ratio (`cpu_refs_per_commit`) is steady where the raw
cost (`sim_us_per_commit`, also reported) is not.  After the window the
drivers stop, the cluster quiesces and the round's history and final
state go through the gate.

Rounds repeat until the run's wall-clock budget is spent, but at least
VIRTUAL_ROUNDS run in a timed run: the virtual-clock metrics pool exactly
those first rounds, so for a fixed seed they repeat exactly.
"""

from __future__ import annotations

import heapq
import random
import statistics
import struct
import time
from dataclasses import dataclass, field

from dtx import oracle
from dtx.bench import preload_sim
from dtx.sim import ClosedLoopDriver, Simulator
from dtx.workload import WorkloadSpec, txn_script

import gate
import layers

SERVERS = 3
CLIENTS = 4
WARMUP = 0.2  # virtual s: client caches fill before the window opens
WINDOW = 1.0  # virtual s measured per round
SLICE = 0.05  # virtual s per CPU-cost sample (about 100 commits)
QUIESCE_LIMIT = 10.0  # virtual s allowed for in-flight transactions to finish
VIRTUAL_ROUNDS = 5


class Reference:
    """A fixed CPU workload of the kind dtx does (lookups in a large dict of
    bytes keys, a heap, struct packing), independent of dtx's code."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self.table = {rng.randbytes(8): (rng.randbytes(100), i) for i in range(50_000)}
        self.keys = list(self.table)

    def cpu_s(self) -> float:
        """CPU time of one pass (a few ms)."""
        c0 = time.thread_time()
        heap: list = []
        for i in range(600):
            value, version = self.table[self.keys[(i * 7919) % len(self.keys)]]
            heapq.heappush(heap, (version, i))
            struct.pack("<IQ", i, version) + value[:8]
        while heap:
            heapq.heappop(heap)
        return time.thread_time() - c0


@dataclass
class Round:
    setup_s: float
    slices: list  # (CPU s, commits, reference CPU s) per slice of the window
    commits: int  # committed in the window
    latencies_ms: list  # started and finished inside the window, committed
    attempted: int  # transactions started, including errors
    failed: int  # not committed, including errors
    errors: list
    problems: list
    layer_inputs: dict = field(default_factory=dict)


def _counters(sim) -> dict:
    return {
        **layers.client_counters(c.state for c in sim.clients.values()),
        **layers.server_counters(n.node for n in sim.nodes.values()),
        "sim_events": sim._seq,
        "sim_msgs": sim.msgs_total,
    }


def run_round(spec: WorkloadSpec, seed: int, ref: Reference, tracer: layers.Tracer | None) -> Round:
    t0 = time.perf_counter()
    sim = Simulator(list(range(SERVERS)), seed=seed, keep_trace=False)
    preload_sim(sim, spec, seed)
    end = WARMUP + WINDOW
    drivers = []
    for c in range(CLIENTS):
        client = sim.new_client(seed=seed * 100_003 + c)
        d = ClosedLoopDriver(sim, client, txn_script(spec, clock=lambda: sim.now), until=end)
        drivers.append(d)
        d.start()
    setup_s = time.perf_counter() - t0

    sim.run_until(WARMUP)
    before = _counters(sim)
    if tracer is not None:
        tracer.proto_clock = lambda: sim.now
        layers.install(tracer)
    bounds = [WARMUP + SLICE * (i + 1) for i in range(round(WINDOW / SLICE))]
    cpu, ref_cpu = [], []
    try:
        for b in bounds:
            c0 = time.thread_time()
            sim.run_until(b)
            cpu.append(time.thread_time() - c0)
            ref_cpu.append(ref.cpu_s())
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = _counters(sim)

    while not all(d.done for d in drivers) and sim.now < end + QUIESCE_LIMIT:
        sim.run(0.1)
    sim.run(1.0)  # decisions, acks and a few GC ticks settle

    history = [r for d in drivers for r in d.history]
    errors = [e for d in drivers for e in d.errors]
    in_window = [r for r in history if WARMUP <= r["finished"] <= end]
    committed = [r for r in in_window if r["ok"]]
    latencies = [
        (r["finished"] - r["started"]) * 1000.0 for r in committed if r["started"] >= WARMUP
    ]

    problems = []
    if not all(d.done for d in drivers):
        problems.append(f"clients still running {QUIESCE_LIMIT} virtual s after the window")
    final = sim.global_state()
    txns = gate.resolve(history, final)
    problems += gate.check(txns, 1, final)
    dirty = oracle.locks_clean(sim)
    if dirty:
        problems.append(f"locks held after quiesce: {dirty}")

    per_slice = [0] * len(bounds)
    for x in committed:
        per_slice[min(int((x["finished"] - WARMUP) / SLICE), len(bounds) - 1)] += 1
    r = Round(setup_s, list(zip(cpu, per_slice, ref_cpu)), len(committed), latencies,
              attempted=len(history) + len(errors),
              failed=sum(1 for x in history if not x["ok"]) + len(errors),
              errors=errors[:3], problems=problems)
    if tracer is not None:
        r.layer_inputs = {
            **layers.history_inputs(in_window),
            **layers.delta(after, before),
            "dedup_entries_end": sum(n.node.dedup.size() for n in sim.nodes.values()),
            "wal_files_end": statistics.fmean(
                n.node.tranxlog.file_count() for n in sim.nodes.values()
            ),
        }
    return r


def run(spec: WorkloadSpec, seed: int, seconds: float, trace: bool):
    """Rounds until `seconds` of wall clock are spent.

    In a traced run the rounds alternate untraced/traced, so the tracing
    overhead is measured on the same run; the per-layer numbers come from
    the traced rounds.  Returns (untraced rounds, traced rounds, tracer).
    """
    tracer = layers.Tracer() if trace else None
    ref = Reference()
    plain: list[Round] = []
    traced: list[Round] = []
    min_rounds = 2 if trace else VIRTUAL_ROUNDS
    start = time.perf_counter()
    i = 0
    while i < min_rounds or time.perf_counter() - start < seconds:
        with_trace = trace and i % 2 == 1
        rnd = run_round(spec, seed * 1000 + i, ref, tracer if with_trace else None)
        (traced if with_trace else plain).append(rnd)
        i += 1
    return plain, traced, tracer
