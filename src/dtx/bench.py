"""Benchmark driver and metrics accounting.

The primary mode runs on the deterministic simulator (virtual clock): it
preloads the key space, drives closed-loop clients with the configured
workload mix, samples per-second committed/attempted counts and per-server
log footprint, and emits a fixed-column CSV:

    second, attempted, committed, aborted, p50_ms, p99_ms,
    wal_files, footprint_files

where wal_files sums live WAL files across servers and footprint_files
additionally counts each server's (fixed-size) watermark file.  "attempted"
counts user-level commit calls finishing in that second; every one of them
is either committed or aborted, so attempted == committed + aborted holds
per row and in total.
"""

from __future__ import annotations

import csv
import random
import statistics
from dataclasses import dataclass, field

from .server import ServerConfig, owner_of
from .sim import ClosedLoopDriver, NetConfig, Simulator
from .workload import WorkloadSpec, key_bytes, random_value, txn_script


@dataclass
class SecondSample:
    second: int
    attempted: int = 0
    committed: int = 0
    aborted: int = 0
    latencies: list = field(default_factory=list)
    wal_files: int = 0
    footprint_files: int = 0


@dataclass
class BenchReport:
    spec: WorkloadSpec
    seconds: list[SecondSample]
    history: list[dict]
    server_died: bool = False

    @property
    def committed(self) -> int:
        return sum(1 for r in self.history if r["ok"])

    @property
    def attempted(self) -> int:
        return len(self.history)

    @property
    def aborted(self) -> int:
        return self.attempted - self.committed

    def success_rate(self) -> float:
        return self.committed / self.attempted if self.attempted else 1.0

    def first_attempt_success_rate(self) -> float:
        firsts = sum(1 for r in self.history if r["ok"] and r["attempts"] == 1)
        return firsts / self.attempted if self.attempted else 1.0

    def latency_percentiles(self) -> dict[str, float]:
        lats = [
            (r["finished"] - r["started"]) * 1000.0
            for r in self.history
            if r["ok"] and r["started"] is not None
        ]
        if len(lats) < 2:
            return {"p50_ms": 0.0, "p99_ms": 0.0}
        qs = statistics.quantiles(lats, n=100)
        return {"p50_ms": qs[49], "p99_ms": qs[98]}

    def throughput_series(self) -> list[int]:
        return [s.committed for s in self.seconds]

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(
                [
                    "second",
                    "attempted",
                    "committed",
                    "aborted",
                    "p50_ms",
                    "p99_ms",
                    "wal_files",
                    "footprint_files",
                ]
            )
            for s in self.seconds:
                if len(s.latencies) >= 2:
                    qs = statistics.quantiles(s.latencies, n=100)
                    p50, p99 = qs[49], qs[98]
                elif s.latencies:
                    p50 = p99 = s.latencies[0]
                else:
                    p50 = p99 = 0.0
                w.writerow(
                    [
                        s.second,
                        s.attempted,
                        s.committed,
                        s.aborted,
                        f"{p50:.3f}",
                        f"{p99:.3f}",
                        s.wal_files,
                        s.footprint_files,
                    ]
                )


def preload_sim(sim: Simulator, spec: WorkloadSpec, seed: int) -> None:
    """Install the loaded key space directly into each server's durable store.

    Equivalent to a completed, synced load phase: every key at version 1
    with its seeded value, placed on its owning server.
    """
    import zlib

    for i in range(1, spec.key_count + 1):
        k = key_bytes(i)
        sid = owner_of(k, sim.members)
        value = random_value(random.Random(zlib.crc32(k) ^ seed), spec.value_size)
        sim.nodes[sid].durable[k] = (value, 1)


def run_sim_bench(
    members: list[int],
    spec: WorkloadSpec,
    gc: bool = True,
    net: NetConfig | None = None,
    service_time: float = 50e-6,
    keep_trace: bool = False,
    config: ServerConfig | None = None,
    tail: float = 5.0,
) -> tuple[BenchReport, Simulator]:
    """Preload, run the workload for spec.duration (virtual), sample per second.

    Sampling continues for `tail` extra seconds after the workload ends so
    footprint convergence after quiescence is visible in the series.
    """
    if config is None:
        config = ServerConfig(members=list(members))
    if not gc:
        config.gc_period = 10_000_000.0  # effectively disabled
    sim = Simulator(
        members,
        config=config,
        seed=spec.seed,
        net=net,
        service_time=service_time,
        keep_trace=keep_trace,
    )
    preload_sim(sim, spec, spec.seed)

    total_seconds = int(spec.duration + tail)
    samples = [SecondSample(i) for i in range(total_seconds + 1)]

    def sample(second: int) -> None:
        s = samples[second]
        s.wal_files = sum(
            n.node.tranxlog.file_count() for n in sim.nodes.values() if n.alive
        )
        s.footprint_files = s.wal_files + sum(1 for n in sim.nodes.values() if n.alive)

    drivers = []
    for c in range(spec.clients):
        client = sim.new_client(seed=spec.seed * 100_003 + c)
        d = ClosedLoopDriver(
            sim, client, txn_script(spec, clock=lambda: sim.now), until=spec.duration
        )
        drivers.append(d)
        d.start()

    for second in range(total_seconds + 1):
        sim.run_until(float(second))
        sample(second)
    # let in-flight work settle past the last sample boundary
    sim.run(1.0)

    history = [r for d in drivers for r in d.history]
    for r in history:
        bucket = min(int(r["finished"]), total_seconds)
        s = samples[bucket]
        s.attempted += 1
        if r["ok"]:
            s.committed += 1
            if r["started"] is not None:
                s.latencies.append((r["finished"] - r["started"]) * 1000.0)
        else:
            s.aborted += 1

    died = any(not n.alive for n in sim.nodes.values())
    return BenchReport(spec, samples, history, server_died=died), sim


def run_socket_bench(cluster, spec: WorkloadSpec) -> BenchReport:
    """Wall-clock benchmark against a live cluster, one thread per client."""
    import threading
    import time

    from .nettransport import connect_client

    t0 = time.monotonic()
    histories: list[list[dict]] = [[] for _ in range(spec.clients)]
    died = False

    def worker(idx: int) -> None:
        nonlocal died
        try:
            bc = connect_client(cluster, seed=spec.seed * 100_003 + idx)
        except OSError:
            died = True
            return
        script = txn_script(spec, clock=lambda: time.monotonic() - t0)
        try:
            while time.monotonic() - t0 < spec.duration:
                histories[idx].append(bc._run(script(bc.state)))
        except Exception:
            died = True
        finally:
            bc.driver.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(spec.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    total_seconds = int(spec.duration)
    samples = [SecondSample(i) for i in range(total_seconds + 1)]
    history = [r for per in histories for r in per]
    for r in history:
        s = samples[min(int(r["finished"]), total_seconds)]
        s.attempted += 1
        if r["ok"]:
            s.committed += 1
            s.latencies.append((r["finished"] - r["started"]) * 1000.0)
        else:
            s.aborted += 1
    return BenchReport(spec, samples, history, server_died=died)
