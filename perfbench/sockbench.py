"""Loopback workloads: three `dtx server` processes and one load process.

Set-up (timed as `setup_s`, several times per run) makes a fresh data
directory under the run's temporary root, writes the preloaded key space
straight into each server's store file (`FileKvStore`, as a completed and
synced load phase would leave it), spawns the servers on ports found by
binding port 0, and waits until each accepts connections.

The load process runs CLIENTS threads, each a closed loop with one
transaction in flight (`connect_client` + `BlockingClient` driving
`txn_script`).  Connection set-up, the handshake and cold client caches
fall in a WARMUP window that no metric counts.  After the measured window
the clients finish their in-flight transaction and stop; the written keys
are read back through a fresh client and the history and read-back go
through the gate.  Servers are stopped with SIGTERM, then SIGKILL after a
timeout, in a `finally`, and the data directory is removed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field

from dtx.nettransport import connect_client
from dtx.server import owner_of
from dtx.storage import FileKvStore
from dtx.workload import ClusterConfig, WorkloadSpec, key_bytes, random_value, txn_script

import gate
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
SERVERS = 3
CLIENTS = 2
WARMUP = 1.0  # s of load before the measured window opens
SETUPS = 3  # set-ups per run; setup_s is their median
READY_TIMEOUT = 20.0
STOP_TIMEOUT = 10.0
DUMP_TIMEOUT = 10.0
CLIENT_JOIN_SLACK = 60.0  # s a client may need to finish its last transaction
QUIESCE = 0.5  # s for decisions to reach participants before the read-back
CLK_TCK = os.sysconf("SC_CLK_TCK")


def free_ports(n: int) -> list[int]:
    socks = []
    try:
        for _ in range(n):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def preload(data_dir: str, spec: WorkloadSpec, members: list[int]) -> None:
    """Every key 1..key_count at version 1 in its owner's store file, with
    the value `dtx load` would have written for this seed."""
    per: dict[int, list] = {sid: [] for sid in members}
    for i in range(1, spec.key_count + 1):
        k = key_bytes(i)
        v = random_value(random.Random(zlib.crc32(k) ^ spec.seed), spec.value_size)
        per[owner_of(k, members)].append((k, v, 1))
    for sid, writes in per.items():
        store = FileKvStore(os.path.join(data_dir, f"server-{sid}"))
        try:
            store.apply(writes)
            store.sync()
        finally:
            store.close()


class ClusterError(RuntimeError):
    pass


class Cluster:
    """Three server processes over one fresh data directory."""

    def __init__(self, tmp_root: str, backend: str, spec: WorkloadSpec, trace_dir: str | None):
        self.tmp_root = tmp_root
        self.backend = backend
        self.spec = spec
        self.trace_dir = trace_dir
        self.dir: str | None = None
        self.procs: list[subprocess.Popen] = []
        self.config = None

    def trace_path(self, sid: int) -> str:
        return os.path.join(self.trace_dir, f"server{sid}.json")

    def start(self) -> None:
        self.dir = tempfile.mkdtemp(prefix="cluster-", dir=self.tmp_root)
        ports = free_ports(SERVERS)
        lines = [f"member = {i} 127.0.0.1:{p}" for i, p in enumerate(ports)]
        lines += [f"data_dir = {self.dir}", "gc_period = 0.1", f"backend = {self.backend}"]
        cfg_path = os.path.join(self.dir, "cluster.conf")
        with open(cfg_path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        self.config = ClusterConfig.load(cfg_path)
        preload(self.dir, self.spec, self.config.member_ids)
        for sid in self.config.member_ids:
            cmd = [sys.executable, os.path.join(HERE, "server_main.py"),
                   "--config", cfg_path, "--id", str(sid)]
            if self.trace_dir is not None:
                cmd += ["--trace-out", self.trace_path(sid)]
            log = open(os.path.join(self.dir, f"server-{sid}.log"), "wb")
            try:
                self.procs.append(subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                                   stdin=subprocess.DEVNULL))
            finally:
                log.close()
        deadline = time.monotonic() + READY_TIMEOUT
        for sid, port in enumerate(ports):
            while True:
                if self.procs[sid].poll() is not None:
                    raise ClusterError(f"server {sid} exited during start-up: {self.log_tail(sid)}")
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise ClusterError(f"server {sid} not ready after {READY_TIMEOUT} s")
                    time.sleep(0.01)

    def log_tail(self, sid: int) -> str:
        try:
            with open(os.path.join(self.dir, f"server-{sid}.log"), "rb") as f:
                return f.read()[-2000:].decode(errors="replace")
        except OSError:
            return "(no log)"

    def alive(self) -> list[int]:
        return [sid for sid, p in enumerate(self.procs) if p.poll() is None]

    def cpu_s(self) -> float:
        """User+system CPU of the live servers, from /proc/<pid>/stat."""
        total = 0
        for p in self.procs:
            with open(f"/proc/{p.pid}/stat", encoding="ascii") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
        return total / CLK_TCK

    def peak_rss_mib(self) -> float:
        """Sum of the servers' VmHWM, from /proc/<pid>/status."""
        kib = 0
        for p in self.procs:
            with open(f"/proc/{p.pid}/status", encoding="ascii") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        return kib / 1024.0

    def signal_all(self, sig: int) -> None:
        for p in self.procs:
            p.send_signal(sig)

    def dump_traces(self) -> list[dict]:
        """Ask every server for its window aggregates and wait for them."""
        for sid in range(len(self.procs)):
            try:
                os.unlink(self.trace_path(sid))
            except FileNotFoundError:
                pass
        self.signal_all(signal.SIGUSR2)
        out = []
        deadline = time.monotonic() + DUMP_TIMEOUT
        for sid in range(len(self.procs)):
            path = self.trace_path(sid)
            while not os.path.exists(path):
                if time.monotonic() > deadline:
                    raise ClusterError(f"server {sid} wrote no trace in {DUMP_TIMEOUT} s")
                time.sleep(0.01)
            with open(path, encoding="utf-8") as f:
                out.append(json.load(f))
        return out

    def db_bytes(self) -> int:
        """Total size of the servers' store files (data.log)."""
        return sum(
            os.path.getsize(os.path.join(self.dir, f"server-{sid}", "db", "data.log"))
            for sid in range(len(self.procs))
        )

    def stop(self) -> list[str]:
        """Stop every server and remove the data directory; returns problems."""
        problems = []
        for p in self.procs:
            if p.poll() is None:
                p.terminate()
        for sid, p in enumerate(self.procs):
            try:
                p.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                problems.append(f"server {sid} ignored SIGTERM for {STOP_TIMEOUT} s; killed")
                p.kill()
                p.wait(timeout=STOP_TIMEOUT)
        survivors = [p.pid for p in self.procs if p.returncode is None]
        if survivors:
            problems.append(f"server processes outlived the run: {survivors}")
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
        return problems


def start_cluster(tmp_root, backend, spec, trace_dir, attempts: int = 3) -> Cluster:
    """A started cluster; retried on fresh ports if one was taken meanwhile."""
    for attempt in range(attempts):
        cluster = Cluster(tmp_root, backend, spec, trace_dir)
        try:
            cluster.start()
            return cluster
        except ClusterError:
            cluster.stop()
            if attempt + 1 == attempts:
                raise
    raise AssertionError("unreachable")


@dataclass
class Window:
    """One measured stretch of load against one cluster."""

    seconds: float
    commits: int = 0
    latencies_ms: list = field(default_factory=list)
    cpu_s: float = 0.0  # of the servers, over the window
    peak_rss_mib: float = 0.0
    history: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # exceptions of dead client threads
    problems: list = field(default_factory=list)
    layer_inputs: dict = field(default_factory=dict)
    aggregates: list = field(default_factory=list)


def drive(cluster: Cluster, spec: WorkloadSpec, seconds: float, tracer) -> Window:
    """Run the closed-loop clients: WARMUP, then `seconds` measured."""
    win = Window(seconds)
    histories: list[list] = [[] for _ in range(CLIENTS)]
    clients: list = [None] * CLIENTS
    lock = threading.Lock()
    t0 = time.monotonic()
    w_start, w_end = t0 + WARMUP, t0 + WARMUP + seconds

    def worker(idx: int) -> None:
        try:
            bc = connect_client(cluster.config, seed=spec.seed * 100_003 + idx)
        except (OSError, ConnectionError) as exc:
            with lock:
                win.failures.append(f"client {idx} could not connect: {exc!r}")
            return
        clients[idx] = bc
        script = txn_script(spec, clock=time.monotonic)
        try:
            while time.monotonic() < w_end:
                histories[idx].append(bc._run(script(bc.state)))
        except Exception as exc:  # the in-flight transaction is lost: count it failed
            with lock:
                win.failures.append(f"client {idx} died: {exc!r}")
        finally:
            bc.driver.close()

    threads = [threading.Thread(target=worker, args=(i,), name=f"client-{i}") for i in range(CLIENTS)]
    for t in threads:
        t.start()
    time.sleep(max(0.0, w_start - time.monotonic()))
    if tracer is not None:
        cluster.signal_all(signal.SIGUSR1)
        tracer.reset()
        stats0 = layers.client_counters(bc.state for bc in clients if bc is not None)
    cpu0 = cluster.cpu_s()
    time.sleep(max(0.0, w_end - time.monotonic()))
    win.cpu_s = cluster.cpu_s() - cpu0
    win.peak_rss_mib = cluster.peak_rss_mib()
    if tracer is not None:
        stats1 = layers.client_counters(bc.state for bc in clients if bc is not None)
        win.aggregates = cluster.dump_traces()
        win.aggregates.append(tracer.export())
    for t in threads:
        t.join(timeout=CLIENT_JOIN_SLACK)
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        win.problems.append(f"client threads did not finish: {stuck}")

    win.history = [r for h in histories for r in h]
    in_window = [r for r in win.history if w_start <= r["finished"] <= w_end]
    committed = [r for r in in_window if r["ok"]]
    win.commits = len(committed)
    win.latencies_ms = [
        (r["finished"] - r["started"]) * 1000.0 for r in committed if r["started"] >= w_start
    ]
    if tracer is not None:
        servers = win.aggregates[:-1]
        win.layer_inputs = {
            **layers.history_inputs(in_window),
            **layers.delta(stats1, stats0),
            **{k: sum(a["counters"][k] for a in servers) for k in servers[0]["counters"]},
            "dedup_entries_end": sum(a["dedup_entries_end"] for a in servers),
            "wal_files_end": sum(a["wal_files_end"] for a in servers) / SERVERS,
        }
    return win


def read_back(cluster: Cluster, keys) -> dict:
    """(value, version) of each key as a fresh client reads it."""
    bc = connect_client(cluster.config, cache_capacity=0)
    try:
        h = bc.open_txn()
        for k in sorted(keys):
            bc.read(h, k)
        return dict(h.reads)
    finally:
        bc.driver.close()


@dataclass
class SockRun:
    setups_s: list
    windows: list  # [untraced] or [untraced, traced] in a traced run
    problems: list
    db_bytes_end: int = 0


def _finish(cluster: Cluster, win: Window) -> None:
    """Gate the window's history against a read-back of every written key."""
    dead = [sid for sid in range(SERVERS) if sid not in cluster.alive()]
    if dead:
        win.problems.append(f"server processes exited during the run: {dead}")
        for sid in dead:
            win.problems.append(f"server {sid} log tail: {cluster.log_tail(sid)}")
        return
    time.sleep(QUIESCE)
    written = {k for r in win.history for k in r["writes"]}
    final = read_back(cluster, written)
    txns = gate.resolve(win.history, final)
    win.problems += gate.check(txns, 1, final)


def run(spec: WorkloadSpec, backend: str, seconds: float, trace: bool, work_dir: str) -> SockRun:
    """SETUPS timed set-ups, the last of which is measured; in a traced run
    an untraced window of a third of the time, then a traced one."""
    os.makedirs(work_dir, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="sock-", dir=work_dir)
    trace_dir = os.path.join(work_dir, "trace") if trace else None
    out = SockRun([], [], [])
    plan = [(seconds, None)]
    if trace:
        os.makedirs(trace_dir, exist_ok=True)
        untraced = max(1.0, seconds / 3)
        plan = [(untraced, None), (max(1.0, seconds - untraced), layers.Tracer())]
    cluster = None
    try:
        for _ in range(0 if trace else SETUPS - 1):
            t0 = time.perf_counter()
            cluster = start_cluster(tmp_root, backend, spec, None)
            out.setups_s.append(time.perf_counter() - t0)
            out.problems += cluster.stop()
            cluster = None
        for window_s, tracer in plan:
            t0 = time.perf_counter()
            cluster = start_cluster(tmp_root, backend, spec, trace_dir if tracer else None)
            out.setups_s.append(time.perf_counter() - t0)
            if tracer is not None:
                layers.install(tracer)
            try:
                win = drive(cluster, spec, window_s, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                out.db_bytes_end = cluster.db_bytes()
            _finish(cluster, win)
            out.windows.append(win)
            stopped, cluster = cluster, None
            out.problems += stopped.stop()
            if tracer is not None:
                tracer.write_spans(os.path.join(trace_dir, "client.spans.jsonl"))
    finally:
        if cluster is not None:
            out.problems += cluster.stop()
        shutil.rmtree(tmp_root, ignore_errors=True)
    return out
