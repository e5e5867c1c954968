"""Command-line entry point: server, load, bench, sim, log-dump, db-dump, plot.

Config, workload, and scenario files all use the plain `key = value` format
described in workload.py.  Scenario files add fault-injection keys:

    servers = 3            # node count (ids 0..n-1)
    clients = 4
    key_count = 8
    read_fraction = 0.50   # preset: 0.50 / 0.75 / 0.95 / 1.00
    duration = 2.0         # virtual seconds of client load
    txns_per_client = 6    # stop each client after N transactions (0 = until duration)
    drop = 0.05            # per-message drop probability
    dup = 0.05             # per-message duplication probability
    delay = 0.05           # probability of extra delivery delay
    crash = 1 0.5 0.2      # server 1 crashes at t=0.5 for 0.2 s (repeatable)
    partition = 0|1,2 0.5 0.3   # groups A|B split at t=0.5 for 0.3 s

`dtx sim` replays the scenario deterministically (same seed, same trace)
and emits one verdict line per checked property; any failure exits nonzero.
"""

from __future__ import annotations

import argparse
import sys

from . import oracle
from .bench import run_sim_bench, run_socket_bench
from .sim import NetConfig, Simulator, ClosedLoopDriver
from .workload import (
    ClusterConfig,
    ConfigError,
    WorkloadSpec,
    load_script,
    owner_batches,
    parse_kv_file,
    txn_script,
)


def cmd_server(args) -> int:
    from .nettransport import ServerRuntime

    cluster = ClusterConfig.load(args.config)
    runtime = ServerRuntime(cluster, args.id, data_dir=args.data_dir)
    runtime.serve_forever()
    return 0


def cmd_load(args) -> int:
    from .nettransport import connect_client

    cluster = ClusterConfig.load(args.config)
    spec = WorkloadSpec(key_count=args.keys, value_size=args.value_size, seed=args.seed)
    client = connect_client(cluster)
    totals = {"inserted": 0, "skipped": 0, "failed_batches": 0}
    for sid, keys in sorted(owner_batches(args.keys, cluster.member_ids).items()):
        gen_factory = load_script(keys, spec, args.seed)
        report = client._run(gen_factory(client.state))
        for k in totals:
            totals[k] += report[k]
        print(f"server {sid}: {len(keys)} keys, {report}")
    client.driver.close()
    print(f"load done: {totals}")
    return 0 if totals["failed_batches"] == 0 else 1


def cmd_bench(args) -> int:
    spec = WorkloadSpec.load(args.spec)
    if args.config:
        cluster = ClusterConfig.load(args.config)
        report = run_socket_bench(cluster, spec)
    else:
        members = list(range(args.sim_servers))
        report, _ = run_sim_bench(members, spec, gc=not args.no_gc)
    report.write_csv(args.csv)
    lat = report.latency_percentiles()
    print(
        f"attempted={report.attempted} committed={report.committed} "
        f"aborted={report.aborted} success={report.success_rate():.4f} "
        f"first_attempt={report.first_attempt_success_rate():.4f} "
        f"p50={lat['p50_ms']:.2f}ms p99={lat['p99_ms']:.2f}ms"
    )
    if report.server_died:
        print("WARNING: a server died during the run", file=sys.stderr)
    print(f"csv written to {args.csv}")
    return 0


def _parse_scenario(text: str) -> dict:
    kv = parse_kv_file(text)

    def one(key, default):
        vals = kv.get(key, [])
        return vals[0] if vals else default

    crashes = []
    for c in kv.get("crash", []):
        sid, at, down = c.split()
        crashes.append((int(sid), float(at), float(down)))
    partitions = []
    for p in kv.get("partition", []):
        groups, at, dur = p.split()
        a, _, b = groups.partition("|")
        partitions.append(
            (
                [int(x) for x in a.split(",")],
                [int(x) for x in b.split(",")],
                float(at),
                float(dur),
            )
        )
    return {
        "servers": int(one("servers", "3")),
        "clients": int(one("clients", "4")),
        "key_count": int(one("key_count", "8")),
        "read_fraction": float(one("read_fraction", "0.50")),
        "duration": float(one("duration", "2.0")),
        "txns_per_client": int(one("txns_per_client", "0")),  # 0 = unlimited
        "drop": float(one("drop", "0")),
        "dup": float(one("dup", "0")),
        "delay": float(one("delay", "0")),
        "crashes": crashes,
        "partitions": partitions,
    }


def run_scenario(scenario: dict, seed: int) -> tuple[list[tuple[str, bool, str]], Simulator, list]:
    """Execute a fault scenario; returns (verdicts, simulator, history)."""
    members = list(range(scenario["servers"]))
    net = NetConfig(drop_p=scenario["drop"], dup_p=scenario["dup"], delay_p=scenario["delay"])
    sim = Simulator(members, seed=seed, net=net, keep_trace=True)
    sim.auto_restart = 0.05
    spec = WorkloadSpec(
        key_count=scenario["key_count"],
        read_fraction=scenario["read_fraction"],
        duration=scenario["duration"],
        clients=scenario["clients"],
        seed=seed,
    )
    drivers = []
    for c in range(spec.clients):
        client = sim.new_client(seed=seed * 7919 + c)
        d = ClosedLoopDriver(
            sim,
            client,
            txn_script(spec, clock=lambda: sim.now),
            until=spec.duration,
            max_txns=scenario.get("txns_per_client") or None,
        )
        drivers.append(d)
        d.start()
    for sid, at, down in scenario["crashes"]:
        sim.schedule(at, lambda s=sid: sim.crash(s))
        sim.schedule(at + down, lambda s=sid: sim.restart(s))
    for a, b, at, dur in scenario["partitions"]:
        def cut(a=a, b=b, dur=dur):
            rule = sim.partition(a, b)
            sim.schedule(dur, lambda: sim.heal(rule))
        sim.schedule(at, cut)
    # generous quiesce so decisions, acks, and GC settle
    sim.run_until(spec.duration + 3.0)

    history = [r for d in drivers for r in d.history]
    verdicts = []

    committed = oracle.resolve_history(history, sim.trace)
    txns = [{"reads": r["reads"], "writes": r["writes"]} for r in committed]
    ser = oracle.check_history(txns)
    detail = f"{len(txns)} committed txns, {ser.states} states"
    if ser.ok is None:
        detail += " (search budget exhausted: inconclusive)"
    verdicts.append(("serializability", ser.ok is True, detail))

    atomic = oracle.atomicity_violations(sim.trace)
    double = oracle.double_decisions(sim.trace)
    verdicts.append(("atomic-commitment", not atomic and not double, f"{atomic or double or 'ok'}"))

    dup = oracle.duplicate_applies(sim.trace)
    state_ok = True
    detail = "ok"
    if ser.ok:
        expect = oracle.replay_versions(txns, ser.order)
        actual = sim.global_state()
        diff = {k: (expect.get(k), actual.get(k)) for k in set(expect) | set(actual) if expect.get(k) != actual.get(k)}
        if diff:
            state_ok = False
            detail = f"state diverged on {len(diff)} keys"
    if dup:
        detail = f"duplicate applies: {dup}"
    verdicts.append(("exactly-once-effects", not dup and state_ok, detail))

    dirty = oracle.locks_clean(sim)
    verdicts.append(("lock-cleanliness", not dirty, f"{dirty or 'ok'}"))

    # GC safety: crash every node and recover from durable state only; the
    # reclaimed logs plus synced stores must reproduce the same key space.
    before = sim.global_state()
    for sid in members:
        sim.crash(sid)
    for sid in members:
        sim.restart(sid)
    sim.run(2.0)
    after = sim.global_state()
    verdicts.append(("gc-safety", before == after, "survives full-cluster restart"))

    return verdicts, sim, history


def format_trace(trace) -> str:
    lines = []
    for t, sid, event, info in trace:
        extras = " ".join(f"{k}={info[k]!r}" for k in sorted(info))
        lines.append(f"{t:.6f} s{sid} {event} {extras}".rstrip())
    return "\n".join(lines)


def cmd_sim(args) -> int:
    with open(args.scenario, encoding="utf-8") as f:
        scenario = _parse_scenario(f.read())
    verdicts, sim, history = run_scenario(scenario, args.seed)
    committed = sum(1 for r in history if r["ok"])
    print(f"scenario done: {len(history)} txns, {committed} committed, seed {args.seed}")
    failed = False
    for name, ok, detail in verdicts:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed = failed or not ok
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as f:
            f.write(format_trace(sim.trace))
        print(f"trace written to {args.trace_out}")
    if failed:
        tail = format_trace(sim.trace[-200:])
        print("--- trace tail ---", file=sys.stderr)
        print(tail, file=sys.stderr)
        return 1
    return 0


def cmd_log_dump(args) -> int:
    from .env import DiskEnv
    from .wal import CorruptionError, LogManager
    from .model import decode_record

    env = DiskEnv(args.dir)
    manager = LogManager(env, 1 << 20)
    names = manager.file_names()
    if not names:
        print("(empty log)")
        return 0
    status = 0
    for idx, name in enumerate(names):
        print(f"== {name}")
        try:
            for entry in manager.read_file(name, newest=idx == len(names) - 1):
                print(f"  {decode_record(entry)}")
        except CorruptionError as e:
            print(f"  CORRUPT: {e}")
            status = 2
    return status


def cmd_db_dump(args) -> int:
    import os

    from .storage import read_store_log

    path = os.path.join(args.dir, "db", "data.log")
    if not os.path.exists(path):
        print("(empty database)")
        return 0
    with open(path, "rb") as f:
        data = f.read()
    writes, stop = read_store_log(data)
    status = 0
    if stop is not None and stop[0] == "torn":
        print(f"WARNING: torn tail at offset {stop[1]} ({len(data) - stop[1]} bytes)")
    elif stop is not None:
        print(f"CORRUPT: checksum mismatch at offset {stop[1]}")
        status = 2
    rows = {key: (value, version) for key, value, version in writes}
    for key in sorted(rows):
        value, version = rows[key]
        shown = value[:16].hex() + ("..." if len(value) > 16 else "")
        print(f"{key!r}\tv{version}\t{len(value)}B\t{shown}")
    print(f"({len(rows)} keys)")
    return status


def cmd_plot(args) -> int:
    import csv as _csv

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed (pip install dtx-kv[plot])", file=sys.stderr)
        return 1
    seconds, committed, files = [], [], []
    with open(args.csv, encoding="utf-8") as f:
        for row in _csv.DictReader(f):
            seconds.append(int(row["second"]))
            committed.append(int(row["committed"]))
            files.append(int(row["footprint_files"]))
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(8, 6), sharex=True)
    ax1.plot(seconds, committed)
    ax1.set_ylabel("committed txns / s")
    ax2.plot(seconds, files)
    ax2.set_ylabel("log footprint (files)")
    ax2.set_xlabel("seconds")
    fig.savefig(args.out, dpi=120)
    print(f"plot written to {args.out}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="dtx", description="distributed transactional KV store")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("server", help="run one server")
    s.add_argument("--config", required=True)
    s.add_argument("--id", type=int, required=True)
    s.add_argument("--data-dir")
    s.set_defaults(fn=cmd_server)

    s = sub.add_parser("load", help="populate the key space")
    s.add_argument("--config", required=True)
    s.add_argument("--keys", type=int, default=100_000)
    s.add_argument("--value-size", type=int, default=100)
    s.add_argument("--seed", type=int, default=1)
    s.set_defaults(fn=cmd_load)

    s = sub.add_parser("bench", help="run the workload benchmark")
    s.add_argument("--spec", required=True)
    s.add_argument("--csv", required=True)
    s.add_argument("--config", help="cluster config (socket mode); omit for simulator mode")
    s.add_argument("--sim-servers", type=int, default=3)
    s.add_argument("--no-gc", action="store_true")
    s.set_defaults(fn=cmd_bench)

    s = sub.add_parser("sim", help="run a fault scenario deterministically")
    s.add_argument("--scenario", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trace-out")
    s.set_defaults(fn=cmd_sim)

    s = sub.add_parser("log-dump", help="print WAL records of a data directory")
    s.add_argument("--dir", required=True)
    s.set_defaults(fn=cmd_log_dump)

    s = sub.add_parser("db-dump", help="print key/version rows of a data directory")
    s.add_argument("--dir", required=True)
    s.set_defaults(fn=cmd_db_dump)

    s = sub.add_parser("plot", help="render throughput/footprint curves from a bench CSV")
    s.add_argument("--csv", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_plot)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
