"""dtx benchmark: wall-clock and virtual-clock cost of the commit protocol.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a dtx checkout; the program is imported from `src/`.
Every run prints each end-to-end metric by name with its unit and sample
count, runs the correctness gate (see gate.py) and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (BENCHMARK.json
`end_to_end`); with `--trace 1` the run traces every layer and reports the
per-layer ones, including the tracing overhead.  The exit code is 0 when
the gate passed, 1 when it failed, 2 when the run could not be made.
Working files go to `.perfbench/` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# The traced run of a simulator workload also runs the loopback workload
# named by "cluster".  The sock-* workloads can be run by name; they are not
# in BENCHMARK.json because their wall-clock figures swing up to 2x between
# consecutive runs on a shared 2-vCPU machine.
WORKLOADS = {
    "sim-read-mostly": {"kind": "sim", "key_count": 100_000, "read_fraction": 0.95,
                        "cluster": "sock-mapped"},
    "sim-contended": {"kind": "sim", "key_count": 64, "read_fraction": 0.50,
                      "cluster": "sock-fsync"},
    "sock-mapped": {"kind": "sock", "key_count": 10_000, "read_fraction": 0.75,
                    "backend": "mapped-flush"},
    "sock-fsync": {"kind": "sock", "key_count": 10_000, "read_fraction": 0.75,
                   "backend": "file-sync"},
}


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def vm_hwm_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def pct(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


class Report:
    """What a run prints.  End-to-end metrics are those given a key: on
    sim-* the rate and latencies are on the virtual clock and the CPU cost
    is the simulator thread's in units of a reference workload (see
    simbench); on sock-* all is on the wall clock, CPU is the servers'."""

    def __init__(self) -> None:
        self.e2e: dict[str, dict] = {}
        self.layers: dict[str, float] = {}
        self.problems: list[str] = []
        self.flags: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def metric(self, name: str, value: float, unit: str, samples: str, key: str | None = None):
        """Print a metric; with a key it is also an end-to-end metric of the run."""
        self.lines.append(f"  {name} = {value:.6g} {unit}  ({samples})")
        if key is not None:
            self.e2e[key] = {"value": value, "unit": unit}


def sim_report(name: str, args, rep: Report) -> None:
    import layers
    import simbench
    from dtx.workload import WorkloadSpec

    wl = WORKLOADS[name]
    spec = WorkloadSpec(key_count=wl["key_count"], read_fraction=wl["read_fraction"],
                        clients=simbench.CLIENTS, seed=args.seed,
                        duration=simbench.WARMUP + simbench.WINDOW)
    plain, traced, tracer = simbench.run(spec, args.seed, args.seconds, args.trace)
    for r in plain + traced:
        rep.problems += r.problems
        rep.attempted += r.attempted
        rep.failed += r.failed
        rep.flags += [f"client error: {e!r}" for e in r.errors]

    def us_per_commit(rounds):
        return statistics.median(c * 1e6 / n for r in rounds for c, n, _ in r.slices if n)

    def refs_per_commit(rounds):
        return statistics.median(c / n / ref for r in rounds for c, n, ref in r.slices if n)

    setup = [r.setup_s for r in plain]
    rep.metric("setup_s", statistics.median(setup), "s", f"median of n={len(setup)} set-ups",
               "setup_s")
    vr = plain[: simbench.VIRTUAL_ROUNDS]
    commits = sum(r.commits for r in vr)
    lats = [x for r in vr for x in r.latencies_ms]
    slices = (f"median of n={sum(len(r.slices) for r in plain)} slices of "
              f"{simbench.SLICE:g} virtual s, {sum(r.commits for r in plain)} commits")
    rep.metric("cpu_refs_per_commit", refs_per_commit(plain), "ref",
               f"simulator CPU per commit / reference CPU next to it, {slices}",
               "cpu_refs_per_commit")
    rep.metric("sim_us_per_commit", us_per_commit(plain), "us", slices)
    rep.metric("virt_commits_per_s", commits / (len(vr) * simbench.WINDOW), "1/s",
               f"first {len(vr)} rounds, n={commits} commits", "commits_per_s")
    rep.metric("virt_p50_ms", pct(lats, 50), "ms", f"n={len(lats)} txns", "p50_ms")
    rep.metric("virt_p99_ms", pct(lats, 99), "ms", f"n={len(lats)} txns", "p99_ms")
    rep.metric("peak_rss_mb", vm_hwm_mib(), "MiB", "benchmark process VmHWM, n=1", "peak_rss_mb")

    if tracer is not None:
        inp: dict = {}
        for r in traced:
            for k, v in r.layer_inputs.items():
                inp[k] = inp.get(k, 0) + v
        last = traced[-1].layer_inputs
        inp.update(
            dedup_entries_end=last["dedup_entries_end"], wal_files_end=last["wal_files_end"],
            overhead_us_per_commit=us_per_commit(traced) - us_per_commit(plain),
        )
        rep.metric("sim_us_per_commit (traced)", us_per_commit(traced), "us",
                   f"median of n={sum(len(r.slices) for r in traced)} traced slices")
        rep.layers = layers.layer_metrics(tracer.export(), inp, "sim")
        trace_dir = os.path.join(WORK, name, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write_spans(os.path.join(trace_dir, "sim.spans.jsonl"))
        # The transport, stage and fsync layers run only on real processes.
        sock_report(wl["cluster"], args, rep, prefix="sock.")


def sock_report(name: str, args, rep: Report, prefix: str = "") -> None:
    """A loopback-cluster workload; inside a simulator workload's traced run
    its numbers carry the prefix "sock." and are not end-to-end metrics."""
    import layers
    import sockbench
    from dtx.workload import WorkloadSpec

    wl = WORKLOADS[name]
    spec = WorkloadSpec(key_count=wl["key_count"], read_fraction=wl["read_fraction"],
                        clients=sockbench.CLIENTS, seed=args.seed, duration=args.seconds)
    run = sockbench.run(spec, wl["backend"], args.seconds, args.trace, os.path.join(WORK, name))
    rep.problems += run.problems
    for w in run.windows:
        rep.problems += w.problems
        rep.attempted += len(w.history) + len(w.failures)
        rep.failed += sum(1 for x in w.history if not x["ok"]) + len(w.failures)
        rep.flags += w.failures

    def key(metric):
        return None if prefix else metric

    rep.metric(prefix + "setup_s", statistics.median(run.setups_s), "s",
               f"median of n={len(run.setups_s)} set-ups", key("setup_s"))
    e2e = []  # per window: {metric: value}
    for w, traced in zip(run.windows, (False, True)):
        suffix = " (traced)" if traced else ""
        e2e.append({
            "commits_per_s": w.commits / w.seconds,
            "p50_ms": pct(w.latencies_ms, 50),
            "p99_ms": pct(w.latencies_ms, 99),
            "cpu_us_per_commit": w.cpu_s * 1e6 / w.commits,
        })
        n = f"n={len(w.latencies_ms)} txns"
        for metric, unit, samples in (
            ("commits_per_s", "1/s", f"wall clock, {w.seconds:g} s window, n={w.commits} commits"),
            ("p50_ms", "ms", n),
            ("p99_ms", "ms", n),
            ("cpu_us_per_commit", "us", f"CPU of {sockbench.SERVERS} servers, n={w.commits} commits"),
        ):
            rep.metric(prefix + metric + suffix, e2e[-1][metric], unit, samples,
                       None if traced else key(metric))
    rep.metric(prefix + "peak_rss_mb", run.windows[0].peak_rss_mib, "MiB",
               f"sum of {sockbench.SERVERS} servers' VmHWM", key("peak_rss_mb"))

    if args.trace:
        traced = run.windows[1]
        inp = dict(traced.layer_inputs, **e2e[0])
        inp.update(
            db_bytes_end=run.db_bytes_end, window_s=traced.seconds,
            socket_servers=sockbench.SERVERS,
            overhead_us_per_commit=e2e[1]["cpu_us_per_commit"] - e2e[0]["cpu_us_per_commit"],
            overhead_commits_per_s=e2e[0]["commits_per_s"] - e2e[1]["commits_per_s"],
        )
        aggs = [a["aggregates"] for a in traced.aggregates[:-1]] + [traced.aggregates[-1]]
        rep.layers.update(layers.layer_metrics(layers.merge(aggs), inp, "sock"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dtx layered benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="check that the gate rejects bad runs")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "dtx", "__init__.py")):
        print(f"perfbench: no dtx sources under {SRC}; run from a dtx checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dtx

    if not os.path.abspath(dtx.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported dtx from {dtx.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import gate
    import layers

    errors = gate.self_test()
    if args.self_test or errors:
        for e in errors:
            print(f"gate self-test FAILED: {e}", file=sys.stderr)
        if not errors:
            print("gate self-test passed: rejects a duplicate version claim and tampered values")
        return 1 if errors else 0

    # A SIGTERM unwinds through the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wl = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git": git_revision(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "backend": wl.get("backend", "simulator (memory)"),
        "keys": wl["key_count"], "read_fraction": wl["read_fraction"],
        "clients": "closed loop, one transaction in flight per client",
    }
    print("# dtx perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))
    rep = Report()
    t0 = time.perf_counter()
    try:
        (sim_report if wl["kind"] == "sim" else sock_report)(args.workload, args, rep)
    except (OSError, RuntimeError, statistics.StatisticsError, ZeroDivisionError) as exc:
        # e.g. a cluster that never came up, or a window in which nothing committed
        print(f"perfbench: run failed: {exc!r}", file=sys.stderr)
        return 2

    print("end-to-end:")
    failed_frac = rep.failed / rep.attempted if rep.attempted else 1.0
    rep.metric("failed_frac", failed_frac, "ratio", f"{rep.failed} of {rep.attempted} attempted")
    print("\n".join(rep.lines))
    names = {**layers.per_layer_names("sim"), **layers.per_layer_names("sock")}
    if rep.layers:
        print("per-layer (traced run):")
        for name, value in rep.layers.items():
            unit, _, moves = names[name]
            print(f"  {name} = {value:.6g} {unit}  [moves {moves}]")
    for f in rep.flags:
        print(f"FLAG: {f}")
    correct = not rep.problems and rep.attempted > 0
    for prob in rep.problems:
        print(f"GATE FAILED: {prob}")
    print(f"gate: {'passed' if correct else 'FAILED'}; run took {time.perf_counter() - t0:.1f} s")

    if args.trace:
        metrics = {n: {"value": v, "unit": names[n][0]} for n, v in rep.layers.items()}
    else:
        metrics = rep.e2e
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"meta": meta, "correct": correct, "attempted": rep.attempted,
                   "failed": rep.failed, "problems": rep.problems, "flags": rep.flags,
                   "metrics": metrics, "lines": rep.lines}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": rep.attempted, "failed": rep.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
