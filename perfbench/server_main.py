"""Launch one dtx server for the loopback benchmark.

Does what `dtx server --config C --id N` does (build a `ServerRuntime`
and serve), with three additions the benchmark needs:

* `--trace-out PATH` installs the layer tracer before the runtime is
  built.  SIGUSR1 then opens the measurement window (resets the tracer
  and the counters) and SIGUSR2 writes the window's aggregates and
  counters to PATH as JSON; the kept spans go to PATH + ".spans.jsonl"
  when the server stops.
* SIGTERM or SIGINT stops the runtime cleanly and exits 0.
* The server asks the kernel for SIGTERM when its parent dies, so a
  killed benchmark leaves no server behind.

Usage: python3 perfbench/server_main.py --config C --id N [--trace-out P]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402 (needs the path above)

SIGNALS = {signal.SIGTERM, signal.SIGINT, signal.SIGUSR1, signal.SIGUSR2}


def _die_with_parent() -> None:
    parent = os.getppid()
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, int(signal.SIGTERM))  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        return
    if os.getppid() != parent:  # the parent died before the request took effect
        os.kill(os.getpid(), signal.SIGTERM)


def _counters(runtime) -> dict:
    return {
        **layers.server_counters([runtime.node]),
        "stage_backpressure": sum(s.backpressured for s in runtime.stages.stages.values()),
    }


def _dump(path: str, tracer, runtime, baseline: dict) -> None:
    out = {
        "aggregates": tracer.export(),
        "counters": layers.delta(_counters(runtime), baseline),
        "dedup_entries_end": runtime.node.dedup.size(),
        "wal_files_end": runtime.node.tranxlog.file_count(),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(out, f)
    os.replace(tmp, path)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True)
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    # Block the control signals before any thread starts, so every thread
    # inherits the mask and only sigwait below receives them.
    signal.pthread_sigmask(signal.SIG_BLOCK, SIGNALS)
    _die_with_parent()

    from dtx.nettransport import ServerRuntime
    from dtx.workload import ClusterConfig

    tracer = layers.install(layers.Tracer()) if args.trace_out else None
    runtime = ServerRuntime(ClusterConfig.load(args.config), args.id)
    runtime.start()
    baseline = _counters(runtime)
    try:
        while True:
            sig = signal.sigwait(SIGNALS)
            if sig == signal.SIGUSR1 and tracer is not None:
                tracer.reset()
                baseline = _counters(runtime)
            elif sig == signal.SIGUSR2 and tracer is not None:
                _dump(args.trace_out, tracer, runtime, baseline)
            elif sig in (signal.SIGTERM, signal.SIGINT):
                break
    finally:
        runtime.stop()
        if tracer is not None:
            tracer.write_spans(args.trace_out + ".spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
