"""perfbench's loopback harness (perfbench/sockbench.py) drives the socket
client through `connect_client`, `BlockingClient._run` and
`driver.close()` by name.  This runs it end to end as a traced one-second
`file-sync` run: three server processes, two client threads, an untraced
window and a traced one, and the gate's read-back after each."""

import pathlib

from dtx.workload import WorkloadSpec

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_socket_harness_runs_a_traced_window_without_a_failure(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # sockbench imports gate and layers by name
    import sockbench

    spec = WorkloadSpec(key_count=10_000, read_fraction=0.75, clients=sockbench.CLIENTS, seed=1,
                        duration=1.0)
    run = sockbench.run(spec, "file-sync", 1.0, True, str(tmp_path))
    assert run.problems == []
    assert len(run.windows) == 2  # untraced, then traced
    for w in run.windows:
        assert w.problems == [] and w.failures == []
        assert w.commits > 0
        assert sum(1 for r in w.history if not r["ok"]) == 0  # perfbench's `failed`
