"""The traced benchmark (perfbench/layers.py) wraps dtx functions and
methods by name, so renaming or deleting one of them breaks `--trace 1`
with a KeyError at install time.  This installs the tracer, runs one
two-owner commit under it, in the simulator and on sockets, and puts the
originals back."""

import importlib.util
import pathlib
import socket
import sys

from conftest import commit_txn, make_sim

from dtx import server
from dtx.nettransport import ServerRuntime, connect_client
from dtx.workload import ClusterConfig

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers():
    return load("perfbench_layers", PERFBENCH / "layers.py")


def test_tracer_installs_over_every_wrapped_name_and_uninstalls():
    layers = load_layers()
    on_message = server.ServerNode.__dict__["on_message"]
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        assert server.ServerNode.__dict__["on_message"] is not on_message
        sim = make_sim(3, seed=1)
        keys = [b"key-0", b"key-1", b"key-2"]
        assert commit_txn(sim, sim.new_client(seed=1), keys, {k: b"t" for k in keys})[0]
        sim.run(0.5)
        spans = tracer.export()["spans"]
    finally:
        tracer.uninstall()
    assert server.ServerNode.__dict__["on_message"] is on_message
    for name in ("server.PREPARE", "server.COMMIT_DECISION", "gc.mark_complete", "gc.tick"):
        assert name in spans, name


def test_tracer_covers_the_socket_runtime_and_server_main_counters(tmp_path, monkeypatch):
    """The names a traced socket run reads: the loop's handler and sends,
    and perfbench/server_main.py's counters of a live runtime."""
    layers = load_layers()
    monkeypatch.setitem(sys.modules, "layers", layers)  # server_main imports it by that name
    server_main = load("perfbench_server_main", PERFBENCH / "server_main.py")
    ports = []
    for _ in range(3):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            ports.append(s.getsockname()[1])
    cfg = ClusterConfig.parse(
        "\n".join([*(f"member = {i} 127.0.0.1:{p}" for i, p in enumerate(ports)), f"data_dir = {tmp_path}"])
    )
    members = list(cfg.member_ids)
    keys = [next(k for k in (b"tr-%d" % i for i in range(256)) if server.owner_of(k, members) == sid)
            for sid in (0, 1)]
    tracer = layers.Tracer()
    runtimes = []
    try:
        layers.install(tracer)
        runtimes = [ServerRuntime(cfg, sid) for sid in members]
        for r in runtimes:
            r.start()
        client = connect_client(cfg, seed=1)
        h = client.open_txn()
        for k in keys:
            client.write(h, k, b"t")
        assert client.commit(h) == (True, None)
        client.driver.close()
        counters = server_main._counters(runtimes[0])
    finally:
        for r in runtimes:
            r.stop()
        spans = tracer.export()["spans"]
        tracer.uninstall()
    assert "stages.handle" in spans and "nettransport.send" in spans
    assert type(counters["stage_backpressure"]) is int
