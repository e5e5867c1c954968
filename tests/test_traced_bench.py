"""The traced benchmark (perfbench/layers.py) wraps dtx functions and
methods by name, so renaming or deleting one of them breaks `--trace 1`
with a KeyError at install time.  This installs the tracer, runs one
two-owner commit under it, and puts the originals back."""

import importlib.util
import pathlib

from conftest import commit_txn, make_sim

from dtx import server

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
