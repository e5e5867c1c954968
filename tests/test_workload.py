"""The loaded value of each key (`workload.load_values`), workload specs, and
what the client library imports."""

import os
import subprocess
import sys

import pytest

from dtx.workload import ConfigError, WorkloadSpec, key_bytes, load_values

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(code: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    return out.stdout.strip()


@pytest.mark.parametrize("size", [1, 100, 4096])
def test_load_value_has_the_requested_size(size):
    value_for = load_values(3, size)
    assert all(len(value_for(key_bytes(i))) == size for i in range(1, 50))


def test_load_value_does_not_depend_on_the_hash_seed():
    code = (
        "from dtx.workload import key_bytes, load_values\n"
        "v = load_values(5, 100)\n"
        "print(b''.join(v(key_bytes(i)) for i in range(1, 100)).hex())\n"
    )
    here = load_values(5, 100)
    expected = b"".join(here(key_bytes(i)) for i in range(1, 100)).hex()
    assert {run_python(code, "1"), run_python(code, "2")} == {expected}


def test_load_values_differ_by_key_and_by_seed():
    keys = [key_bytes(i) for i in range(1, 10_001)]
    one, two = load_values(1, 100), load_values(2, 100)
    assert len({one(k) for k in keys}) == len(keys)
    assert all(one(k) != two(k) for k in keys)
    assert one(keys[0]) == load_values(1, 100)(keys[0])  # a reload writes the same bytes


def test_preload_does_not_import_hashlib():
    """hashlib maps OpenSSL, which adds a few MiB to every benchmark round."""
    code = (
        "import sys\n"
        "from dtx.bench import preload_sim\n"
        "from dtx.sim import Simulator\n"
        "from dtx.workload import WorkloadSpec\n"
        "preload_sim(Simulator([0, 1, 2]), WorkloadSpec(key_count=100), 1)\n"
        "print('_hashlib' in sys.modules)\n"
    )
    assert run_python(code, "0") == "False"


def test_a_value_size_whose_one_key_write_cannot_be_logged_is_a_config_error():
    WorkloadSpec(key_count=64, value_size=4000)  # one 4,000 B key fits a log entry
    with pytest.raises(ConfigError, match="value_size 5000"):
        WorkloadSpec(key_count=64, value_size=5000)


def test_the_client_library_does_not_import_the_server():
    code = (
        "import sys\n"
        "import dtx.client\n"
        "print(sorted(m for m in ('server', 'wal', 'gc', 'locks', 'env') if 'dtx.' + m in sys.modules))\n"
    )
    assert run_python(code, "0") == "[]"
