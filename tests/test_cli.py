"""CLI: scenario parsing, sim verdicts, dump tools, bench CSV shape."""

import struct
import zlib

import pytest

from dtx.cli import _parse_scenario, main, run_scenario
from dtx.env import DiskEnv
from dtx.model import CoordCommit, TranxID
from dtx.wal import TranxLog
from dtx.workload import ConfigError, WorkloadSpec


def test_parse_scenario_defaults_and_fields():
    sc = _parse_scenario(
        """
        servers = 3
        clients = 2
        duration = 1.5
        txns_per_client = 6
        drop = 0.1
        crash = 1 0.5 0.2
        crash = 2 0.8 0.1
        partition = 0|1,2 0.5 0.3
        """
    )
    assert sc["servers"] == 3 and sc["clients"] == 2
    assert sc["duration"] == 1.5 and sc["txns_per_client"] == 6
    assert sc["drop"] == 0.1 and sc["dup"] == 0.0
    assert sc["crashes"] == [(1, 0.5, 0.2), (2, 0.8, 0.1)]
    assert sc["partitions"] == [([0], [1, 2], 0.5, 0.3)]
    # everything has a default
    empty = _parse_scenario("")
    assert empty["servers"] == 3 and empty["txns_per_client"] == 0


@pytest.mark.parametrize("parse", [WorkloadSpec.parse, _parse_scenario], ids=["spec", "scenario"])
@pytest.mark.parametrize(
    "text", ["read_fracton = 0.50\n", "duration = ten\n"], ids=["misspelt-key", "not-a-number"]
)
def test_spec_and_scenario_files_are_strict(parse, text):
    with pytest.raises(ConfigError):
        parse(text)


def test_bench_and_sim_report_config_errors(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("duration = ten\n")
    assert main(["bench", "--spec", str(path), "--csv", str(tmp_path / "o.csv")]) == 2
    assert main(["sim", "--scenario", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_scenario_all_verdicts_pass():
    sc = _parse_scenario("clients = 2\nduration = 1.0\ntxns_per_client = 5\nread_fraction = 0.50")
    verdicts, sim, history = run_scenario(sc, seed=12)
    assert history, "scenario produced no transactions"
    assert {name for name, _, _ in verdicts} == {
        "serializability",
        "atomic-commitment",
        "exactly-once-effects",
        "lock-cleanliness",
        "gc-safety",
    }
    assert all(ok for _, ok, _ in verdicts), verdicts


def test_cmd_sim_exit_codes(tmp_path):
    path = tmp_path / "ok.scenario"
    path.write_text("clients = 2\nduration = 0.5\ntxns_per_client = 4\n")
    trace = tmp_path / "run.trace"
    assert main(["sim", "--scenario", str(path), "--seed", "3", "--trace-out", str(trace)]) == 0
    assert trace.read_text().strip()


def test_a_server_that_crashes_twice_before_its_first_log_file_goes_restarts():
    """Server 1 restarts at 0.7 s and crashes again at 0.8 s, before GC
    reclaims the log file its first incarnation left partly written."""
    sc = _parse_scenario(
        "servers = 3\nclients = 4\nkey_count = 8\nread_fraction = 0.50\nduration = 2.0\n"
        "crash = 1 0.5 0.2\ncrash = 1 0.8 0.1\n"
    )
    verdicts, sim, history = run_scenario(sc, seed=2)
    assert history and sim.crashes >= 2
    assert len(verdicts) == 5 and all(ok for _, ok, _ in verdicts), verdicts


def test_log_dump_prints_records_and_flags_corruption(tmp_path, capsys):
    root = str(tmp_path)
    env = DiskEnv(root)
    log = TranxLog(env, 1 << 20)
    log.append(CoordCommit(TranxID(0, 1), (7, 1)), durable=True)
    log.append(CoordCommit(TranxID(0, 2), None, (0, 1, 2)), durable=True)
    assert main(["log-dump", "--dir", root]) == 0
    out = capsys.readouterr().out
    assert "CoordCommit" in out and "seq=1" in out
    assert "CoordCommit(tranx=TranxID(coordinator=0, seq=2), client=None, participants=(0, 1, 2))" in out

    # corrupt a non-newest block: exit 2 with a CORRUPT line
    import os

    name = log.manager.file_names()[0]
    path = os.path.join(root, "wal", name)
    data = bytearray(open(path, "rb").read())
    data[12] ^= 0xFF
    # write a second file so the corrupted one is no longer newest
    log.append(CoordCommit(TranxID(0, 2)), durable=True)
    for _ in range(600):  # force rotation past the first file
        log.append(CoordCommit(TranxID(0, 3)), durable=True)
    open(path, "wb").write(bytes(data))
    if len(log.manager.file_names()) > 1:
        assert main(["log-dump", "--dir", root]) == 2
        assert "CORRUPT" in capsys.readouterr().out


def test_db_dump_lists_rows_and_detects_bad_checksum(tmp_path, capsys):
    root = str(tmp_path)
    from dtx.storage import FileKvStore

    s = FileKvStore(root)
    s.apply([(b"alpha", b"one", 1), (b"beta", b"two", 1)])
    s.sync()
    s.close()
    assert main(["db-dump", "--dir", root]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "(2 keys)" in out

    path = f"{root}/db/data.log"
    data = bytearray(open(path, "rb").read())
    data[10] ^= 0xFF
    open(path, "wb").write(bytes(data))
    assert main(["db-dump", "--dir", root]) == 2
    assert "CORRUPT" in capsys.readouterr().out


def test_db_dump_empty_dir(tmp_path, capsys):
    assert main(["db-dump", "--dir", str(tmp_path)]) == 0
    assert "(empty database)" in capsys.readouterr().out


def test_bench_sim_mode_writes_csv(tmp_path, capsys):
    spec = tmp_path / "bench.spec"
    spec.write_text(
        "key_count = 32\nread_fraction = 0.75\nduration = 1.0\nclients = 2\n"
    )
    csv_path = tmp_path / "out.csv"
    assert main(["bench", "--spec", str(spec), "--csv", str(csv_path)]) == 0
    import csv

    rows = list(csv.DictReader(open(csv_path, encoding="utf-8")))
    assert rows, "empty benchmark CSV"
    expected = {"second", "committed", "aborted", "p50_ms", "p99_ms", "wal_files", "footprint_files"}
    assert expected <= set(rows[0])
    assert any(int(r["committed"]) > 0 for r in rows)
