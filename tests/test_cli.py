"""CLI: scenario parsing, sim verdicts, dump tools, bench CSV shape."""

import os
import struct
import zlib

import pytest

from dtx.cli import _parse_scenario, main, run_scenario
from dtx.env import DiskEnv
from dtx.gc import GCLOG_NAME, GcLog
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


@pytest.mark.parametrize(
    "text",
    ["servers = 0\n", "crash = 7 0.1 0.1\n", "crash = -1 0.1 0.1\n", "partition = 0|5 0.5 0.3\n",
     "servers = 2\npartition = 2|0,1 0.5 0.3\n"],
    ids=["no-servers", "crash-past-the-last-server", "crash-negative-id", "partition-past-the-last-server",
         "partition-past-a-smaller-cluster"],
)
def test_a_scenario_names_only_servers_it_has(text, tmp_path, capsys):
    with pytest.raises(ConfigError):
        _parse_scenario(text)
    path = tmp_path / "bad.scenario"
    path.write_text(text)
    assert main(["sim", "--scenario", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_bench_and_sim_report_config_errors(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("duration = ten\n")
    assert main(["bench", "--spec", str(path), "--csv", str(tmp_path / "o.csv")]) == 2
    assert main(["sim", "--scenario", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("member", ["x 127.0.0.1:7000", "0 127.0.0.1:port"], ids=["id", "port"])
def test_server_reports_a_bad_member_as_a_config_error(member, tmp_path, capsys):
    path = tmp_path / "bad.cluster"
    path.write_text(f"member = {member}\ndata_dir = {tmp_path}\n")
    assert main(["server", "--config", str(path), "--id", "0"]) == 2
    assert "config error:" in capsys.readouterr().err


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


SHAPE = "servers = 3\nclients = 4\nkey_count = 8\nread_fraction = 0.50\nduration = 2.0\n"
# reads miss the cache, so most read-only transactions read in group rounds
COLD_SHAPE = "servers = 3\nclients = 4\nkey_count = 10000\nread_fraction = 0.95\nduration = 2.0\n"
FAULT_SCENARIOS = {
    # duplicated and delayed messages: a coordinator must not announce Abort
    # for a transaction it committed when a committed owner repeats READY
    "dup": (SHAPE, "dup = 0.05\ndelay = 0.05\n"),
    # a participant restarted with two in-doubt slices on one key must boot
    "crash": (SHAPE, "crash = 1 0.7 0.2\n"),
    # loss and a partition: validation READs go unanswered and are resent
    "loss": (SHAPE, "drop = 0.05\npartition = 0|1,2 0.5 0.3\n"),
    # group READs and notices lost and duplicated: owners answer unvalidated
    "cold-drop-dup": (COLD_SHAPE, "drop = 0.05\ndup = 0.05\ndelay = 0.05\n"),
}


def test_fault_scenarios_pass_every_verdict_at_seeds_0_to_4():
    """A fixed-seed sweep of the fault scenarios on 3 servers and 4 clients
    for 2 s, on 8 keys at half reads or, cold, 10,000 keys at 95% reads:
    every run finishes and passes all five verdicts."""
    failed = []
    for name, (shape, faults) in sorted(FAULT_SCENARIOS.items()):
        sc = _parse_scenario(shape + faults)
        for seed in range(5):
            try:
                verdicts, _, history = run_scenario(sc, seed)
            except Exception as e:  # a crashed run is a failure to report, like a verdict
                failed.append((name, seed, repr(e)))
                continue
            assert history, (name, seed)
            failed += [(name, seed, v, detail) for v, ok, detail in verdicts if not ok]
    assert failed == []


def test_log_dump_prints_the_gclog_and_flags_a_wrecked_one(tmp_path, capsys):
    root = str(tmp_path)
    env = DiskEnv(root)
    gclog = GcLog(env, [0, 1, 2])
    gclog.write({0: 5, 1: 7, 2: 0})
    gclog.close()
    assert main(["log-dump", "--dir", root]) == 0
    out = capsys.readouterr().out
    assert "== gclog" in out and "generation=1 epoch=0" in out
    assert "watermark server=1 seq=7" in out and "(empty log)" in out

    path = os.path.join(root, GCLOG_NAME)
    with open(path, "r+b") as f:  # both halves fail their checksum
        f.write(b"\xff" * os.path.getsize(path))
    assert main(["log-dump", "--dir", root]) == 2
    out = capsys.readouterr().out
    assert "CORRUPT: gclog" in out and "generation=" not in out
    with open(path, "r+b") as f:  # a length no member count gives
        f.truncate(7)
    assert main(["log-dump", "--dir", root]) == 2
    assert "CORRUPT: gclog is 7 B" in capsys.readouterr().out
    assert os.path.getsize(path) == 7  # the dump changed nothing


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


def test_log_dump_flags_a_record_it_cannot_decode(tmp_path, capsys):
    """Kinds 1, 3 and 6, the retired prepare and abort records, no longer
    decode: each is reported as corrupt and the dump exits 2, and the
    records around them still print."""
    root = str(tmp_path)
    log = TranxLog(DiskEnv(root), 1 << 20)
    log.append(CoordCommit(TranxID(0, 1)), durable=True)
    tranx = "01000000" "0200000000000000"  # TranxID(1, 2)
    log.manager.append(bytes.fromhex("01" + tranx + "00" "00000000"))
    log.manager.append(bytes.fromhex("03" + tranx + "00"))
    log.manager.append(bytes.fromhex("06" + tranx))
    log.append(CoordCommit(TranxID(0, 3)), durable=True)
    assert main(["log-dump", "--dir", root]) == 2
    out = capsys.readouterr().out
    assert out.count("CORRUPT: undecodable record") == 3
    for kind in (1, 3, 6):
        assert f"unknown record kind {kind}" in out
    assert out.count("CoordCommit") == 2


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
