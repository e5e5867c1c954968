"""Cluster/workload configuration files and the benchmark transaction mix.

Both file kinds use the same plain-text format: one `key = value` pair per
line, `#` comments, blank lines ignored.  The repeatable key (member)
accumulates in order; member order defines server ids.  A cluster file
rejects unknown keys; a workload spec ignores them.

Workload shape: transactions touch a uniform 1..3 distinct keys; a read
transaction reads all of them; an update transaction additionally writes
exactly one of them with a fresh random value of the configured size
(default 100 bytes).  Read fraction comes from the preset list
{0.50, 0.75, 0.95, 1.00}.  Everything is driven by a seeded RNG, so a
spec + seed pins the exact request sequence.
"""

from __future__ import annotations

import os
import random
import zlib
from dataclasses import dataclass

from . import client as cl

READ_FRACTION_PRESETS = (0.50, 0.75, 0.95, 1.00)


class ConfigError(Exception):
    pass


def parse_kv_file(text: str) -> dict[str, list[str]]:
    """Returns key -> list of values (repeatable keys keep order)."""
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out.setdefault(key.strip(), []).append(value.strip())
    return out


def _single(kv: dict, key: str, default=None, required: bool = False) -> str | None:
    vals = kv.get(key)
    if not vals:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    if len(vals) > 1:
        raise ConfigError(f"key {key!r} given {len(vals)} times, expected once")
    return vals[0]


def _number(kv: dict, key: str, kind, default):
    raw = _single(kv, key)
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: {raw!r} is not a {kind.__name__}") from None


@dataclass
class ClusterConfig:
    members: list[tuple[int, str]]  # (server id, host:port), order defines ids
    data_dir: str = "data"
    wal_file_capacity: int = 1 << 20
    gc_period: float = 0.100
    lock_wait: float = 0.050
    backend: str = "mapped-flush"  # or "file-sync"
    protocol_core: int | None = None  # pin the protocol thread to this core

    KEYS = ("member", "data_dir", "wal_file_capacity", "gc_period", "lock_wait", "backend",
            "protocol_core")

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigError("cluster config needs at least one member")
        ids = [sid for sid, _ in self.members]
        if ids != list(range(len(ids))):
            raise ConfigError(f"member ids must be 0..n-1 in order, got {ids}")
        if self.backend not in ("mapped-flush", "file-sync"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        cores = os.cpu_count() or 1
        if self.protocol_core is not None and not 0 <= self.protocol_core < cores:
            raise ConfigError(f"protocol_core {self.protocol_core} is not a core 0..{cores - 1}")

    @property
    def member_ids(self) -> list[int]:
        return [sid for sid, _ in self.members]

    def address_of(self, sid: int) -> str:
        return dict(self.members)[sid]

    @classmethod
    def parse(cls, text: str) -> "ClusterConfig":
        kv = parse_kv_file(text)
        unknown = sorted(set(kv) - set(cls.KEYS))
        if unknown:
            raise ConfigError(f"unknown cluster config key(s) {unknown}")
        members = []
        for i, m in enumerate(kv.get("member", [])):
            parts = m.split()
            if len(parts) != 2:
                raise ConfigError(f"member entry {m!r}: expected '<id> <host:port>'")
            sid = int(parts[0])
            if sid != i:
                raise ConfigError(f"member ids must appear in order; got {sid} at position {i}")
            members.append((sid, parts[1]))
        return cls(
            members=members,
            data_dir=_single(kv, "data_dir", "data"),
            wal_file_capacity=_number(kv, "wal_file_capacity", int, 1 << 20),
            gc_period=_number(kv, "gc_period", float, 0.1),
            lock_wait=_number(kv, "lock_wait", float, 0.05),
            backend=_single(kv, "backend", "mapped-flush"),
            protocol_core=_number(kv, "protocol_core", int, None),
        )

    @classmethod
    def load(cls, path: str) -> "ClusterConfig":
        with open(path, encoding="utf-8") as f:
            return cls.parse(f.read())


@dataclass
class WorkloadSpec:
    key_count: int = 100_000
    value_size: int = 100
    read_fraction: float = 0.95
    duration: float = 10.0
    clients: int = 4
    seed: int = 1

    def __post_init__(self) -> None:
        if self.read_fraction not in READ_FRACTION_PRESETS:
            raise ConfigError(
                f"read_fraction {self.read_fraction} not in presets {READ_FRACTION_PRESETS}"
            )
        if self.key_count < 1 or self.value_size < 1 or self.clients < 1:
            raise ConfigError("key_count, value_size, and clients must be positive")

    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        kv = parse_kv_file(text)
        return cls(
            key_count=int(_single(kv, "key_count", "100000")),
            value_size=int(_single(kv, "value_size", "100")),
            read_fraction=float(_single(kv, "read_fraction", "0.95")),
            duration=float(_single(kv, "duration", "10")),
            clients=int(_single(kv, "clients", "4")),
            seed=int(_single(kv, "seed", "1")),
        )

    @classmethod
    def load(cls, path: str) -> "WorkloadSpec":
        with open(path, encoding="utf-8") as f:
            return cls.parse(f.read())


def key_bytes(i: int) -> bytes:
    return str(i).encode()


def random_value(rng: random.Random, size: int) -> bytes:
    return rng.randbytes(size)


def pick_txn(rng: random.Random, spec: WorkloadSpec) -> tuple[list[bytes], dict[bytes, bytes]]:
    """One transaction from the mix: (keys to read, writes to apply)."""
    n = rng.randint(1, 3)
    keys = [key_bytes(k) for k in rng.sample(range(1, spec.key_count + 1), min(n, spec.key_count))]
    writes: dict[bytes, bytes] = {}
    if rng.random() >= spec.read_fraction:
        writes[rng.choice(keys)] = random_value(rng, spec.value_size)
    return keys, writes


def txn_script(spec: WorkloadSpec, clock=None):
    """ClosedLoopDriver script factory: one generator per transaction.

    The returned record carries timing (when a clock callable is given),
    the final read/write sets, and the outcome — everything the oracles
    and the benchmark accounting need.
    """

    def factory(cs: cl.ClientState):
        def gen():
            keys, writes = pick_txn(cs.rng, spec)
            h = cl.TxnHandle()
            started = clock() if clock else None
            for k in sorted(keys):
                yield from cl.txn_read(cs, h, k)
            for k, v in writes.items():
                cl.txn_write(h, k, v)
            ok, reason = yield from cl.txn_commit(cs, h)
            return {
                "ok": ok,
                "reason": reason.value if reason else None,
                "reads": {k: ver for k, (_, ver) in h.reads.items()},
                "writes": dict(h.writes),
                "attempts": h.attempts,
                "started": started,
                "finished": clock() if clock else None,
            }

        return gen()

    return factory


def load_script(keys: list[bytes], spec: WorkloadSpec, seed: int, batch: int = 16):
    """Generator inserting the given keys, idempotently, in owner batches.

    Reads each key first and writes only the missing ones, so a reload
    leaves existing keys at version 1.  Values are seeded-random, derived
    from the key so retries and reloads produce identical bytes.  The batch
    size keeps each insert transaction's log records within one WAL block.
    """

    def value_for(key: bytes) -> bytes:
        # crc-derived seed: stable across processes, unlike tuple hashing
        return random_value(random.Random(zlib.crc32(key) ^ seed), spec.value_size)

    def gen(cs: cl.ClientState):
        inserted = 0
        skipped = 0
        failures = 0
        for i in range(0, len(keys), batch):
            chunk = keys[i : i + batch]
            h = cl.TxnHandle()
            for k in chunk:
                existing = yield from cl.txn_read(cs, h, k)
                if existing is None:
                    cl.txn_write(h, k, value_for(k))
                else:
                    skipped += 1
            if not h.writes:
                continue
            ok, _ = yield from cl.txn_commit(cs, h)
            if ok:
                inserted += len(h.writes)
            else:
                failures += 1
        return {"inserted": inserted, "skipped": skipped, "failed_batches": failures}

    return gen


def owner_batches(key_count: int, members: list[int]) -> dict[int, list[bytes]]:
    """Keys 1..key_count grouped by owning server (for parallel loading)."""
    from .server import owner_of

    out: dict[int, list[bytes]] = {sid: [] for sid in members}
    for i in range(1, key_count + 1):
        k = key_bytes(i)
        out[owner_of(k, members)].append(k)
    return out
