"""Cluster/workload configuration files and the benchmark transaction mix.

Both file kinds use the same plain-text format: one `key = value` pair per
line, `#` comments, blank lines ignored.  The repeatable key (member)
accumulates in order; member order defines server ids.  Both reject
unknown keys and numbers that do not parse.

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
from collections.abc import Callable
from dataclasses import dataclass

from . import client as cl
from .model import Transaction, owner_of, part_ready_size
from .wal import MAX_ENTRY

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


def check_keys(kv: dict, allowed, what: str) -> None:
    unknown = sorted(set(kv) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {unknown}")


def read_number(kv: dict, key: str, kind, default):
    raw = _single(kv, key)
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: {raw!r} is not a {kind.__name__}") from None


def parse_addr(addr: str) -> tuple[str, int]:
    """(host, port) of a member's host:port address."""
    host, _, port = addr.rpartition(":")
    if not host or not port.isdecimal() or not 0 < int(port) < 65536:
        raise ConfigError(f"member address {addr!r} is not host:port with a port 1..65535")
    return host, int(port)


@dataclass
class ClusterConfig:
    members: list[tuple[int, str]]  # (server id, host:port), order defines ids
    data_dir: str = "data"
    gc_period: float = 0.100
    backend: str = "mapped-flush"  # or "file-sync"
    protocol_core: int | None = None  # pin the protocol thread to this core

    KEYS = ("member", "data_dir", "gc_period", "backend", "protocol_core")

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigError("cluster config needs at least one member")
        ids = [sid for sid, _ in self.members]
        if ids != list(range(len(ids))):
            raise ConfigError(f"member ids must be 0..n-1 in order, got {ids}")
        for _, addr in self.members:
            parse_addr(addr)
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
        check_keys(kv, cls.KEYS, "cluster config")
        members = []
        for m in kv.get("member", []):
            parts = m.split()
            if len(parts) != 2 or not parts[0].isdecimal():
                raise ConfigError(f"member entry {m!r}: expected '<id> <host:port>'")
            members.append((int(parts[0]), parts[1]))
        return cls(
            members=members,
            data_dir=_single(kv, "data_dir", "data"),
            gc_period=read_number(kv, "gc_period", float, 0.1),
            backend=_single(kv, "backend", "mapped-flush"),
            protocol_core=read_number(kv, "protocol_core", int, None),
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

    KEYS = ("key_count", "value_size", "read_fraction", "duration", "clients", "seed")

    def __post_init__(self) -> None:
        if self.read_fraction not in READ_FRACTION_PRESETS:
            raise ConfigError(
                f"read_fraction {self.read_fraction} not in presets {READ_FRACTION_PRESETS}"
            )
        if self.key_count < 1 or self.value_size < 1 or self.clients < 1:
            raise ConfigError("key_count, value_size, and clients must be positive")
        if _insert_size(key_bytes(self.key_count), self.value_size) > MAX_ENTRY:
            raise ConfigError(
                f"value_size {self.value_size}: a one-key write does not fit one log entry"
                f" of {MAX_ENTRY} bytes"
            )

    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        kv = parse_kv_file(text)
        check_keys(kv, cls.KEYS, "workload spec")
        return cls(
            key_count=read_number(kv, "key_count", int, 100_000),
            value_size=read_number(kv, "value_size", int, 100),
            read_fraction=read_number(kv, "read_fraction", float, 0.95),
            duration=read_number(kv, "duration", float, 10.0),
            clients=read_number(kv, "clients", int, 4),
            seed=read_number(kv, "seed", int, 1),
        )

    @classmethod
    def load(cls, path: str) -> "WorkloadSpec":
        with open(path, encoding="utf-8") as f:
            return cls.parse(f.read())


def key_bytes(i: int) -> bytes:
    return str(i).encode()


def random_value(rng: random.Random, size: int) -> bytes:
    return rng.randbytes(size)


def load_values(seed: int, size: int) -> Callable[[bytes], bytes]:
    """The loaded value of each key: a function key -> `size` bytes.

    A key's value is (crc32(key) + 1) * m mod 2**(8 * size), little-endian,
    for one odd m drawn from `seed`.  So every process, retry and reload
    derives the same bytes, and from 5 bytes up keys with distinct crc32s
    get distinct values, because an odd m is invertible.
    """
    mask = (1 << (8 * size)) - 1
    mult = random.Random(seed).getrandbits(8 * size) | 1

    def value_for(key: bytes) -> bytes:
        return (((zlib.crc32(key) + 1) * mult) & mask).to_bytes(size, "little")

    return value_for


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
            h = cl.TxnHandle(read_only=not writes)
            started = clock() if clock else None
            yield from cl.txn_read_many(cs, h, sorted(keys))
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


def _insert_size(key: bytes, value_size: int) -> int:
    """Log bytes of a one-key insert: the key read at version 0, then
    written; a value's bytes add to the size one for one."""
    return part_ready_size(Transaction(((key, 0),), ((key, b""),))) + value_size


def _insert_batches(keys: list[bytes], value_size: int):
    """Runs of consecutive keys, each as long as inserting every key of it
    logs a PartReady that fits one WAL entry."""
    empty = part_ready_size(Transaction((), ()))
    batch, size = [], empty
    for k in keys:
        cost = _insert_size(k, value_size) - empty
        if batch and size + cost > MAX_ENTRY:
            yield batch
            batch, size = [], empty
        batch.append(k)
        size += cost
    if batch:
        yield batch


def load_script(keys: list[bytes], spec: WorkloadSpec, seed: int):
    """Generator inserting the given keys, idempotently, in owner batches.

    Reads each batch first, in one round (one READ for a batch of one
    owner's keys, as owner_batches groups them), and writes only the
    missing keys, so a reload leaves existing keys at version 1.  Values
    come from `load_values`, so retries and reloads produce identical
    bytes.  Each batch is as long as its insert transaction's PartReady
    fits one WAL entry.
    """
    value_for = load_values(seed, spec.value_size)

    def gen(cs: cl.ClientState):
        inserted = 0
        skipped = 0
        failures = 0
        for chunk in _insert_batches(keys, spec.value_size):
            h = cl.TxnHandle()
            values = yield from cl.txn_read_many(cs, h, chunk)
            for k, existing in zip(chunk, values):
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
    out: dict[int, list[bytes]] = {sid: [] for sid in members}
    for i in range(1, key_count + 1):
        k = key_bytes(i)
        out[owner_of(k, members)].append(k)
    return out
