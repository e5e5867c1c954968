"""Independent correctness checkers for histories and execution traces.

These deliberately share no code with the protocol implementation: the
serializability checker works purely on client-observed histories (reads
with versions, write sets) by brute-force search over serial orders, and
the audits work purely on the simulator's event trace.

The version discipline makes the search tractable: every committed write
bumps a key's version by exactly one, so the version state after applying
a *set* of transactions is a function of the set alone.  The search is a
DFS over remaining-transaction sets, pruning any transaction whose recorded
read versions do not match the current state, memoizing failed sets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass
class SerCheck:
    ok: bool | None  # None means the search hit its state budget
    order: list[int] | None
    states: int  # states searched; for the graph checker, edges, each copy counted


def check_serializable(
    txns: list[dict],
    initial_versions: dict[bytes, int] | None = None,
    max_states: int = 2_000_000,
) -> SerCheck:
    """Find a serial order of committed transactions consistent with versions.

    Each transaction is {"reads": {key: observed_version}, "writes":
    {key: value}}.  An order is consistent when every read observes the
    key's version at that point and every write bumps it by one.
    """
    versions: dict[bytes, int] = dict(initial_versions or {})
    remaining = set(range(len(txns)))
    failed: set[frozenset] = set()
    order: list[int] = []
    states = 0

    def applicable(i: int) -> bool:
        return all(versions.get(k, 0) == v for k, v in txns[i]["reads"].items())

    def dfs() -> bool | None:
        nonlocal states
        if not remaining:
            return True
        key = frozenset(remaining)
        if key in failed:
            return False
        states += 1
        if states > max_states:
            return None
        for i in sorted(remaining):
            if not applicable(i):
                continue
            remaining.discard(i)
            order.append(i)
            for k in txns[i]["writes"]:
                versions[k] = versions.get(k, 0) + 1
            sub = dfs()
            if sub:
                return True
            for k in txns[i]["writes"]:
                versions[k] -= 1
            order.pop()
            remaining.add(i)
            if sub is None:
                return None
        failed.add(key)
        return False

    result = dfs()
    if result is True:
        return SerCheck(True, list(order), states)
    return SerCheck(result, None, states)


def replay_versions(
    txns: list[dict], order: list[int], initial_versions: dict[bytes, int] | None = None
) -> dict[bytes, tuple[bytes, int]]:
    """Final (value, version) per key after applying txns in the given order."""
    state: dict[bytes, tuple[bytes, int]] = {}
    versions: dict[bytes, int] = dict(initial_versions or {})
    for i in order:
        for k, val in txns[i]["writes"].items():
            versions[k] = versions.get(k, 0) + 1
            state[k] = (val, versions[k])
    return state


def check_serializable_graph(
    txns: list[dict], initial_versions: dict[bytes, int] | None = None
) -> SerCheck:
    """Exact polynomial checker for read-before-write histories.

    Requires every written key to also be in the writer's read set; then the
    write's serial position per key is pinned (it produces read_version + 1)
    and serializability reduces to acyclicity of the precedence graph:
    writer-chain edges per key, plus reader-after-writer and
    reader-before-next-writer edges.  Raises ValueError on a blind write
    (caller should fall back to the brute-force search).
    """
    initial = dict(initial_versions or {})
    n = len(txns)
    writer_of: dict[tuple[bytes, int], int] = {}  # (key, produced version) -> txn
    for i, t in enumerate(txns):
        for k in t["writes"]:
            if k not in t["reads"]:
                raise ValueError("blind write; graph method inapplicable")
            produced = t["reads"][k] + 1
            if (k, produced) in writer_of:
                return SerCheck(False, None, 0)  # two writers claim one version
            writer_of[(k, produced)] = i

    # precedence edges as each transaction's successor list, and in-degrees;
    # an edge found twice is kept twice, which leaves Kahn's order unchanged
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, t in enumerate(txns):
        for k, v in t["reads"].items():
            base = initial.get(k, 0)
            if v < base:
                return SerCheck(False, None, 0)
            if v > base:
                w = writer_of.get((k, v))
                if w is None:
                    return SerCheck(False, None, 0)  # read a version nobody wrote
                if w != i:
                    succ[w].append(i)
                    indeg[i] += 1
            nxt = writer_of.get((k, v + 1))
            if nxt is not None and nxt != i:
                succ[i].append(nxt)
                indeg[nxt] += 1
        for k in t["writes"]:
            prev = writer_of.get((k, t["reads"][k]))
            if prev is not None and prev != i:
                succ[prev].append(i)
                indeg[i] += 1

    # contiguity: writers of key k must produce base+1..base+count exactly
    per_key_counts: dict[bytes, int] = {}
    for (k, _v), _i in writer_of.items():
        per_key_counts[k] = per_key_counts.get(k, 0) + 1
    for k, count in per_key_counts.items():
        base = initial.get(k, 0)
        for v in range(base + 1, base + count + 1):
            if (k, v) not in writer_of:
                return SerCheck(False, None, 0)

    # Kahn topological sort, lowest index first among the ready
    edges = sum(indeg)
    ready = [i for i in range(n) if indeg[i] == 0]  # ascending, so a heap
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != n:
        return SerCheck(False, None, edges)  # cycle
    return SerCheck(True, order, edges)


def check_history(
    txns: list[dict],
    initial_versions: dict[bytes, int] | None = None,
    max_states: int = 2_000_000,
) -> SerCheck:
    """Graph checker when applicable, brute-force search otherwise."""
    try:
        return check_serializable_graph(txns, initial_versions)
    except ValueError:
        return check_serializable(txns, initial_versions, max_states)


# --- trace audits ------------------------------------------------------------


def applied_values(trace) -> set[tuple[bytes, bytes, int]]:
    """Every (key, value, post_version) any server ever applied."""
    out = set()
    for _, _, event, info in trace:
        if event == "part.apply":
            for k, v, post in info["writes"]:
                out.add((k, v, post))
    return out


def decided(trace) -> dict:
    """tranx -> set of decisions the coordinator ever announced ({"Commit"} ...)."""
    out: dict = {}
    for _, _, event, info in trace:
        if event == "coord.state" and info["to"] in ("Commit", "Abort"):
            out.setdefault(info["tranx"], set()).add(info["to"])
    return out


def double_decisions(trace) -> list:
    """Transactions whose coordinator announced both Commit and Abort (must be none)."""
    return [t for t, ds in decided(trace).items() if len(ds) > 1]


def participant_finals(trace) -> dict:
    """tranx -> {sid: last participant state seen}."""
    out: dict = {}
    for _, sid, event, info in trace:
        if event == "part.state" and info["to"] in ("Commit", "Abort", "Ready", "Start"):
            out.setdefault(info["tranx"], {})[sid] = info["to"]
    return out


def atomicity_violations(trace) -> list:
    """Transactions where one participant committed and another aborted."""
    bad = []
    for tranx, finals in participant_finals(trace).items():
        states = set(finals.values())
        if "Commit" in states and "Abort" in states:
            bad.append((tranx, finals))
    return bad


def duplicate_applies(trace) -> list:
    """(sid, tranx) pairs that applied the same transaction twice within one
    node lifetime (recovery replay after a crash is allowed and filtered out
    by resetting at each restart)."""
    seen: dict[int, set] = {}
    bad = []
    for _, sid, event, info in trace:
        if event in ("restart", "crash"):
            seen.pop(sid, None)
        elif event == "part.apply":
            per = seen.setdefault(sid, set())
            if info["tranx"] in per:
                bad.append((sid, info["tranx"]))
            per.add(info["tranx"])
    return bad


def locks_clean(sim) -> list:
    """Servers still holding or waiting on locks after quiesce (must be none)."""
    dirty = []
    for sid, n in sim.nodes.items():
        if n.alive and not n.node.locks.is_idle():
            dirty.append((sid, n.node.locks.stats()))
    return dirty


def two_phase_violations(trace) -> list:
    """Lock acquired for a transaction after that transaction released one.

    Growth phase = everything before the first release; any grant after a
    release for the same (sid, tranx) breaks two-phase locking.  A crash
    wipes a node's lock table, so its released set resets too (recovery
    legitimately re-locks in-doubt transactions).
    """
    released: set = set()
    bad = []
    for _, sid, event, info in trace:
        if event in ("crash", "restart"):
            released = {(s, t) for s, t in released if s != sid}
        elif event == "lock.release":
            released.add((sid, info["tranx"]))
        elif event == "lock.grant" and (sid, info["tranx"]) in released:
            bad.append((sid, info["tranx"]))
    return bad


def resolve_history(history: list[dict], trace) -> list[dict]:
    """Split client history records into definitely-committed transactions.

    A record with "ok" True is committed.  A record whose outcome is unknown
    (no response; reason "unknown") is committed iff a server applied one of
    its written (key, value) pairs — written values are random per attempt,
    so a match identifies the transaction.  Unknown read-only transactions
    have no effects and are dropped.
    """
    applied_pairs = {(k, v) for k, v, _ in applied_values(trace)}
    committed = []
    for rec in history:
        if rec.get("ok"):
            committed.append(rec)
        elif rec.get("reason") in ("unknown", None):
            if any((k, v) in applied_pairs for k, v in rec.get("writes", {}).items()):
                committed.append(rec)
    return committed
