"""Correctness gate of every benchmark run.

A run passes when:

* `oracle.check_history` finds a serial order (`ok is True`) for the
  committed history, starting from the preloaded versions;
* the final state equals `oracle.replay_versions` over that order, in
  version and value, for every key the history wrote;
* (simulator) `oracle.locks_clean` holds after the cluster quiesced;
* (sockets) no server process exited before it was told to stop.

The gate is version-level.  It cannot detect a retry that resubmits
writes computed from stale reads (a commit whose written value depends on
a value the client never saw), because the benchmark's transaction mix
writes fresh random values that do not depend on what was read.  A clean
gate here is therefore no evidence that that defect is absent.
"""

from __future__ import annotations

from dtx import oracle


def resolve(history: list[dict], final: dict) -> list[dict]:
    """Committed transactions, plus unknown-outcome ones whose write landed.

    A commit that got no reply may or may not have committed.  Written
    values are random, so one is taken as committed exactly when a key it
    wrote holds its value at the end.
    """
    return [
        rec
        for rec in history
        if rec["ok"]
        or (
            rec["reason"] in ("unknown", None)
            and any(final.get(k, (None,))[0] == v for k, v in rec["writes"].items())
        )
    ]


def check(txns: list[dict], initial_version: int, final: dict) -> list[str]:
    """Problems found in a committed history and the final state ([] = pass).

    Every key starts at `initial_version` (the preload); `final` maps a key
    to its (value, version) at the end of the run.
    """
    initial = {k: initial_version for t in txns for k in (*t["reads"], *t["writes"])}
    ser = oracle.check_history(
        [{"reads": t["reads"], "writes": t["writes"]} for t in txns], initial
    )
    if ser.ok is not True:
        verdict = "inconclusive" if ser.ok is None else "not serializable"
        return [f"serializability: {verdict} over {len(txns)} committed txns"]
    expect = oracle.replay_versions(txns, ser.order, initial)
    wrong = [k for k, entry in expect.items() if final.get(k) != entry]
    if wrong:
        k = wrong[0]
        found = final.get(k)
        what = "missing" if found is None else (
            f"v{found[1]}" if found[1] != expect[k][1] else f"v{found[1]} with another value")
        return [
            f"final state: {len(wrong)} of {len(expect)} written keys differ from the replay, "
            f"e.g. {k!r}: expected v{expect[k][1]}, found {what}"
        ]
    return []


def self_test() -> list[str]:
    """The gate must reject two commits claiming one version and a tampered
    final value, and accept the untampered run.  Returns what went wrong."""
    k = b"key"
    a = {"ok": True, "reason": None, "reads": {k: 1}, "writes": {k: b"a"}}
    b = {"ok": True, "reason": None, "reads": {k: 1}, "writes": {k: b"b"}}
    c = {"ok": True, "reason": None, "reads": {k: 2}, "writes": {k: b"c"}}
    errors = []
    if check([a, c], 1, {k: (b"c", 3)}):
        errors.append("a valid history was rejected")
    if not check([a, b], 1, {k: (b"b", 2)}):
        errors.append("two commits claiming version 2 were accepted")
    if not check([a, c], 1, {k: (b"tampered", 3)}):
        errors.append("a tampered final value was accepted")
    if not check([a, c], 1, {k: (b"c", 4)}):
        errors.append("a tampered final version was accepted")
    return errors
