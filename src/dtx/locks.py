"""Per-server key lock table with asymmetric deadlock avoidance.

Rules, applied per request:
  * shared request against an exclusively locked key  -> reject immediately
  * exclusive request against an exclusively locked key -> reject immediately
  * exclusive request against a shared-locked key -> wait up to
    LOCK_WAIT (50 ms) for the holders to release
Every acquire therefore resolves within one deadline, so no wait-for
graph is needed.  A request is all-or-nothing: rejection releases every
lock it had taken.

The table keeps no memory of aborted transactions: the server's
participant record in Abort drops a late prepare before it reaches the
table, and record_abort only cancels a waiting acquire or releases the
locks an aborted slice holds.

The table is single-threaded by contract (it runs on the server's protocol
thread); deadline expiry arrives as a timer callback on the same thread.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from .model import TranxID

LOCK_WAIT = 0.050  # seconds an exclusive request waits for shared holders


class RejectReason(enum.Enum):
    SHARED_DENIED = "shared-denied"  # read lock refused: key exclusively held
    EXCLUSIVE_DENIED = "exclusive-denied"  # write lock refused: key exclusively held
    WAIT_TIMEOUT = "wait-timeout"  # write lock refused: shared holders outlasted wait
    ALREADY_ABORTED = "already-aborted"  # the abort was processed while the acquire waited


@dataclass
class _Entry:
    holders: set[TranxID] = field(default_factory=set)
    exclusive: bool = False
    waiters: deque = field(default_factory=deque)  # _Request objects, FIFO

    @property
    def free(self) -> bool:
        return not self.holders


@dataclass
class _Request:
    tranx: TranxID
    plan: list[tuple[bytes, bool]]  # (key, exclusive) in sorted key order
    on_result: object  # callable(granted: bool, reason: RejectReason | None)
    pos: int = 0
    held: list[bytes] = field(default_factory=list)
    timer: object = None
    waiting_on: bytes | None = None
    done: bool = False


class LockTable:
    def __init__(self, set_timer, cancel_timer):
        self._set_timer = set_timer
        self._cancel_timer = cancel_timer
        self._entries: dict[bytes, _Entry] = {}
        self._holdings: dict[TranxID, set[bytes]] = {}
        self._pending: dict[TranxID, _Request] = {}
        self.trace = None  # optional callable(event, **info)

    # -- acquisition ------------------------------------------------------

    def acquire_for_prepare(self, tranx: TranxID, shared_keys, exclusive_keys, on_result) -> None:
        """Atomically acquire all locks for a prepare; result via callback.

        The callback may fire synchronously (immediate grant/reject) or
        later from a lock release or deadline timer.
        """
        shared_keys, exclusive_keys = set(shared_keys), set(exclusive_keys)
        if shared_keys & exclusive_keys:
            raise ValueError("shared and exclusive key sets overlap")
        assert tranx not in self._pending, f"concurrent acquire for {tranx}"
        plan = sorted([(k, False) for k in shared_keys] + [(k, True) for k in exclusive_keys])
        req = _Request(tranx, plan, on_result)
        self._pending[tranx] = req
        self._advance(req)

    def _advance(self, req: _Request) -> None:
        while req.pos < len(req.plan):
            key, exclusive = req.plan[req.pos]
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry()
                self._entries[key] = entry
            if entry.free:
                self._grant_key(req, key, exclusive)
            elif not exclusive:
                if entry.exclusive:
                    self._finish(req, False, RejectReason.SHARED_DENIED)
                    return
                self._grant_key(req, key, False)
            else:
                if entry.exclusive:
                    self._finish(req, False, RejectReason.EXCLUSIVE_DENIED)
                    return
                # exclusive vs shared: queue and (once per request) arm the deadline
                entry.waiters.append(req)
                req.waiting_on = key
                if req.timer is None:
                    req.timer = self._set_timer(LOCK_WAIT, lambda r=req: self._on_deadline(r))
                return
            req.pos += 1
        self._finish(req, True, None)

    def _grant_key(self, req: _Request, key: bytes, exclusive: bool) -> None:
        entry = self._entries[key]
        entry.holders.add(req.tranx)
        entry.exclusive = exclusive
        req.held.append(key)
        self._holdings.setdefault(req.tranx, set()).add(key)
        if self.trace is not None:
            self.trace("lock.grant", tranx=req.tranx, key=key, exclusive=exclusive)

    def _finish(self, req: _Request, granted: bool, reason) -> None:
        if req.done:
            return
        req.done = True
        self._pending.pop(req.tranx, None)
        if req.timer is not None:
            self._cancel_timer(req.timer)
            req.timer = None
        if not granted:
            self._rollback(req)
        req.on_result(granted, reason)

    def _rollback(self, req: _Request) -> None:
        if req.waiting_on is not None:
            entry = self._entries.get(req.waiting_on)
            if entry is not None and req in entry.waiters:
                entry.waiters.remove(req)
            req.waiting_on = None
        for key in req.held:
            self._release_key(req.tranx, key)
        req.held = []

    def _on_deadline(self, req: _Request) -> None:
        if req.done:
            return
        req.timer = None
        self._finish(req, False, RejectReason.WAIT_TIMEOUT)

    # -- release ------------------------------------------------------------

    def release_all(self, tranx: TranxID) -> None:
        """Idempotent: releases every lock held by tranx, waking waiters."""
        req = self._pending.get(tranx)
        if req is not None:
            # caller decided the transaction's fate while its acquire was
            # still waiting; cancel it
            self._finish(req, False, RejectReason.ALREADY_ABORTED)
            return
        # in key order, so waiters wake in the same order in every process
        for key in sorted(self._holdings.get(tranx, ())):
            self._release_key(tranx, key)
        self._holdings.pop(tranx, None)

    def _release_key(self, tranx: TranxID, key: bytes) -> None:
        entry = self._entries.get(key)
        if entry is None or tranx not in entry.holders:
            return
        entry.holders.discard(tranx)
        if self.trace is not None:
            self.trace("lock.release", tranx=tranx, key=key)
        held = self._holdings.get(tranx)
        if held is not None:
            held.discard(key)
            if not held:
                self._holdings.pop(tranx, None)
        if entry.free:
            entry.exclusive = False
            self._wake_waiters(key, entry)
        if entry.free and not entry.waiters:
            self._entries.pop(key, None)

    def _wake_waiters(self, key: bytes, entry: _Entry) -> None:
        while entry.free and entry.waiters:
            req = entry.waiters.popleft()
            if req.done:
                continue
            req.waiting_on = None
            self._grant_key(req, key, True)
            req.pos += 1
            self._advance(req)

    # -- abort bookkeeping ---------------------------------------------------

    def record_abort(self, tranx: TranxID) -> None:
        """A locally processed abort: cancel a waiting acquire, or drop the
        locks the slice holds."""
        self.release_all(tranx)

    # -- introspection ---------------------------------------------------------

    def exclusively_held(self, key: bytes) -> bool:
        """True while a transaction holds the key's exclusive lock."""
        entry = self._entries.get(key)
        return entry is not None and entry.exclusive

    def holders_of(self, key: bytes):
        entry = self._entries.get(key)
        return set(entry.holders) if entry else set()

    def held_by(self, tranx: TranxID) -> set[bytes]:
        return set(self._holdings.get(tranx, ()))

    def entries(self) -> int:
        """Keys with a lock entry: held, waited on, or kept by their waiters."""
        return len(self._entries)

    def is_idle(self) -> bool:
        return not any(e.holders or e.waiters for e in self._entries.values()) and not self._pending

    def stats(self) -> dict:
        return {
            "held_locks": sum(len(e.holders) for e in self._entries.values()),
            "waiters": sum(len(e.waiters) for e in self._entries.values()),
        }

    def audit(self) -> None:
        """Structural invariants; raises AssertionError when violated."""
        for key, entry in self._entries.items():
            if entry.exclusive:
                assert len(entry.holders) <= 1, f"co-holders on exclusive {key!r}"
            for t in entry.holders:
                assert key in self._holdings.get(t, set())
