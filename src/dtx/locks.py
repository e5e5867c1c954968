"""Per-server key lock table with asymmetric deadlock avoidance.

A request names all the keys of one prepare, and is checked in key
order.  At its first conflict:
  * shared request against an exclusively locked key  -> reject immediately
  * exclusive request against an exclusively locked key -> reject immediately
  * exclusive request against a shared-locked key -> park, up to LOCK_WAIT
    (50 ms) after it first parked, until the holders release
With no conflict, every key is granted in one step.  A request is granted
whole or holds nothing: a parked request holds no lock, so no transaction
ever waits while holding, and no wait-for graph is needed.  When a key's
last holder leaves, the requests parked on it retry whole, oldest first,
until one of them holds the key; a retry that meets another shared-locked
key parks again on it, within the same deadline.

The table keeps no memory of aborted transactions: the server's
participant record in Abort drops a late prepare before it reaches the
table, and record_abort only cancels a parked request or releases the
locks an aborted slice holds.

The table is single-threaded by contract (it runs on the server's protocol
thread); deadline expiry arrives as a timer callback on the same thread.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .model import TranxID

LOCK_WAIT = 0.050  # seconds an exclusive request waits for shared holders


class RejectReason(enum.Enum):
    SHARED_DENIED = "shared-denied"  # read lock refused: key exclusively held
    EXCLUSIVE_DENIED = "exclusive-denied"  # write lock refused: key exclusively held
    WAIT_TIMEOUT = "wait-timeout"  # write lock refused: shared holders outlasted wait
    ALREADY_ABORTED = "already-aborted"  # the abort was processed while the acquire waited


@dataclass
class _Request:
    tranx: TranxID
    plan: list[tuple[bytes, bool]]  # (key, exclusive) in sorted key order
    on_result: object  # callable(granted: bool, reason: RejectReason | None)
    timer: object = None  # the LOCK_WAIT deadline, armed at the first park
    waiting_on: bytes | None = None


class LockTable:
    def __init__(self, set_timer, cancel_timer):
        self._set_timer = set_timer
        self._cancel_timer = cancel_timer
        self._holders: dict[bytes, set[TranxID]] = {}  # held keys only
        self._exclusive: set[bytes] = set()
        self._held: dict[TranxID, list[bytes]] = {}  # keys of each granted transaction
        self._parked: dict[TranxID, _Request] = {}  # oldest first
        self.trace = None  # optional callable(event, **info)

    # -- acquisition ------------------------------------------------------

    def acquire_for_prepare(self, tranx: TranxID, shared_keys, exclusive_keys, on_result) -> None:
        """Acquire all locks for a prepare at once; result via callback.

        The callback may fire synchronously (immediate grant/reject) or
        later from a lock release or deadline timer.
        """
        shared_keys, exclusive_keys = set(shared_keys), set(exclusive_keys)
        if shared_keys & exclusive_keys:
            raise ValueError("shared and exclusive key sets overlap")
        # a second grant would overwrite the first one's key list
        assert tranx not in self._parked and tranx not in self._held, f"second acquire for {tranx}"
        plan = sorted([(k, False) for k in shared_keys] + [(k, True) for k in exclusive_keys])
        self._try(_Request(tranx, plan, on_result))

    def _try(self, req: _Request) -> None:
        """Grant req whole, refuse it, or park it on its first conflict."""
        for key, exclusive in req.plan:
            if key in self._exclusive:
                why = RejectReason.EXCLUSIVE_DENIED if exclusive else RejectReason.SHARED_DENIED
                self._finish(req, False, why)
                return
            if exclusive and key in self._holders:
                req.waiting_on = key
                if req.timer is None:
                    self._parked[req.tranx] = req
                    req.timer = self._set_timer(LOCK_WAIT, lambda r=req: self._on_deadline(r))
                return
        for key, exclusive in req.plan:
            self._holders.setdefault(key, set()).add(req.tranx)
            if exclusive:
                self._exclusive.add(key)
            if self.trace is not None:
                self.trace("lock.grant", tranx=req.tranx, key=key, exclusive=exclusive)
        self._held[req.tranx] = [key for key, _ in req.plan]
        self._finish(req, True, None)

    def _finish(self, req: _Request, granted: bool, reason) -> None:
        if self._parked.pop(req.tranx, None) is not None and req.timer is not None:
            self._cancel_timer(req.timer)
        req.on_result(granted, reason)

    def _on_deadline(self, req: _Request) -> None:
        req.timer = None
        if self._parked.get(req.tranx) is req:
            self._finish(req, False, RejectReason.WAIT_TIMEOUT)

    # -- release ------------------------------------------------------------

    def release_all(self, tranx: TranxID) -> None:
        """Idempotent: cancels tranx's parked request, or releases every
        lock it holds and retries the requests parked on the freed keys."""
        req = self._parked.get(tranx)
        if req is not None:  # its fate was decided while it waited: cancel it
            self._finish(req, False, RejectReason.ALREADY_ABORTED)
            return
        for key in self._held.pop(tranx, ()):
            holders = self._holders[key]
            holders.discard(tranx)
            if self.trace is not None:
                self.trace("lock.release", tranx=tranx, key=key)
            if not holders:
                del self._holders[key]
                self._exclusive.discard(key)
        # a retry re-parks, refuses or grants, and never frees a key, so one
        # pass serves every freed key; a callback that frees more runs its own
        for req in list(self._parked.values()):
            if self._parked.get(req.tranx) is req and req.waiting_on not in self._holders:
                self._try(req)

    # -- abort bookkeeping ---------------------------------------------------

    def record_abort(self, tranx: TranxID) -> None:
        """A locally processed abort: cancel a parked request, or drop the
        locks the slice holds."""
        self.release_all(tranx)

    # -- introspection ---------------------------------------------------------

    def exclusively_held(self, key: bytes) -> bool:
        """True while a transaction holds the key's exclusive lock."""
        return key in self._exclusive

    def holders_of(self, key: bytes):
        return set(self._holders.get(key, ()))

    def held_by(self, tranx: TranxID) -> set[bytes]:
        return set(self._held.get(tranx, ()))

    def entries(self) -> int:
        """Keys with a holder."""
        return len(self._holders)

    def is_idle(self) -> bool:
        return not self._holders and not self._parked

    def stats(self) -> dict:
        return {"held_locks": sum(map(len, self._holders.values())), "waiters": len(self._parked)}

    def audit(self) -> None:
        """Structural invariants; raises AssertionError when violated."""
        assert self._exclusive <= self._holders.keys(), "exclusive key with no holder"
        for key, holders in self._holders.items():
            assert holders, f"empty holder set for {key!r}"
            assert key not in self._exclusive or len(holders) == 1, f"co-holders on exclusive {key!r}"
            for t in holders:
                assert key in self._held.get(t, ()), f"{t} holds {key!r} unrecorded"
        for t, keys in self._held.items():
            assert all(t in self._holders.get(k, ()) for k in keys), f"{t} records a key it lacks"
        for t, req in self._parked.items():
            assert t not in self._held, f"parked {t} holds {self._held[t]}"
            assert req.waiting_on in self._holders, f"parked {t} waits on a free key"
