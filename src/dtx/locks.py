"""Per-server exclusive key locks, granted whole or refused at once.

Only the keys a transaction writes are locked, and only by the write
slices of its two-phase commit (server.py); the keys it only reads are
validated after the locks are held, with no lock.  A request names every
written key of one slice.  If no key of it is held, every key is granted
in one step; if any is, the request is refused with EXCLUSIVE_DENIED and
holds nothing.  No request ever waits, so no transaction waits while it
holds a lock and no deadlock can form; a refused writer backs off at its
client (client.py).

The table keeps no memory of aborted transactions: the server's
participant record in Abort drops a late prepare before it reaches the
table, and record_abort only releases the locks an aborted slice holds.

The table is single-threaded: it runs on the server's protocol thread.
"""

from __future__ import annotations

import enum

from .model import TranxID


class RejectReason(enum.Enum):
    EXCLUSIVE_DENIED = "exclusive-denied"  # write lock refused: key exclusively held


class LockTable:
    def __init__(self) -> None:
        self._owner: dict[bytes, TranxID] = {}  # held key -> its holder
        self._held: dict[TranxID, list[bytes]] = {}  # keys of each granted transaction
        self.trace = None  # optional callable(event, **info)

    def acquire_for_prepare(self, tranx: TranxID, shared_keys, exclusive_keys, on_result) -> None:
        """Lock a slice's written keys whole, or refuse it holding nothing;
        on_result(granted, reason) runs before this returns.  Locks are
        exclusive only, so shared_keys must be empty."""
        if shared_keys:
            raise ValueError("locks are exclusive only")
        # a second grant would overwrite the first one's key list
        assert tranx not in self._held, f"second acquire for {tranx}"
        keys = sorted(set(exclusive_keys))
        owner = self._owner
        if any(k in owner for k in keys):
            on_result(False, RejectReason.EXCLUSIVE_DENIED)
            return
        for key in keys:
            owner[key] = tranx
            if self.trace is not None:
                self.trace("lock.grant", tranx=tranx, key=key, exclusive=True)
        self._held[tranx] = keys
        on_result(True, None)

    def release_all(self, tranx: TranxID) -> None:
        """Idempotent: release every lock tranx holds."""
        for key in self._held.pop(tranx, ()):
            del self._owner[key]
            if self.trace is not None:
                self.trace("lock.release", tranx=tranx, key=key)

    def record_abort(self, tranx: TranxID) -> None:
        """A locally processed abort: drop the locks the slice holds."""
        self.release_all(tranx)

    # -- introspection ---------------------------------------------------------

    def exclusively_held(self, key: bytes) -> bool:
        """True while a transaction holds the key's lock."""
        return key in self._owner

    def held_by(self, tranx: TranxID) -> set[bytes]:
        return set(self._held.get(tranx, ()))

    def entries(self) -> int:
        """Keys with a holder."""
        return len(self._owner)

    def is_idle(self) -> bool:
        return not self._owner

    def stats(self) -> dict:
        return {"held_locks": len(self._owner)}

    def audit(self) -> None:
        """Structural invariants; raises AssertionError when violated."""
        for key, t in self._owner.items():
            assert key in self._held.get(t, ()), f"{t} holds {key!r} unrecorded"
        for t, keys in self._held.items():
            assert all(self._owner.get(k) == t for k in keys), f"{t} records a key it lacks"
