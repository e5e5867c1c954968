"""Wire framing, payload codecs, and at-most-once bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from dtx import rpc
from dtx.model import CoordPrepare, Transaction, TranxID, encode_record
from dtx.rpc import (
    AbortReason,
    ClientWindow,
    DedupTable,
    Envelope,
    FrameError,
    MsgType,
)

keys = st.binary(min_size=1, max_size=32)
values = st.binary(max_size=128)
tranx_ids = st.builds(TranxID, st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))
envelopes = st.builds(
    Envelope,
    st.sampled_from(list(MsgType)),
    st.sampled_from([rpc.CLIENT, rpc.SERVER]),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.one_of(st.none(), tranx_ids),
    st.binary(max_size=256),
)


@given(envelopes)
def test_frame_round_trip(env):
    assert rpc.frame_decode(rpc.frame_encode(env)) == env


def test_frame_rejects_bad_version_and_length():
    env = Envelope(MsgType.READ, rpc.CLIENT, 1, 2, None, b"x")
    data = bytearray(rpc.frame_encode(env))
    data[4] = 9
    with pytest.raises(FrameError):
        rpc.frame_decode(bytes(data))
    with pytest.raises(FrameError):
        rpc.frame_decode(rpc.frame_encode(env)[:-1])


@given(keys)
def test_read_codec(k):
    assert rpc.dec_read_req(rpc.enc_read_req(k)) == k


@given(st.one_of(st.none(), st.tuples(values, st.integers(0, 2**64 - 1))), st.booleans())
def test_read_resp_codec(entry, locked):
    assert rpc.dec_read_resp(rpc.enc_read_resp(entry, locked)) == (entry, locked)


@given(
    st.booleans(),
    st.one_of(st.none(), st.sampled_from(list(AbortReason))),
    st.lists(st.tuples(keys, values, st.integers(0, 2**64 - 1)), max_size=4),
)
def test_commit_resp_codec(committed, reason, piggyback):
    got = rpc.dec_commit_resp(rpc.enc_commit_resp(committed, reason, piggyback))
    assert got == (committed, reason, piggyback)


def test_commit_req_codec():
    txn = Transaction(((b"a", 3),), ((b"b", b"val"),))
    assert rpc.dec_txn(rpc.enc_txn(txn)) == txn


def test_prepare_and_vote_codecs():
    sub = Transaction(((b"k", 7),), ((b"k", b"v"),))
    assert rpc.dec_txn(rpc.enc_txn(sub)) == sub
    reason, piggy = rpc.dec_vote_abort(
        rpc.enc_vote_abort(AbortReason.STALE_READ, [(b"k", b"v", 8)])
    )
    assert reason is AbortReason.STALE_READ
    assert piggy == [(b"k", b"v", 8)]


@given(st.integers(0, 2**64 - 1))
def test_gc_lc_codec(lc):
    assert rpc.dec_gc_lc(rpc.enc_gc_lc(lc)) == lc


def test_status_codec():
    for s in ("Commit", "Abort", "Pending"):
        assert rpc.dec_status_resp(rpc.enc_status_resp(s)) == s


def test_prepare_record_and_payload_bytes_are_stable():
    """Golden bytes: the CoordPrepare log record and the PREPARE payload
    keep their format, so logs written before stay readable."""
    a = Transaction(((b"k1", 3), (b"k2", 0)), ((b"k2", b"val"),))
    b = Transaction((), ((b"z", b""),))
    slice_a = (
        "02000000020000006b310300000000000000020000006b32000000000000000001000000"
        "020000006b320300000076616c"
    )
    record = (
        "010100000002010000000000000200000000000000" + slice_a
        + "020000000000000001000000010000007a00000000"
    )
    assert encode_record(CoordPrepare(TranxID(1, 258), ((0, a), (2, b)))).hex() == record
    assert rpc.enc_txn(a).hex() == slice_a


def test_read_answer_and_validate_bytes_are_stable():
    """Golden bytes: the READ answer with its trailing locked byte, a
    client's VALIDATE frame and its answers, and the COMMIT_DECISION and ACK
    frames, which carry their TranxID in the envelope and no payload."""
    assert rpc.enc_read_resp((b"v1", 7), True).hex() == "01" "020000007631" "0700000000000000" "01"
    assert rpc.enc_read_resp(None, False).hex() == "0000"
    reads = Transaction(((b"k1", 3),), ())
    validate = Envelope(MsgType.VALIDATE, rpc.CLIENT, 5, 9, None, rpc.enc_txn(reads))
    assert rpc.frame_encode(validate).hex() == (
        "2a000000" "01" "0c" "00" "0500000000000000" "0900000000000000" "00"
        "01000000" "020000006b31" "0300000000000000" "00000000"
    )
    assert rpc.enc_commit_resp(True, None, []).hex() == "010000000000"
    stale = rpc.enc_commit_resp(False, AbortReason.STALE_READ, [(b"k1", b"v", 4)])
    assert stale.hex() == "000301000000" "020000006b31" "0100000076" "0400000000000000"
    tranx = TranxID(1, 258)
    decision = Envelope(MsgType.COMMIT_DECISION, rpc.SERVER, 1, 3, tranx, b"")
    assert rpc.frame_encode(decision).hex() == (
        "20000000" "01" "05" "01" "0100000000000000" "0300000000000000" "01"
        "01000000" "0201000000000000"
    )
    ack = Envelope(MsgType.ACK, rpc.SERVER, 2, 4, tranx, b"")
    assert rpc.frame_encode(ack).hex() == (
        "20000000" "01" "07" "01" "0200000000000000" "0400000000000000" "01"
        "01000000" "0201000000000000"
    )


# -- dedup ---------------------------------------------------------------


def test_client_window_caches_and_slides():
    w = ClientWindow(capacity=3)
    for mid in (1, 2, 3):
        w.record(mid, f"r{mid}".encode())
    assert w.check(1) == b"r1"
    w.record(4, b"r4")  # evicts 1
    assert w.check(1) is None
    assert w.check(4) == b"r4"


def test_dedup_client_counts_duplicates():
    d = DedupTable()
    assert d.check_client(7, 1) is None
    d.record_client(7, 1, b"resp")
    assert d.check_client(7, 1) == b"resp"
    assert d.duplicates_blocked == 1


def test_dedup_tranx_prune_by_watermark():
    d = DedupTable()
    old, new = TranxID(0, 5), TranxID(0, 9)
    d.record_tranx(old, MsgType.COMMIT_DECISION)
    d.record_tranx(new, MsgType.COMMIT_DECISION)
    d.prune({0: 5})
    assert not d.seen_tranx(old, MsgType.COMMIT_DECISION)
    assert d.seen_tranx(new, MsgType.COMMIT_DECISION)


def test_dedup_keyed_by_message_type():
    d = DedupTable()
    t = TranxID(1, 1)
    d.record_tranx(t, MsgType.PREPARE, b"vote")
    assert d.check_tranx(t, MsgType.PREPARE) == b"vote"
    assert d.check_tranx(t, MsgType.COMMIT_DECISION) is None
