"""Identifiers, state transitions, and log-record codecs."""

import pytest
from hypothesis import given, strategies as st

from dtx import model
from dtx.model import (
    ByteReader,
    ByteWriter,
    CoordAbort,
    CoordCommit,
    CoordPrepare,
    CoordState,
    GcCheckpoint,
    MalformedRecordError,
    PartAbort,
    PartCommit,
    PartReady,
    PartState,
    SubTranx,
    Transaction,
    TranxID,
    TranxIdIssuer,
    coord_transition_legal,
    decode_record,
    encode_record,
    part_transition_legal,
)

keys = st.binary(min_size=1, max_size=32)
values = st.binary(max_size=200)
tranx_ids = st.builds(TranxID, st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))
reads = st.lists(st.tuples(keys, st.integers(0, 2**64 - 1)), max_size=5).map(tuple)
plain_writes = st.lists(st.tuples(keys, values), max_size=5).map(tuple)
ready_writes = st.lists(st.tuples(keys, values, st.integers(1, 2**64 - 1)), max_size=5).map(tuple)
subs = st.builds(SubTranx, reads, plain_writes)
client_keys = st.one_of(st.none(), st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)))

records = st.one_of(
    st.builds(CoordPrepare, tranx_ids, st.lists(st.tuples(st.integers(0, 100), subs), max_size=3).map(tuple)),
    st.builds(CoordCommit, tranx_ids, client_keys),
    st.builds(CoordAbort, tranx_ids, client_keys),
    st.builds(PartReady, tranx_ids, reads, ready_writes),
    st.builds(PartCommit, tranx_ids),
    st.builds(PartAbort, tranx_ids),
    st.builds(GcCheckpoint, st.lists(st.tuples(st.integers(0, 100), st.integers(0, 2**64 - 1)), max_size=4).map(tuple)),
)


@given(records)
def test_record_round_trip(rec):
    assert decode_record(encode_record(rec)) == rec


@given(records, st.integers(0, 40))
def test_truncated_record_raises(rec, cut):
    data = encode_record(rec)
    if cut == 0 or cut >= len(data):
        return
    with pytest.raises(MalformedRecordError):
        decode_record(data[:-cut])


def test_unknown_kind_raises():
    with pytest.raises(MalformedRecordError):
        decode_record(bytes([250]))


@given(st.lists(st.one_of(
    st.tuples(st.just("u8"), st.integers(0, 255)),
    st.tuples(st.just("u32"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("u64"), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("blob"), st.binary(max_size=64)),
), max_size=10))
def test_byte_writer_reader_round_trip(items):
    w = ByteWriter()
    for kind, v in items:
        getattr(w, kind)(v)
    r = ByteReader(w.getvalue())
    for kind, v in items:
        assert getattr(r, kind)() == v
    r.expect_done()


def test_tranx_id_order_is_lexicographic():
    a, b, c = TranxID(0, 5), TranxID(1, 1), TranxID(1, 2)
    assert a < b < c


def test_issuer_is_monotone_and_resumes():
    iss = TranxIdIssuer(2, last_persisted_seq=10)
    assert iss.next() == TranxID(2, 11)
    assert iss.next() == TranxID(2, 12)
    assert iss.last_issued == 12


def test_issuer_overflow():
    iss = TranxIdIssuer(0, last_persisted_seq=model.MAX_U64)
    with pytest.raises(OverflowError):
        iss.next()


def test_coordinator_transitions():
    legal = {(CoordState.START, CoordState.PREPARE),
             (CoordState.PREPARE, CoordState.COMMIT),
             (CoordState.PREPARE, CoordState.ABORT)}
    for a in CoordState:
        for b in CoordState:
            assert coord_transition_legal(a, b) == ((a, b) in legal)


def test_participant_transitions():
    legal = {(PartState.START, PartState.READY),
             (PartState.START, PartState.ABORT),
             (PartState.READY, PartState.COMMIT),
             (PartState.READY, PartState.ABORT)}
    for a in PartState:
        for b in PartState:
            assert part_transition_legal(a, b) == ((a, b) in legal)
    # in particular: a committed slice can never abort, and vice versa
    assert not part_transition_legal(PartState.COMMIT, PartState.ABORT)
    assert not part_transition_legal(PartState.ABORT, PartState.COMMIT)


def test_transaction_rejects_duplicate_keys():
    with pytest.raises(ValueError):
        Transaction(((b"a", 1), (b"a", 2)), ())
    with pytest.raises(ValueError):
        Transaction((), ((b"a", b"x"), (b"a", b"y")))


@given(reads, plain_writes)
def test_transaction_round_trip(r, w):
    try:
        txn = Transaction(r, w)
    except ValueError:
        return  # duplicate keys drawn
    buf = ByteWriter()
    txn.encode_into(buf)
    assert Transaction.decode_from(ByteReader(buf.getvalue())) == txn
