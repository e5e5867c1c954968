"""Identifiers, state transitions, and log-record codecs."""

import pytest
from hypothesis import given, strategies as st

from dtx import model, rpc
from dtx.gc import EPOCH_SHIFT, CompletionTracker
from dtx.model import (
    CoordAbort,
    CoordCommit,
    CoordState,
    MalformedRecordError,
    PartAbort,
    PartCommit,
    PartReady,
    PartState,
    Transaction,
    TranxID,
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
client_keys = st.one_of(st.none(), st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)))

owners = st.lists(st.integers(0, 2**32 - 1), max_size=3, unique=True).map(lambda ids: tuple(sorted(ids)))

records = st.one_of(
    st.builds(CoordCommit, tranx_ids, client_keys, owners),
    st.builds(CoordAbort, tranx_ids, client_keys),
    st.builds(PartReady, tranx_ids, reads, ready_writes),
    st.builds(PartCommit, tranx_ids),
    st.builds(PartAbort, tranx_ids),
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


@given(st.binary(max_size=8), reads)
def test_reads_codec_round_trip(prefix, rs):
    """The count, blob and u64 primitives as the codecs write them, read
    back at a running position that ends at the end of the buffer."""
    out = [prefix]
    model._pack_reads(out, rs)
    data = b"".join(out)
    assert model._unpack_reads(data, len(prefix)) == (rs, len(data))


def test_tranx_id_order_is_lexicographic():
    a, b, c = TranxID(0, 5), TranxID(1, 1), TranxID(1, 2)
    assert a < b < c


def test_issuer_is_monotone_and_resumes():
    """A TranxID's seq is (epoch - 1) << 40 | n: the first incarnation
    issues 1, 2, ..., and a restart resumes above every earlier epoch."""
    first = CompletionTracker()
    assert [first.next(), first.next()] == [1, 2]
    iss = CompletionTracker(epoch=3)
    assert iss.next() == (2 << 40) + 1
    assert iss.next() == (2 << 40) + 2
    assert iss.last_issued == (2 << 40) + 2


def test_issuer_overflow():
    """n stops below 2**40, where the next epoch's ids begin."""
    iss = CompletionTracker(epoch=2)
    iss.last_issued = (2 << EPOCH_SHIFT) - 2
    assert iss.next() == (2 << EPOCH_SHIFT) - 1
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
    # decoded from a PREPARE or VALIDATE payload, a repeated key makes the
    # payload malformed, which the server drops or answers UNKNOWN
    data = b"".join([
        model._U32.pack(2),  # two reads of the same key
        *[model._U32.pack(1) + b"a" + model._U64.pack(1)] * 2,
        model._U32.pack(0),  # no writes
    ])
    with pytest.raises(MalformedRecordError):
        rpc.dec_txn(data)


@given(reads, plain_writes)
def test_transaction_round_trip(r, w):
    try:
        txn = Transaction(r, w)
    except ValueError:
        return  # duplicate keys drawn
    buf: list = []
    model._pack_txn(buf, txn)
    data = b"".join(buf)
    assert model._unpack_txn(data, 0) == (txn, len(data))
