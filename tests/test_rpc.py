"""Wire framing, payload codecs, and at-most-once bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from dtx import rpc, server
from dtx.model import (
    CoordCommit,
    MalformedRecordError,
    PartCommit,
    PartReady,
    Transaction,
    TranxID,
    decode_record,
    encode_record,
)
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


@pytest.mark.parametrize("type_byte", [0, 9, 12, 13])
def test_frame_rejects_an_unassigned_message_type(type_byte):
    data = bytearray(rpc.frame_encode(Envelope(MsgType.READY, rpc.SERVER, 1, 2, TranxID(0, 1), b"")))
    data[5] = type_byte
    with pytest.raises(FrameError, match="unknown message type"):
        rpc.frame_decode(bytes(data))


entries = st.one_of(st.none(), st.tuples(values, st.integers(0, 2**64 - 1)))


@given(keys)
def test_read_codec(k):
    assert rpc.dec_read_req(rpc.enc_read_req([k])) == ([k], (), 0)


@given(entries, st.booleans())
def test_read_resp_codec(entry, locked):
    assert rpc.dec_read_resp(rpc.enc_read_resp([entry], locked)) == ([entry], locked, ())


@given(st.lists(st.binary(max_size=32), min_size=1, max_size=8))
def test_multi_key_read_codec(ks):
    assert rpc.dec_read_req(rpc.enc_read_req(ks)) == (ks, (), 0)


@given(st.lists(entries, min_size=1, max_size=8), st.booleans())
def test_multi_key_read_resp_codec(es, locked):
    """Missing keys (None) anywhere in the answer, empty values included."""
    assert rpc.dec_read_resp(rpc.enc_read_resp(es, locked)) == (es, locked, ())


def test_multi_key_read_is_the_one_key_format_repeated():
    """A READ of n keys is n key blobs; its answer is n entries, then the
    one locked byte."""
    assert rpc.enc_read_req([b"a", b"bc"]) == rpc.enc_read_req([b"a"]) + rpc.enc_read_req([b"bc"])
    one = rpc.enc_read_resp([(b"v", 3)], False)
    assert rpc.enc_read_resp([(b"v", 3), None, (b"", 0)], True) == (
        one[:-1] + rpc.enc_read_resp([None], False)[:-1] + rpc.enc_read_resp([(b"", 0)], True)
    )


@pytest.mark.parametrize("payload", [b"", b"\x05\x00", b"\x01\x00\x00\x00a\x02\x00\x00\x00b"])
def test_read_request_without_a_whole_key_does_not_decode(payload):
    with pytest.raises(MalformedRecordError):
        rpc.dec_read_req(payload)


@given(st.lists(st.binary(max_size=32), min_size=1, max_size=8),
       st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=8, unique=True),
       st.integers(0, 2**64 - 1))
def test_group_read_codec(ks, owners, group):
    owners = tuple(sorted(owners))
    assert rpc.dec_read_req(rpc.enc_read_req(ks, owners, group)) == (ks, owners, group)
    assert rpc.dec_read_req(rpc.enc_read_req(ks)) == (ks, (), 0)


@pytest.mark.parametrize("owners", [(3,), (2, 2), (2, 1)])
def test_group_read_of_under_two_or_unordered_owners_does_not_decode(owners):
    with pytest.raises(MalformedRecordError):
        rpc.dec_read_req(rpc.enc_read_req([b"k"], owners, 5))


@given(st.lists(entries, min_size=1, max_size=8), st.booleans(),
       st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=8))
def test_read_answer_codec_with_and_without_a_vouch(es, locked, tokens):
    assert rpc.dec_read_resp(rpc.enc_read_resp(es, locked)) == (es, locked, ())
    assert rpc.dec_read_resp(rpc.enc_read_resp(es, False, tokens)) == (es, False, tuple(tokens))


def test_a_vouching_answer_is_never_locked_and_has_two_tokens_or_more():
    vouching = rpc.enc_read_resp([(b"v", 3)], False, (1, 2))
    with pytest.raises(MalformedRecordError):
        rpc.dec_read_resp(vouching[:-1] + b"\x01")
    for n in (0, 1):
        with pytest.raises(MalformedRecordError):
            rpc.dec_read_resp(b"\x02" + bytes([n]) + bytes(8 * n) + rpc.enc_read_resp([None], False))


FOUND_V = rpc.enc_read_resp([(b"v", 3)], False)


@pytest.mark.parametrize("payload", [b"", FOUND_V[:-1], FOUND_V[:-2], FOUND_V[:4], b"\x01\xff\xff\xff\xff\x00"])
def test_read_answer_without_its_locked_byte_or_a_whole_entry_does_not_decode(payload):
    with pytest.raises(MalformedRecordError):
        rpc.dec_read_resp(payload)


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
    # an abort vote is the COMMIT answer with committed 0
    committed, reason, piggy = rpc.dec_commit_resp(
        rpc.enc_commit_resp(False, AbortReason.STALE_READ, [(b"k", b"v", 8)])
    )
    assert not committed and reason is AbortReason.STALE_READ
    assert piggy == [(b"k", b"v", 8)]


@given(st.integers(0, 2**64 - 1))
def test_gc_lc_codec(lc):
    assert rpc.dec_u64(rpc.enc_u64(lc)) == lc


def test_commit_record_and_prepare_payload_bytes_are_stable():
    """Golden bytes: the CoordCommit log record, which names the owners and
    holds the coordinator's own writes (22 + 4n bytes with no client and no
    write), and the PREPARE payload keep their format, so the logs and
    messages they make stay readable.  Record kind 1, the prepare record it
    replaced, no longer decodes."""
    a = Transaction(((b"k1", 3), (b"k2", 0)), ((b"k2", b"val"),))
    slice_a = (
        "02000000020000006b310300000000000000020000006b32000000000000000001000000"
        "020000006b320300000076616c"
    )
    record = "02" "01000000" "0201000000000000" "00" "02000000" "00000000" "02000000" "00000000"
    assert encode_record(CoordCommit(TranxID(1, 258), None, (0, 2))).hex() == record
    assert len(bytes.fromhex(record)) == 22 + 4 * 2
    own = CoordCommit(TranxID(1, 258), None, (0, 2), ((b"k2", b"val", 1),))
    assert encode_record(own).hex() == record[:-8] + (
        "01000000" "020000006b32" "0300000076616c" "0100000000000000"
    )
    assert rpc.enc_txn(a).hex() == slice_a
    with pytest.raises(MalformedRecordError):
        decode_record(bytes.fromhex("01" + record[2:]))


def test_read_answer_commit_answer_and_decision_bytes_are_stable():
    """Golden bytes: the READ answer with its trailing locked byte, the
    COMMIT answers, and the COMMIT_DECISION and ACK frames, which carry
    their TranxID in the envelope and no payload."""
    assert rpc.enc_read_resp([(b"v1", 7)], True).hex() == "01" "020000007631" "0700000000000000" "01"
    assert rpc.enc_read_resp([None], False).hex() == "0000"
    assert rpc.enc_commit_resp(True, None, []).hex() == "010000000000"
    stale = rpc.enc_commit_resp(False, AbortReason.STALE_READ, [(b"k1", b"v", 4)])
    assert stale.hex() == "000301000000" "020000006b31" "0100000076" "0400000000000000"
    # every reason keeps its code; 6 is retired, so UNKNOWN stays 7
    codes = [rpc.enc_commit_resp(False, r, [])[1] for r in AbortReason]
    assert dict(zip((r.name for r in AbortReason), codes)) == {
        "LOCK_DENIED_READ": 1, "LOCK_DENIED_WRITE": 2, "STALE_READ": 3, "TIMEOUT": 4, "LOG_FAILURE": 5,
        "UNKNOWN": 7,
    }
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


# Golden bytes of every record kind and wire shape the two tests above do
# not pin: name -> (value, its encoding, golden hex, decoder giving value back).
T = TranxID(1, 258)
CLIENT_KEY = (1_000_001, 7)  # (client id, message id) of a COMMIT


def _record(rec, golden):
    return rec, encode_record(rec), golden, decode_record


def _frame(env, golden):
    return env, rpc.frame_encode(env), golden, rpc.frame_decode


VOTE = (False, AbortReason.LOCK_DENIED_WRITE, [(b"k1", b"v", 4), (b"k2", b"", 9)])
GOLDEN = {
    "part-ready": _record(
        PartReady(T, ((b"k2", b"val", 1), (b"z", b"", 5))),
        "04" "01000000" "0201000000000000"
        "02000000" "020000006b32" "0300000076616c" "0100000000000000"
        "010000007a" "00000000" "0500000000000000",
    ),
    "coord-commit": _record(CoordCommit(T), "02" "01000000" "0201000000000000" "00" "00000000" "00000000"),
    "coord-commit-client": _record(
        CoordCommit(T, CLIENT_KEY, (0, 2), ((b"z", b"", 5),)),
        "02" "01000000" "0201000000000000" "01" "41420f0000000000" "0700000000000000"
        "02000000" "00000000" "02000000"
        "01000000" "010000007a" "00000000" "0500000000000000",
    ),
    "part-commit": _record(PartCommit(T), "05" "01000000" "0201000000000000"),
    "commit-frame": _frame(
        Envelope(
            MsgType.COMMIT, rpc.CLIENT, *CLIENT_KEY, None,
            rpc.enc_txn(Transaction(((b"k1", 3),), ((b"k1", b"v1"), (b"k2", b"")))),
        ),
        "40000000" "01" "02" "00" "41420f0000000000" "0700000000000000" "00"
        "01000000" "020000006b31" "0300000000000000"
        "02000000" "020000006b31" "020000007631" "020000006b32" "00000000",
    ),
    "abort-vote": (
        VOTE, rpc.enc_commit_resp(*VOTE),
        "00" "02" "02000000" "020000006b31" "0100000076" "0400000000000000"
        "020000006b32" "00000000" "0900000000000000",
        rpc.dec_commit_resp,
    ),
    # a participant's abort vote is a READY whose payload is the abort answer
    "abort-vote-frame": _frame(
        Envelope(MsgType.READY, rpc.SERVER, 2, 0, T, rpc.enc_commit_resp(*VOTE)),
        "4b000000" "01" "04" "01" "0200000000000000" "0000000000000000" "01"
        "01000000" "0201000000000000"
        "00" "02" "02000000" "020000006b31" "0100000076" "0400000000000000"
        "020000006b32" "00000000" "0900000000000000",
    ),
    "gc-lc": (258, rpc.enc_u64(258), "0201000000000000", rpc.dec_u64),
    "prepare-frame": _frame(
        Envelope(
            MsgType.PREPARE, rpc.SERVER, 1, 3, T,
            rpc.enc_txn(Transaction(((b"k1", 3),), ((b"k1", b"v1"),))),
        ),
        "42000000" "01" "03" "01" "0100000000000000" "0300000000000000" "01"
        "01000000" "0201000000000000"
        "01000000" "020000006b31" "0300000000000000" "01000000" "020000006b31" "020000007631",
    ),
    # a RESPONSE's updates block, here with an empty body: every strict
    # prefix of a block is refused
    "response-empty": (([], b""), rpc.enc_response((), b""), "00", rpc.dec_response),
    "response-two-entries": (
        (VOTE[2], b""), rpc.enc_response(VOTE[2], b""),
        "02" "020000006b31" "0100000076" "0400000000000000" "020000006b32" "00000000" "0900000000000000",
        rpc.dec_response,
    ),
    "client-hello-frame": _frame(
        Envelope(MsgType.CLIENT_HELLO, rpc.CLIENT, 0, 0, None, b""),
        "14000000" "01" "0b" "00" "0000000000000000" "0000000000000000" "00",
    ),
    # a READ is its key blobs; a group READ puts the round's id and owners
    # first, behind a key length no key has
    "read-request": (([b"k1"], (), 0), rpc.enc_read_req([b"k1"]), "02000000" "6b31", rpc.dec_read_req),
    "group-read-request": (
        ([b"k1"], (0, 2), 258), rpc.enc_read_req([b"k1"], (0, 2), 258),
        "ffffffff" "0201000000000000" "02" "00000000" "02000000" "020000006b31",
        rpc.dec_read_req,
    ),
    "read-answer-vouching": (
        ([(b"v1", 7)], False, (5, 6)), rpc.enc_read_resp([(b"v1", 7)], False, (5, 6)),
        "02" "02" "0500000000000000" "0600000000000000" "01" "020000007631" "0700000000000000" "00",
        rpc.dec_read_resp,
    ),
    "read-notice": (
        (CLIENT_KEY[0], 258, 7), rpc.enc_read_notice(CLIENT_KEY[0], 258, 7),
        "41420f0000000000" "0201000000000000" "0700000000000000", rpc.dec_read_notice,
    ),
    "read-notice-frame": _frame(
        Envelope(MsgType.READ_NOTICE, rpc.SERVER, 2, 0, None, rpc.enc_read_notice(CLIENT_KEY[0], 258, 7)),
        "2c000000" "01" "0e" "01" "0200000000000000" "0000000000000000" "00"
        "41420f0000000000" "0201000000000000" "0700000000000000",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_record_and_wire_bytes_are_stable(name):
    value, data, golden, decode = GOLDEN[name]
    assert data.hex() == golden
    assert decode(data) == value


def test_a_response_body_follows_its_updates_block_whole():
    for updates in ([], VOTE[2]):
        payload = rpc.enc_response(updates, b"\x00body")
        assert payload.endswith(b"\x00body")
        assert rpc.dec_response(payload) == (list(updates), b"\x00body")
    assert rpc.dec_response(rpc.enc_response((), b"")) == ([], b"")
    with pytest.raises(MalformedRecordError):
        rpc.dec_response(b"")


# The bytes of retired record kinds: kind 3 was the coordinator's abort
# record, without and with a client key, and kind 6 a participant's.  No
# site logs an abort now, so a log that holds one does not replay.
RETIRED = {
    "coord-abort": "03" "01000000" "0201000000000000" "00",
    "coord-abort-client": "03" "01000000" "0201000000000000" "01" "41420f0000000000" "0700000000000000",
    "part-abort": "06" "01000000" "0201000000000000",
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_record_kinds_do_not_decode(name):
    data = bytes.fromhex(RETIRED[name])
    with pytest.raises(MalformedRecordError, match=f"unknown record kind {data[0]}$"):
        decode_record(data)


# Every golden encoding that carries its own length: a READ request and a
# READ answer are self-delimiting lists, so a prefix cut at an element
# boundary is a shorter, valid one; the READ goldens hold one element each.
STRICT = {
    **{name: (data, decode) for name, (_, data, _, decode) in GOLDEN.items()},
    "slice": (rpc.enc_txn(Transaction(((b"k1", 3),), ((b"k2", b"val"),))), rpc.dec_txn),
    "commit-answer": (rpc.enc_commit_resp(True, None, []), rpc.dec_commit_resp),
    "stale-answer": (
        rpc.enc_commit_resp(False, AbortReason.STALE_READ, [(b"k1", b"v", 4)]), rpc.dec_commit_resp
    ),
}


@pytest.mark.parametrize("name", sorted(STRICT))
def test_every_strict_prefix_fails_to_decode(name):
    data, decode = STRICT[name]
    for cut in range(len(data)):
        with pytest.raises((MalformedRecordError, FrameError)):
            decode(data[:cut])


TRAILING = {
    "slice": (rpc.enc_txn(Transaction(((b"k1", 3),), ((b"k2", b"val"),))), rpc.dec_txn),
    "commit-answer": (rpc.enc_commit_resp(True, None, []), rpc.dec_commit_resp),
    "abort-vote": (rpc.enc_commit_resp(*VOTE), rpc.dec_commit_resp),
    "gc-lc": (rpc.enc_u64(258), rpc.dec_u64),
    "read-notice": (rpc.enc_read_notice(1, 2, 3), rpc.dec_read_notice),
}


@pytest.mark.parametrize("name", sorted(TRAILING))
def test_payload_decoders_reject_trailing_bytes(name):
    """A payload is exactly one encoding, as a log record is: bytes after
    it make it malformed instead of being ignored."""
    data, decode = TRAILING[name]
    decode(data)
    for junk in (b"\x00", b"junk"):
        with pytest.raises(MalformedRecordError):
            decode(data + junk)


UNUSED_REASON = 8
# name -> (a valid encoding, the offset of one flag or reason byte, a value
# out of its range, the decoder)
OUT_OF_RANGE = {
    "read-answer-found": (FOUND_V, 0, 2, rpc.dec_read_resp),
    "read-answer-locked": (FOUND_V, len(FOUND_V) - 1, 2, rpc.dec_read_resp),
    "committed": (rpc.enc_commit_resp(True, None, []), 0, 2, rpc.dec_commit_resp),
    "commit-reason": (rpc.enc_commit_resp(False, AbortReason.STALE_READ, []), 1, UNUSED_REASON,
                      rpc.dec_commit_resp),
    "vote-reason": (rpc.enc_commit_resp(*VOTE), 1, UNUSED_REASON, rpc.dec_commit_resp),
    # code 6 named a reason no server sends any more, and is not reused
    "retired-reason": (rpc.enc_commit_resp(False, AbortReason.UNKNOWN, []), 1, 6, rpc.dec_commit_resp),
    "has-tranx": (GOLDEN["prepare-frame"][1], 23, 2, rpc.frame_decode),
    "has-client-commit": (GOLDEN["coord-commit-client"][1], 13, 2, decode_record),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_flag_bytes_take_only_0_or_1_and_reasons_only_known_codes(name):
    """One value has one encoding: a flag byte of 2 or an unused reason
    code is malformed, not read as 1 or as no reason."""
    data, offset, bad, decode = OUT_OF_RANGE[name]
    decode(data)
    garbled = bytearray(data)
    garbled[offset] = bad
    with pytest.raises((MalformedRecordError, FrameError)):
        decode(bytes(garbled))


def test_each_wire_shape_has_one_codec_and_each_handler_exists():
    """Each public enc_X has its dec_X and each dec_X its enc_X, so a second
    decoder of one shape cannot creep back in; and each message type a
    server takes names a ServerNode method."""
    shapes = {prefix: {n[4:] for n in vars(rpc) if n.startswith(prefix)} for prefix in ("enc_", "dec_")}
    assert shapes["enc_"] == shapes["dec_"]
    assert set(server._HANDLER) == set(MsgType)
    handlers = set(server._HANDLER.values())
    assert [f for f in handlers if getattr(server.ServerNode, f.__name__, None) is not f] == []


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
