"""Key lifecycle and per-frame protection: establishment order, uniqueness,
tamper and replay rejection, group key distribution, pinned wire bytes."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bansim import security
from bansim.errors import (
    KeyStateError,
    LevelMismatch,
    ProtocolOrderError,
    ReplayRejection,
    SecurityError,
    TagFailure,
)
from bansim.security import (
    COUNTER_LEN,
    SECURITY_WIRE_OVERHEAD,
    TAG_LEN,
    PairwiseKey,
    SecurityLevel,
    SecurityManager,
    SecuritySession,
    _digest,
    _keystream,
    admit_frame,
    default_kdf,
    secure_frame,
    spend_counter,
)


def paired(level, node="n0", mk="preshared"):
    mgr = SecurityManager()
    session = mgr.associate(node, level, mk=mk)
    return mgr, session


class TestAssociation:
    def test_unsecured_session_has_no_keys(self):
        _, s = paired(SecurityLevel.UNSECURED)
        assert s.mk is None and s.ptk is None and not s.ptk_active

    @pytest.mark.parametrize("level", [1, 2])
    def test_secured_association_installs_a_pairwise_key(self, level):
        _, s = paired(level)
        assert s.ptk_active
        assert s.mk is not None
        assert s.level == level
        assert s.ptk.key == default_kdf(s.mk, 1)  # the pairing's first session ordinal

    def test_reassociation_is_out_of_order(self):
        mgr, _ = paired(1)
        with pytest.raises(ProtocolOrderError):
            mgr.associate("n0", 1)

    @pytest.mark.parametrize("node_id", [7, None, b"n0"])
    def test_a_node_id_that_is_not_a_string_is_refused_by_name(self, node_id):
        # 7 once failed inside the key derivation: 'int' object has no attribute 'encode'.
        mgr = SecurityManager()
        with pytest.raises(TypeError, match="^node_id must be a string, got "):
            mgr.associate(node_id, 1)
        assert mgr.sessions == {}

    @pytest.mark.parametrize("level", [3, -1, "1", None, 1.5])
    def test_an_unknown_level_is_refused_by_name(self, level):
        with pytest.raises(ValueError, match="^level must be 0, 1 or 2, got "):
            SecurityManager().associate("n0", level)

    def test_unknown_mk_mode_rejected(self):
        mgr = SecurityManager()
        with pytest.raises(SecurityError):
            mgr.associate("n0", 1, mk="carrier-pigeon")

    def test_teardown_requires_a_session(self):
        mgr = SecurityManager()
        with pytest.raises(ProtocolOrderError):
            mgr.teardown("ghost")

    def test_preshared_mk_is_stable_but_ptk_is_not(self):
        mgr = SecurityManager()
        first = mgr.associate("n0", 1, mk="preshared")
        mk1, ptk1 = first.mk, first.ptk.key
        mgr.teardown("n0")
        second = mgr.associate("n0", 1, mk="preshared")
        assert second.mk == mk1
        assert second.ptk.key != ptk1
        assert second.ptk.key == default_kdf(second.mk, 2)

    def test_unauthenticated_mk_is_fresh_every_time(self):
        mgr = SecurityManager()
        a = mgr.associate("n0", 1, mk="unauthenticated")
        b = mgr.associate("n1", 1, mk="unauthenticated")
        assert a.mk != b.mk
        mgr.teardown("n0")
        again = mgr.associate("n0", 1, mk="unauthenticated")
        assert again.mk != a.mk


class TestPtkLifecycle:
    def test_establish_requires_a_master_key(self):
        mgr = SecurityManager()
        bare = SecuritySession("n0", SecurityLevel.AUTHENTICATED)
        with pytest.raises(KeyStateError):
            mgr.establish_ptk(bare)

    def test_establish_refuses_double_keying(self):
        mgr, s = paired(1)
        with pytest.raises(KeyStateError):
            mgr.establish_ptk(s)

    def test_a_repeated_key_id_is_refused(self, monkeypatch):
        # A derivation that gave one key twice would hand two sessions one
        # key id; the manager refuses the second.
        kdf = security.default_kdf
        monkeypatch.setattr(security, "default_kdf", lambda mk, ordinal: bytes(32))
        mgr, first = paired(1)
        with pytest.raises(KeyStateError, match=f"^key derivation repeated id {first.ptk.key_id}$"):
            mgr.associate("n1", 1)
        # The refused association leaves no session behind, so a retry runs.
        assert "n1" not in mgr.sessions
        monkeypatch.setattr(security, "default_kdf", kdf)
        assert mgr.associate("n1", 1).ptk_active

    def test_thousand_sessions_never_repeat_a_key(self):
        mgr = SecurityManager()
        seen = set()
        nodes = [f"n{i}" for i in range(10)]
        for _ in range(100):
            for node in nodes:
                s = mgr.associate(node, 2, mk="preshared")
                seen.add(s.ptk.key)
                mgr.teardown(node)
        assert len(seen) == 1000


class TestFraming:
    def test_level0_is_the_identity(self):
        _, s = paired(0)
        body = b"vitals sample 42"
        wire = secure_frame(body, s)
        assert wire == body
        assert admit_frame(wire, s) == body
        assert SECURITY_WIRE_OVERHEAD[0] == 0

    @pytest.mark.parametrize("level", [1, 2])
    def test_round_trip_and_overhead(self, level):
        _, s = paired(level)
        for body in (b"", b"x", bytes(range(200))):
            wire = secure_frame(body, s)
            assert len(wire) == len(body) + SECURITY_WIRE_OVERHEAD[level]
            assert admit_frame(wire, s) == body

    def test_wire_envelope_layout(self):
        _, s = paired(1)
        body = b"plain-visible"
        wire = secure_frame(body, s)
        assert wire[0] == 1
        assert int.from_bytes(wire[1 : 1 + COUNTER_LEN], "big") == 1
        assert wire[1 + COUNTER_LEN : -TAG_LEN] == body  # authenticated, not hidden

    def test_encrypted_body_is_hidden(self):
        _, s = paired(2)
        body = b"secret glucose reading"
        wire = secure_frame(body, s)
        assert wire[0] == 2
        assert wire[1 + COUNTER_LEN : -TAG_LEN] != body
        assert admit_frame(wire, s) == body

    def test_counters_advance_per_frame(self):
        _, s = paired(2)
        wires = [secure_frame(b"tick", s) for _ in range(5)]
        counters = [int.from_bytes(w[1 : 1 + COUNTER_LEN], "big") for w in wires]
        assert counters == [1, 2, 3, 4, 5]
        for w in wires:
            admit_frame(w, s)
        assert s.rx_counter == 5

    def test_secured_send_requires_an_active_ptk(self):
        bare = SecuritySession("n0", SecurityLevel.AUTHENTICATED)
        with pytest.raises(KeyStateError):
            secure_frame(b"no key yet", bare)

    def test_the_gate_alone_requires_an_active_ptk(self):
        # A frame lost on the air (a collided one in the simulator) passes
        # the gate without being sealed, under the same refusal.
        bare = SecuritySession("n0", SecurityLevel.AUTHENTICATED)
        with pytest.raises(KeyStateError, match="secured frame without an active pairwise key"):
            spend_counter(bare)
        assert bare.tx_counter == 0

    def test_a_counter_spent_by_the_gate_is_never_reused(self):
        _, s = paired(2)
        assert spend_counter(s) == (1).to_bytes(COUNTER_LEN, "big")
        wire = secure_frame(b"after a lost frame", s)
        assert int.from_bytes(wire[1 : 1 + COUNTER_LEN], "big") == 2
        assert admit_frame(wire, s) == b"after a lost frame"
        assert (s.tx_counter, s.rx_counter) == (2, 2)


class TestBytesLike:
    """A body or wire is bytes-like (single-byte items); anything else is a
    TypeError naming it, raised before a counter is spent."""

    NOT_BYTES = [(5, "int"), ("text", "str"), (None, "NoneType"), ([1, 2], "list"),
                 (memoryview(b"ab").cast("H"), "memoryview")]  # 2-byte items

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("convert", [bytearray, memoryview], ids=["bytearray", "memoryview"])
    def test_a_bytes_like_value_frames_as_its_bytes(self, level, convert):
        _, s = paired(level)
        wire = secure_frame(convert(b"vitals"), s)
        assert type(wire) is bytes
        assert admit_frame(convert(wire), s) == b"vitals"

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("value, kind", NOT_BYTES)
    def test_secure_frame_refuses_anything_else_by_name(self, level, value, kind):
        # 5 once sealed five zero bytes, and "text" failed after spending counter 1.
        _, s = paired(level)
        with pytest.raises(TypeError, match=f"^body must be bytes-like \\(single-byte items\\), got {kind}$"):
            secure_frame(value, s)
        assert s.tx_counter == 0

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("value, kind", NOT_BYTES + [("x" * 20, "str")])
    def test_admit_frame_refuses_anything_else_by_name(self, level, value, kind):
        # "x" * 20 once read as a frame of level "x".
        _, s = paired(level)
        with pytest.raises(TypeError, match=f"^wire must be bytes-like \\(single-byte items\\), got {kind}$"):
            admit_frame(value, s)
        assert (s.tx_counter, s.rx_counter) == (0, 0)


class TestCounterExhaustion:
    """The 4-byte frame counter runs out after 2**32 - 1 frames; the next
    frame is refused before the counter moves, and a new key starts over."""

    LAST = 2 ** (8 * COUNTER_LEN) - 1

    @pytest.mark.parametrize("level", [1, 2])
    def test_the_last_counter_still_round_trips(self, level):
        _, s = paired(level)
        s.tx_counter = self.LAST - 1
        wire = secure_frame(b"last", s)
        assert wire[1 : 1 + COUNTER_LEN] == b"\xff" * COUNTER_LEN
        assert admit_frame(wire, s) == b"last"

    @pytest.mark.parametrize("level", [1, 2])
    def test_the_next_frame_asks_for_a_new_key(self, level):
        _, s = paired(level)
        s.tx_counter = self.LAST
        with pytest.raises(KeyStateError, match="re-key"):
            secure_frame(b"one too many", s)
        assert s.tx_counter == self.LAST

    @pytest.mark.parametrize("level", [1, 2])
    def test_the_gate_alone_asks_for_a_new_key(self, level):
        _, s = paired(level)
        s.tx_counter = self.LAST
        with pytest.raises(KeyStateError, match="frame counter exhausted; re-key the session"):
            spend_counter(s)
        assert s.tx_counter == self.LAST

    def test_a_new_pairwise_key_sends_from_counter_one(self):
        mgr, s = paired(2)
        s.tx_counter = self.LAST
        with pytest.raises(KeyStateError):
            secure_frame(b"spent", s)
        mgr.teardown("n0")
        fresh = mgr.associate("n0", 2)
        assert fresh.ptk.key != s.ptk.key
        wire = secure_frame(b"fresh", fresh)
        assert int.from_bytes(wire[1 : 1 + COUNTER_LEN], "big") == 1
        assert admit_frame(wire, fresh) == b"fresh"


def pinned_body(length):
    return bytes((7 * i + 3) % 256 for i in range(length))


class TestKnownAnswers:
    """Exact wire bytes of the first frame of a fresh pre-shared session
    for node n0, body byte i = (7i + 3) mod 256. Short wires are pinned in
    full, the others by SHA-256; a body of 32 bytes or more takes a second
    keystream block at level 2, one of 65 bytes or more a third."""

    WIRES = {
        (1, 0): "0100000001471534175f9136e7",
        (1, 1): "010000000103e2a464c8b7527b77",
        (1, 31): "a97ca98f9f6d40380042dde658eed9e31d424dc7cac07c0af49d61b3a52fd67a",
        (1, 32): "9a9a23db31b7d45f6e52a3598c322c06e6137f16a8e43e9e0d64399f3647ea35",
        (1, 33): "ace360c3632f4a80244b02d1a96f67ca3d3fc93da3a77923220d85d757c59c7f",
        (1, 64): "7011d521805f493b2aff1d11f9142eeea96adc0b90f5a656901c7ca190882653",
        (1, 65): "3b55d41ff62ab84d7c37395209db19359605756f316715fe7d1b1d941b7d0eaa",
        (1, 120): "fe9cc2eee115bcf917e968371cd73ac1a24132fa1dff8aafbfb38d0a9e7def21",
        (1, 255): "b2c0bbe2d9a7823407e2e40cb15d9c020cf63fbbee7e86d8d3408870220ba326",
        (2, 0): "020000000120bfbbdd5913a82c",
        (2, 1): "0200000001b3dea7a2cc2bea7eb0",
        (2, 31): "9f637dd98d45a1da0cdbae21315d95473fe0d722636692aeff845bc91a9b211d",
        (2, 32): "4a2ba539682f5512b61659b51f88e1ff6c41041ae6acc46e0e616b2474f923ab",
        (2, 33): "83c63a5c0cad5eb319a5fbab1163e3745f2f18d5b74e0e1266bc440c367d63f1",
        (2, 64): "f8969186e663c12d5e17c3bfd69cab969ad594bf99620c1c599a389c43a2a9e6",
        (2, 65): "a8459d5614fa5643031db9a9395e0f58cdc050bcd3930db8421fbc248aa0106f",
        (2, 120): "1d70ddd915fd7c9fba485830e4e50e55b699412d1897c1cfc903fb0daeeb414d",
        (2, 255): "f02577e8aecc1dfd80aadf400dd383d27f376e12e946c417d1fad678d6e10bd3",
    }

    # SHA-256 of the 1000th wire of a session that sends and admits a
    # 40-byte body each frame: counter 1000 in the nonce and the tag.
    THOUSANDTH = {
        1: "1e7e2786acb62f0c055eb8fdb940433916529f264d694d2fc448bcc814c2bb37",
        2: "ca78a1d387b8ff7c041bc5a1bc0f0d1e31e6a8a0b1a4284f846781d8f05b54d8",
    }

    @pytest.mark.parametrize("level, length", sorted(WIRES))
    def test_first_frame_wire_bytes(self, level, length):
        _, s = paired(level)
        body = pinned_body(length)
        wire = secure_frame(body, s)
        assert len(wire) == length + SECURITY_WIRE_OVERHEAD[level]
        pinned = wire.hex() if length <= 1 else hashlib.sha256(wire).hexdigest()
        assert pinned == self.WIRES[level, length]
        assert admit_frame(wire, s) == body

    @pytest.mark.parametrize("level", [1, 2])
    def test_thousandth_frame_wire_bytes(self, level):
        _, s = paired(level)
        body = pinned_body(40)
        for _ in range(999):
            assert admit_frame(secure_frame(body, s), s) == body
        wire = secure_frame(body, s)
        assert int.from_bytes(wire[1 : 1 + COUNTER_LEN], "big") == 1000
        assert hashlib.sha256(wire).hexdigest() == self.THOUSANDTH[level]
        assert admit_frame(wire, s) == body


def reference_wire(key, level, counter, body):
    """The secured wire straight from _digest, one call per hash."""
    nonce = counter.to_bytes(COUNTER_LEN, "big")
    sent = body
    if level == SecurityLevel.ENCRYPTED:
        blocks = -(-len(body) // 32)
        stream = b"".join(_digest(b"stream", key, nonce, i.to_bytes(4, "big")) for i in range(blocks))
        sent = bytes(a ^ b for a, b in zip(body, stream))
    tag = _digest(b"tag", key, bytes([level]), nonce, sent)[:TAG_LEN]
    return bytes([level]) + nonce + sent + tag


@st.composite
def frame_bodies(draw):
    length = draw(st.one_of(st.integers(0, 300), st.sampled_from(range(0, 301, 32))))
    return draw(st.binary(min_size=length, max_size=length))


class TestKeyedStates:
    """The per-key hash states give _digest's bytes and stay out of sight."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        level=st.sampled_from([1, 2]),
        counter=st.one_of(st.integers(1, 2**32 - 1), st.sampled_from([1, 2**32 - 1])),
        body=frame_bodies(),
        rekeyed=st.booleans(),
    )
    def test_frames_match_the_digest_reference(self, level, counter, body, rekeyed):
        mgr = SecurityManager()
        s = mgr.associate("n0", level)
        if rekeyed:
            mgr.teardown("n0")
            s = mgr.associate("n0", level)
            assert s.ptk.key == default_kdf(s.mk, 2)
        s.tx_counter = s.rx_counter = counter - 1
        wire = secure_frame(body, s)
        assert wire == reference_wire(s.ptk.key, level, counter, body)
        assert admit_frame(wire, s) == body
        assert s.rx_counter == counter

    def test_states_are_not_part_of_the_key_value(self):
        a, b = PairwiseKey("id", b"k" * 32), PairwiseKey("id", b"k" * 32)
        assert a.stream_state is not b.stream_state
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "PairwiseKey(key_id='id', key=" + repr(b"k" * 32) + ")"


class _CountedState:
    """A keystream hash state that counts the frames derived from it."""

    def __init__(self, state):
        self.state, self.copies = state, 0

    def copy(self):
        self.copies += 1
        return self.state.copy()


class TestKeystreamReuse:
    """A PairwiseKey gives its last keystream again for the same counter and
    length, so a delivered level-2 frame derives its keystream once."""

    def test_admit_unmasks_with_the_keystream_secure_derived(self):
        _, s = paired(SecurityLevel.ENCRYPTED)
        s.ptk.stream_state = counted = _CountedState(s.ptk.stream_state)
        body = bytes(range(100))
        for frame in (1, 2):  # each counter derives once
            wire = secure_frame(body, s)
            assert admit_frame(wire, s) == body
            assert counted.copies == frame

    def test_a_kept_keystream_serves_only_its_counter_and_length(self):
        key, fresh = PairwiseKey("id", b"k" * 32), PairwiseKey("id", b"k" * 32)
        one, two = (1).to_bytes(COUNTER_LEN, "big"), (2).to_bytes(COUNTER_LEN, "big")
        stream = _keystream(key, one, 40)
        assert _keystream(key, one, 40) is stream
        assert _keystream(key, one, 10) == stream[:10]
        assert _keystream(key, two, 40) == _keystream(fresh, two, 40) != stream


class TestRejection:
    def test_every_tag_bit_matters(self):
        _, s = paired(1)
        wire = secure_frame(b"authenticated body", s)
        for bit in range(TAG_LEN * 8):
            bad = bytearray(wire)
            bad[len(wire) - TAG_LEN + bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(TagFailure):
                admit_frame(bytes(bad), s)
        assert admit_frame(wire, s) == b"authenticated body"  # floor untouched

    @pytest.mark.parametrize("level", [1, 2])
    def test_body_tamper_detected(self, level):
        _, s = paired(level)
        wire = secure_frame(b"do not touch", s)
        bad = bytearray(wire)
        bad[1 + COUNTER_LEN] ^= 0x01
        with pytest.raises(TagFailure):
            admit_frame(bytes(bad), s)

    def test_level_byte_checked_before_the_tag(self):
        _, s = paired(2)
        wire = secure_frame(b"level games", s)
        bad = bytes([1]) + wire[1:]
        with pytest.raises(LevelMismatch):
            admit_frame(bad, s)

    def test_truncated_wire_rejected(self):
        _, s = paired(1)
        with pytest.raises(TagFailure):
            admit_frame(b"\x01\x00\x00", s)

    def test_admit_requires_an_active_ptk(self):
        _, s = paired(1)
        wire = secure_frame(b"x", s)
        bare = SecuritySession("n0", SecurityLevel.AUTHENTICATED)
        with pytest.raises(KeyStateError):
            admit_frame(wire, bare)

    def test_replay_of_an_accepted_frame(self):
        _, s = paired(2)
        wire = secure_frame(b"once only", s)
        assert admit_frame(wire, s) == b"once only"
        with pytest.raises(ReplayRejection):
            admit_frame(wire, s)

    def test_stale_counter_rejected(self):
        _, s = paired(1)
        old = secure_frame(b"first", s)
        new = secure_frame(b"second", s)
        admit_frame(new, s)
        with pytest.raises(ReplayRejection):
            admit_frame(old, s)

    def test_peer_sessions_do_not_cross_admit(self):
        mgr = SecurityManager()
        a = mgr.associate("a", 1)
        b = mgr.associate("b", 1)
        wire = secure_frame(b"addressed to the hub via a", a)
        with pytest.raises(TagFailure):
            admit_frame(wire, b)

    def test_rekeyed_session_rejects_old_traffic(self):
        mgr = SecurityManager()
        s = mgr.associate("n0", 2)
        wire = secure_frame(b"stale epoch", s)
        mgr.teardown("n0")
        fresh = mgr.associate("n0", 2)
        with pytest.raises(TagFailure):
            admit_frame(wire, fresh)


class TestGroupKeys:
    def test_distribution_marks_every_member(self):
        mgr = SecurityManager()
        for node in ("a", "b", "c"):
            mgr.associate(node, 1)
        state = mgr.distribute_gtk("ward-7", ["a", "b", "c"])
        assert state.members == frozenset({"a", "b", "c"})
        assert mgr.groups == {"ward-7": state}

    def test_unsecured_member_blocks_the_group(self):
        mgr = SecurityManager()
        mgr.associate("a", 1)
        mgr.associate("b", 0)
        with pytest.raises(KeyStateError):
            mgr.distribute_gtk("g", ["a", "b"])
        assert mgr.groups == {}  # nothing handed out

    def test_unknown_member_blocks_the_group(self):
        mgr = SecurityManager()
        mgr.associate("a", 1)
        with pytest.raises(KeyStateError):
            mgr.distribute_gtk("g", ["a", "nobody"])

    def test_empty_group_is_allowed(self):
        mgr = SecurityManager()
        state = mgr.distribute_gtk("empty", [])
        assert state.members == frozenset()

    def test_groups_get_distinct_keys(self):
        mgr = SecurityManager()
        for node in ("a", "b"):
            mgr.associate(node, 2)
        g1 = mgr.distribute_gtk("g1", ["a"])
        g2 = mgr.distribute_gtk("g2", ["b"])
        assert g1.gtk_id != g2.gtk_id
