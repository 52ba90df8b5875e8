"""Security levels and the key lifecycle enforced on every frame exchange.

Three levels: 0 sends plaintext with no keys, 1 authenticates each frame
with a tag, 2 additionally encrypts the body. A node first associates
with the hub at a negotiated level; for any secured level a master key
is activated (pre-shared, or created on the spot by unauthenticated
association) and a pairwise temporal key (PTK) is derived from it. A PTK
serves exactly one session: re-keying after teardown always yields a
fresh key id. Group traffic uses a group temporal key (GTK) distributed
only over established secured sessions.

The hub's `SecurityManager` stores each fact of the key state once: each
pairing's session ordinal (how many PTKs it has consumed, kept across
teardown) and each group's `GroupKeyState`. A session holds only its own
level, keys and frame counters.

Every outgoing frame of a secured session passes one gate,
`spend_counter`: it refuses the frame without an active PTK or once the
4-byte counter is exhausted, and spends the next counter. `secure_frame`
passes it and then seals the body. A frame lost on the air before it
reaches the receiver (the simulator's collided frames) passes the gate
alone and is never sealed: its counter is spent all the same, so the
sender never reuses one, and the receiver's replay floor skips it.

Cryptography here is interface-only. Key derivation is a keyed hash of
the master key and a session ordinal, and the cipher is a reversible
keyed stream built from the same hash. The testable contract is the
state machine, not the algorithms.

Every hash is `_digest`: SHA-256 of its parts, each led by its length.
The keystream block i of frame counter c is `_digest("stream", key, c, i)`
and the tag is the first 8 bytes of `_digest("tag", key, level, c, body)`.
Those two begin with the same framed label and key for every frame of a
session, so a PairwiseKey hashes that prefix once when it is made and
keeps the two SHA-256 states; each frame copies a state and feeds only
the framed counter, block index, level and body. The bytes are those of
`_digest`, so the wire format is unchanged. A hash state cannot be
pickled, and neither can a PairwiseKey; sessions live inside one run.

A PairwiseKey also keeps the last (counter, keystream) pair it derived,
and `_keystream` returns that keystream for the same counter and length.
A delivered level-2 frame is masked and unmasked under one counter, so
admit_frame unmasks it with the keystream secure_frame derived; the tag
is still recomputed and compared on every admit, before the replay floor
moves.

Wire format of a secured frame body:
    [level: 1 byte][counter: 4 bytes big-endian][body][tag: 8 bytes]
where the body is XOR-masked at level 2 and the tag covers the level,
the counter, and the body as sent. Level 0 frames are the raw body.
"""

from __future__ import annotations

import hashlib
from enum import IntEnum
from typing import NamedTuple

from bansim.errors import (
    KeyStateError,
    LevelMismatch,
    ProtocolOrderError,
    ReplayRejection,
    SecurityError,
    TagFailure,
    frame_bytes,
)

__all__ = [
    "SecurityLevel",
    "SECURITY_WIRE_OVERHEAD",
    "HUB_ID",
    "PairwiseKey",
    "SecuritySession",
    "GroupKeyState",
    "SecurityManager",
    "spend_counter",
    "secure_frame",
    "admit_frame",
]

TAG_LEN = 8
COUNTER_LEN = 4
# The hub's id: it keys the pre-shared master keys and names the hub on
# trace lines, so no node may take it.
HUB_ID = "hub"


class SecurityLevel(IntEnum):
    UNSECURED = 0
    AUTHENTICATED = 1
    ENCRYPTED = 2


# The two levels the per-frame paths test, bound once: CPython 3.11 reads a
# member off its enum class through the metaclass's __getattr__ hook.
_UNSECURED, _ENCRYPTED = SecurityLevel.UNSECURED, SecurityLevel.ENCRYPTED

# Extra on-air body bytes per level: level byte + counter + tag.
SECURITY_WIRE_OVERHEAD = {
    SecurityLevel.UNSECURED: 0,
    SecurityLevel.AUTHENTICATED: 1 + COUNTER_LEN + TAG_LEN,
    SecurityLevel.ENCRYPTED: 1 + COUNTER_LEN + TAG_LEN,
}

MK_MODES = ("preshared", "unauthenticated")


def _framed(*parts: bytes) -> bytes:
    """The parts, each led by its length as 4 big-endian bytes."""
    return b"".join([len(part).to_bytes(4, "big") + part for part in parts])


def _digest(*parts: bytes) -> bytes:
    """SHA-256 of the framed parts."""
    return hashlib.sha256(_framed(*parts)).digest()


def default_kdf(mk: bytes, ordinal: int) -> bytes:
    """Pairwise key material from the master key and a session ordinal."""
    return _digest(b"ptk", mk, ordinal.to_bytes(8, "big"))


class PairwiseKey:
    __slots__ = ("key_id", "key", "stream_state", "tag_state", "last_stream")

    def __init__(self, key_id: str, key: bytes):
        self.key_id = key_id  # short public identifier
        self.key = key  # secret material
        # SHA-256 states that have hashed _digest's framed label and key for
        # the keystream and the tag; derived from `key`, so kept out of repr
        # and equality.
        self.stream_state = hashlib.sha256(_framed(b"stream", key))
        self.tag_state = hashlib.sha256(_framed(b"tag", key))
        self.last_stream = (None, b"")  # (nonce, keystream) _keystream derived last

    def __eq__(self, other):
        return type(other) is PairwiseKey and (self.key_id, self.key) == (other.key_id, other.key)

    def __hash__(self):
        return hash((self.key_id, self.key))

    def __repr__(self):
        return f"PairwiseKey(key_id={self.key_id!r}, key={self.key!r})"


class SecuritySession:
    __slots__ = ("node_id", "level", "mk", "ptk", "tx_counter", "rx_counter")

    def __init__(self, node_id: str, level: SecurityLevel):
        self.node_id = node_id
        self.level = level
        self.mk: bytes | None = None
        self.ptk: PairwiseKey | None = None
        self.tx_counter = 0  # last counter stamped on an outgoing frame
        self.rx_counter = 0  # highest counter admitted so far

    @property
    def ptk_active(self) -> bool:
        return self.ptk is not None


class GroupKeyState(NamedTuple):
    gtk_id: str
    members: frozenset[str]


class SecurityManager:
    """Hub-side owner of all sessions and key state for one run."""

    def __init__(self):
        self.sessions: dict[str, SecuritySession] = {}
        # Session ordinals survive teardown so a re-keyed pairing can
        # never reproduce an old PTK ("one PTK per session").
        self._session_ordinals: dict[str, int] = {}
        self._mk_serial = 0
        self._issued_ptk_ids: set[str] = set()
        self.groups: dict[str, GroupKeyState] = {}

    def associate(
        self, node_id: str, level: SecurityLevel | int, mk: str = "preshared"
    ) -> SecuritySession:
        """Negotiate a session; secured levels come up with an active PTK."""
        if not isinstance(node_id, str):
            raise TypeError(f"node_id must be a string, got {node_id!r}")
        try:
            level = SecurityLevel(level)
        except (TypeError, ValueError):
            raise ValueError(f"level must be 0, 1 or 2, got {level!r}") from None
        if node_id in self.sessions:
            raise ProtocolOrderError(f"{node_id} is already associated")
        if mk not in MK_MODES:
            raise SecurityError(f"unknown master-key mode {mk!r}")
        session = SecuritySession(node_id, level)
        if level >= SecurityLevel.AUTHENTICATED:
            self._activate_mk(session, mk)
            self.establish_ptk(session)
        self.sessions[node_id] = session  # only once its keys are in place
        return session

    def _activate_mk(self, session: SecuritySession, mode: str) -> None:
        if mode == "preshared":
            # Stable per pairing, as if provisioned out of band.
            session.mk = _digest(b"mk-preshared", session.node_id.encode(), HUB_ID.encode())
        else:
            # Created fresh by the unauthenticated association exchange.
            self._mk_serial += 1
            session.mk = _digest(
                b"mk-unauthenticated",
                session.node_id.encode(),
                self._mk_serial.to_bytes(8, "big"),
            )

    def establish_ptk(self, session: SecuritySession) -> SecuritySession:
        if session.mk is None:
            raise KeyStateError(f"{session.node_id}: no master key to derive from")
        if session.ptk_active:
            raise KeyStateError(f"{session.node_id}: a pairwise key is already active")
        ordinal = self._session_ordinals.get(session.node_id, 0) + 1
        self._session_ordinals[session.node_id] = ordinal
        key = default_kdf(session.mk, ordinal)
        key_id = key[:8].hex()
        if key_id in self._issued_ptk_ids:
            raise KeyStateError(f"key derivation repeated id {key_id}")
        self._issued_ptk_ids.add(key_id)
        session.ptk = PairwiseKey(key_id, key)
        session.tx_counter = 0
        session.rx_counter = 0
        return session

    def teardown(self, node_id: str) -> None:
        """End the session: retire the PTK and forget the association."""
        if node_id not in self.sessions:
            raise ProtocolOrderError(f"{node_id} is not associated")
        del self.sessions[node_id]

    def distribute_gtk(self, group_id: str, node_ids: list[str]) -> GroupKeyState:
        """Share one group key over the members' secured unicast sessions."""
        for node_id in node_ids:
            session = self.sessions.get(node_id)
            if session is None:
                raise KeyStateError(f"{node_id} has no session")
            if session.level < SecurityLevel.AUTHENTICATED or not session.ptk_active:
                raise KeyStateError(
                    f"{node_id} lacks an active pairwise key; group key refused"
                )
        gtk_id = _digest(
            b"gtk", group_id.encode(), len(self.groups).to_bytes(4, "big")
        )[:8].hex()
        state = GroupKeyState(gtk_id, frozenset(node_ids))
        self.groups[group_id] = state
        return state


# Length prefixes of the fixed-size parts after the key.
_LEN1 = (1).to_bytes(4, "big")
_LEN4 = (4).to_bytes(4, "big")
# Indexed by level: a secured wire's first byte, and the framed level and
# counter length that _tag feeds after the key.
_LEVEL_BYTE = tuple(bytes([level]) for level in SecurityLevel)
_TAG_LEAD = tuple(_LEN1 + bytes([level]) + _LEN4 for level in SecurityLevel)


def _keystream(ptk: PairwiseKey, nonce: bytes, length: int) -> bytes:
    """Block i is _digest(b"stream", key, nonce, i), one per 32 bytes; the
    nonce is the frame counter as COUNTER_LEN big-endian bytes. The last
    keystream derived is kept and given again for the same nonce and
    length."""
    last_nonce, stream = ptk.last_stream
    if last_nonce == nonce and len(stream) == length:
        return stream
    nonced = ptk.stream_state.copy()
    nonced.update(_LEN4 + nonce + _LEN4)
    blocks = []
    for block in range(-(-length // 32)):
        h = nonced.copy()
        h.update(block.to_bytes(4, "big"))
        blocks.append(h.digest())
    stream = b"".join(blocks)[:length]
    ptk.last_stream = (nonce, stream)
    return stream


def _mask(body: bytes, ptk: PairwiseKey, nonce: bytes) -> bytes:
    """XOR the body with the keystream, as one integer operation."""
    stream = _keystream(ptk, nonce, len(body))
    return (int.from_bytes(body, "big") ^ int.from_bytes(stream, "big")).to_bytes(len(body), "big")


def _tag(ptk: PairwiseKey, level: int, nonce: bytes, body: bytes) -> bytes:
    """The first TAG_LEN bytes of _digest(b"tag", key, level, nonce, body)."""
    h = ptk.tag_state.copy()
    h.update(_TAG_LEAD[level] + nonce + len(body).to_bytes(4, "big") + body)
    return h.digest()[:TAG_LEN]


def spend_counter(session: SecuritySession) -> bytes:
    """The gate every outgoing frame of a secured session passes, sealed or
    not: it refuses the frame without an active pairwise key or once the
    counter is exhausted, else stamps the next counter; returns it as the
    frame's COUNTER_LEN-byte nonce."""
    if not session.ptk_active:
        raise KeyStateError(f"{session.node_id}: secured frame without an active pairwise key")
    counter = session.tx_counter + 1
    try:
        nonce = counter.to_bytes(COUNTER_LEN, "big")
    except OverflowError:
        raise KeyStateError(f"{session.node_id}: frame counter exhausted; re-key the session") from None
    session.tx_counter = counter
    return nonce


def secure_frame(body: bytes, session: SecuritySession) -> bytes:
    """Apply the session's level to an outgoing bytes-like body; a secured
    level passes the gate (spend_counter) first."""
    sent = frame_bytes(body, "body")
    level = session.level
    if level == _UNSECURED:
        return sent
    nonce = spend_counter(session)
    if level == _ENCRYPTED:
        sent = _mask(sent, session.ptk, nonce)
    return _LEVEL_BYTE[level] + nonce + sent + _tag(session.ptk, level, nonce, sent)


def admit_frame(wire: bytes, session: SecuritySession) -> bytes:
    """Validate an incoming bytes-like wire body against the session;
    return the body.

    Rejections: a frame at a different level than negotiated, a tag that
    does not verify under the session keys, and a counter at or below the
    last admitted one (replay). The replay floor moves only after the tag
    verifies.
    """
    wire = frame_bytes(wire, "wire")
    if session.level == _UNSECURED:
        return wire
    overhead = SECURITY_WIRE_OVERHEAD[session.level]
    if len(wire) < overhead:
        raise TagFailure("frame shorter than the secured envelope")
    if wire[0] != session.level:
        raise LevelMismatch(f"frame level {wire[0]}, session level {int(session.level)}")
    if not session.ptk_active:
        raise KeyStateError(f"{session.node_id}: no active pairwise key to admit with")
    nonce = wire[1 : 1 + COUNTER_LEN]
    counter = int.from_bytes(nonce, "big")
    sent = wire[1 + COUNTER_LEN : -TAG_LEN]
    tag = wire[-TAG_LEN:]
    if _tag(session.ptk, session.level, nonce, sent) != tag:
        raise TagFailure("authentication tag does not verify")
    if counter <= session.rx_counter:
        raise ReplayRejection(f"counter {counter} not above {session.rx_counter}")
    session.rx_counter = counter
    if session.level == _ENCRYPTED:
        sent = _mask(sent, session.ptk, nonce)
    return sent
