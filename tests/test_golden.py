"""Golden outputs pinned as SHA-256 digests of stored bytes.

The stats CSV and event trace of both bundled scenarios and of stress
scenarios, and the bit images of seeded frames of every signal family,
must stay byte-identical: a faster or refactored path has to reproduce
them exactly, not only agree with itself within one process.
"""

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from bansim.errors import FrameError
from bansim.phy.ppdu import build_ppdu, parse_ppdu
from bansim.phy.rates import Band, hbc_config, nb_config, uwb_config
from bansim.sim.kernel import run_to_files
from bansim.sim.scenario import compile_scenario, load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# (stats CSV, event trace) digests of each bundled scenario on its stored seed.
SCENARIO_DIGESTS = {
    "contention_pair": (
        "b313f016308b11f1c0174abcf3923e5853e09efb731d04374008dc48944add23",
        "f7d871b4d828d0361ce2533144a77b1352caf28702b745ff8ab01e034f70ea5f",
    ),
    "mixed_access": (
        "1d7404ebecc47817b54e1a2435cb5ba93e2d215b82a8b89cd1e79edcef06861d",
        "5ef4fa739e0257b99b95c96182b4f9b2821617f50364b7db59142fdaf6738219",
    ),
}

# The eight-phase layout of mixed_access.scn: 128 ms superframes; Beacon
# 0-2000 us, EAP1 2000-7000, RAP1 7000-32000, type I 32000-72000, EAP2
# 72000-77000, RAP2 77000-97000, type II 97000-122000, CAP 122000-128000.
_NB = "[phy]\nkind = nb\nband = 2400-2483.5\nrate = high\n"
_EIGHT_PHASES = """\
[superframe]
slot_length_us = 500
slots = 256
beacon_slots = 4
eap1_slots = 10
rap1_slots = 50
type_a_slots = 80
eap2_slots = 10
rap2_slots = 40
type_b_slots = 50
cap_slots = 12
"""


def _saturated_32() -> str:
    # Priorities 0..6 and one priority 7 node, which has the exclusive
    # phases to itself.
    nodes = "\n".join(
        f"n{i:02d} = priority={7 if i == 31 else i % 7}, traffic=saturated, "
        f"payload={20 + (37 * i) % 211}"
        for i in range(32)
    )
    return f"{_NB}{_EIGHT_PHASES}[nodes]\n{nodes}\n[run]\nseed = 32\nduration_ms = 3000\nchannel = collision\n"


# Every access kind, beacons every second superframe and two scheduled
# allocations sharing slots 70..89 on alternate superframes.
_EVERY_ACCESS_MODE = f"""\
{_NB}{_EIGHT_PHASES}beacon_period_multiplier = 2
[nodes]
hi = priority=7, traffic=poisson:150, payload=50
mid = priority=4, traffic=poisson:40, payload=120
lo = priority=2, traffic=saturated, payload=30
p1 = priority=5, traffic=poisson:30, payload=60, access=polled
p2 = priority=1, traffic=poisson:20, payload=20, access=polled
even = priority=5, traffic=poisson:12, payload=40, access=scheduled, slot_start=70, slot_len=20, period=2
odd = priority=5, traffic=saturated, payload=40, access=scheduled, slot_start=70, slot_len=20, period=2, offset=1
steady = priority=6, traffic=poisson:6, payload=90, access=scheduled, slot_start=100, slot_len=12
[security]
hi = level=1
p1 = level=2, group=ward
odd = level=2, group=ward
steady = level=1
[run]
seed = 5
duration_ms = 1024
channel = collision
"""

_UWB = """\
[phy]
kind = uwb
channel = 7
[superframe]
beacon_slots = 4
rap1_slots = 120
type_b_slots = 60
cap_slots = 72
[nodes]
a = priority=6, traffic=saturated, payload=200
b = priority=3, traffic=poisson:80, payload=60
c = priority=4, traffic=poisson:25, payload=100, access=polled
[security]
b = level=2
[run]
seed = 9
duration_ms = 640
channel = collision
"""

_HBC = """\
[phy]
kind = hbc
center = 16
[superframe]
slot_length_us = 1000
beacon_slots = 8
rap1_slots = 100
type_a_slots = 60
cap_slots = 88
[nodes]
a = priority=5, traffic=saturated, payload=40
b = priority=5, traffic=poisson:10, payload=120
s = priority=3, traffic=poisson:5, payload=30, access=scheduled, slot_start=120, slot_len=30
[run]
seed = 12
duration_ms = 1024
channel = collision
"""

# Arrivals exactly on phase starts (0, 2000, 7000, 72000, 77000, 122000,
# 128000), on slot-grid instants (phase start + 50 + k * 125 us), on the
# scheduled allocation's start (35000 us) and on poll grant starts
# (97000 + k * 2500 us).
_SAME_INSTANT = f"""\
{_NB}{_EIGHT_PHASES}poll_grant_us = 2500
[nodes]
ex = priority=7, traffic=scripted:0;2000;2050;2175;72000;72050;130050;200050;200175, payload=60
ra = priority=3, traffic=scripted:7000;7050;7175;7300;77000;77050;122000;122050;128000;135050, payload=90
rb = priority=4, traffic=scripted:7050;7175;77050;77175;122175;263050, payload=30
pol = priority=5, traffic=scripted:97000;99500;102000;225000, payload=60, access=polled
sch = priority=5, traffic=scripted:35000;163000;291000, payload=40, access=scheduled, slot_start=70, slot_len=20
[run]
seed = 3
duration_ms = 384
channel = collision
"""

# name -> (scenario, stats digest, trace digest or None for stats only).
# Recorded before the lean kernel loop (batched trace lines, the grid
# stopping early, one superframe at a time) changed the kernel; the
# mixed_access run is 120 s long (about 940 superframes).
STRESS_DIGESTS = {
    "saturated_32": (
        _saturated_32(),
        "cad1d4d2c59adcdf952a331307781bd782ad96896242a41813641b8ee7ac8dba",
        "5f18580848790e3f110544cf2ad5003c9410089b35eb3471e87bd8a7b01e713c",
    ),
    "every_access_mode": (
        _EVERY_ACCESS_MODE,
        "36435d2053f3f8373062a16e30d2ae82d157f031d7ed04905d351b7ff3e5434c",
        "51cd9a2c2f0a4cb0f88f50f17becd2b2040dce5a80089b5c43511fbea2cb90b4",
    ),
    "uwb": (
        _UWB,
        "83094f9354443766f2e3668bea1c715784c84114c8ba0e5f28030681646d6ead",
        "63713d271f159c75c5e7b277a9692507ebea66c289a05c11780f78f9c4d475a6",
    ),
    "hbc": (
        _HBC,
        "0774c254de4c00cd597bb902af57f169b6ce9af7d3255370b806dd87d5f3f9f7",
        "37e64750e3e347d7ddc5fde901918babb12bbb2c5401dbdd8f4599b4ec34fc87",
    ),
    "same_instant": (
        _SAME_INSTANT,
        "8a079910f5c22834ba532c418fb719329bdc2b993ef4cc95083ac9f5549ddadb",
        "e981ddb3b16888ff307f10bcbe948702a231bf09b2bfacf042859188cc0a192e",
    ),
    "mixed_access_120s": (
        None,
        "8c51fd6dad99d81b5131eb7a604f8847f0a7face67af38b93e1550f67015b49f",
        None,
    ),
}


# Scenarios that stack instants on the edges of a frame exchange: its data
# end, its acknowledgement and its delivery. With no pSIFS and no guard
# time a priority 7 node's slot and exchange take two superframe slots, so
# deliveries land on the RAP1 end (where a poll grant starts), on the
# polled phase's end and on the next beacon.
_ZERO_SPACING = f"""\
{_NB}[superframe]
slot_length_us = 999
slots = 64
beacon_slots = 4
rap1_slots = 30
type_b_slots = 20
cap_slots = 10
[csma]
psifs_us = 0
slot_us = 329
gtn_us = 0
[nodes]
a = priority=7, traffic=saturated, payload=40
p = priority=5, traffic=poisson:300, payload=60, access=polled
[run]
seed = 6
duration_ms = 300
channel = collision
"""

# A secured polled node whose exchange (no guard time) fills two slots: its
# last grant of the type II phase ends on the phase end, where the CAP's
# contenders enter.
_GRANT_ON_PHASE_END = f"""\
{_NB}[superframe]
slot_length_us = 1131
slots = 58
beacon_slots = 4
rap1_slots = 24
type_b_slots = 18
cap_slots = 12
[csma]
gtn_us = 0
[nodes]
a = priority=4, traffic=saturated, payload=70
b = priority=6, traffic=poisson:80, payload=20
p = priority=5, traffic=poisson:400, payload=60, access=polled
[security]
p = level=2
[run]
seed = 8
duration_ms = 400
channel = collision
"""

# Scripted arrivals on a delivery instant and on the resume tick one pSIFS
# later: b's first on a's delivery at 4894 us, b's second on a's resume at
# 9590 us, and a's own on its delivery at 71894 us and its resume at 71944 us.
_ARRIVALS_ON_EDGES = f"""\
{_NB}[superframe]
beacon_slots = 4
rap1_slots = 120
cap_slots = 132
[nodes]
a = priority=7, traffic=scripted:3000;3000;9000;70000;71894;71944, payload=40
b = priority=3, traffic=scripted:4894;9590, payload=90
[run]
seed = 4
duration_ms = 128
channel = collision
"""

# One secured contention node on the ideal channel beside a polled and a
# scheduled one.
_IDEAL_ONE_NODE = f"""\
{_NB}{_EIGHT_PHASES}[nodes]
c = priority=4, traffic=saturated, payload=50
p = priority=5, traffic=poisson:40, payload=60, access=polled
s = priority=5, traffic=poisson:20, payload=40, access=scheduled, slot_start=70, slot_len=20
[security]
c = level=2
[run]
seed = 10
duration_ms = 512
channel = ideal
"""


def _lone_node(duration_ms: int) -> str:
    # One priority 7 node in a 50 ms RAP1: its exchanges end at 1894 us
    # steps. 26 ms falls between a data end (25961 us) and its ack (26011
    # us); 9 ms between an ack (8965 us) and its delivery (9470 us).
    return (f"{_NB}[superframe]\nslots = 100\nbeacon_prohibited = true\nrap1_slots = 100\n"
            f"[nodes]\na = priority=7, traffic=saturated, payload=40\n[run]\nduration_ms = {duration_ms}\n")


# name -> (scenario, stats digest, trace digest), recorded before a clean
# exchange became one heap event.
EDGE_DIGESTS = {
    "zero_spacing": (
        _ZERO_SPACING,
        "c5bda1f394c61a386f7054872637d0d168da16bb93a1eae0d323cfe119a0be20",
        "f2c99a97ddb1a3cb4955996556ec795dc5e800ce24b9880a95f26e278769b648",
    ),
    "grant_on_phase_end": (
        _GRANT_ON_PHASE_END,
        "bbe1c8eb139875400a659f031fadc4053f5db7fc3459d331e867e124eb55c088",
        "3f44e9e144b198064a369811729b14495ee3ce547e08a99f06c23296bdb2f5d4",
    ),
    "arrivals_on_edges": (
        _ARRIVALS_ON_EDGES,
        "c3848a6a33066f5859e94358fd738919e1f163cd100a9cb6a0b73d21df25d718",
        "da0b45df434b5863b1e8cbc09013f7da664cda4ac8d95941f736eaf1d9a799a0",
    ),
    "ideal_one_node": (
        _IDEAL_ONE_NODE,
        "4be229dba1ca26fe52bcd6ccaedad6ea57620e8df08f7fa7aba3733c3bd0a93e",
        "b37a709a02da7fbf65060b68de57fada4056b69435050ca2a371fcdb5a80fc14",
    ),
    "ends_before_the_ack": (
        _lone_node(26),
        "928b8db7ac1298ee32e4f19aa62b07a9147fca37de80f9c67ad372c369b0fd91",
        "7540b56b26fd56c53105579c8c387780309723969d669265b703fbf3b415de70",
    ),
    "ends_before_the_delivery": (
        _lone_node(9),
        "fd5870df48e78deb26bf1edaeda991653dcd81e488909f73f9cf22cd9939b6de",
        "29bcc984d57fd0ac47fbeaa369b59853743245a04d9706e262de89bf3dd7d4c5",
    ),
}


def overloaded(duration_ms: int) -> str:
    """One node offered 50,000 frames/s in a lone RAP1. It delivers one
    frame per 1.9 ms or so, so nearly every arrival stays queued: about
    20,000 at the end of 400 ms."""
    return (f"{_NB}[superframe]\nslots = 100\nbeacon_prohibited = true\nrap1_slots = 100\n"
            f"[nodes]\na = priority=7, traffic=poisson:50000, payload=40\n[run]\nduration_ms = {duration_ms}\n")


# (stats, trace) digests of overloaded(400), recorded while the kernel
# still kept each queued frame's arrival time.
OVERLOADED_DIGESTS = (
    "1a4c027078d0dfd952c2fc74874ec11a70899f7872cb4a0707b9b887dac388cd",
    "d139288f811765748ffe7021c075464c8dc9a760a4602473a08897d97129e713",
)


def _stress_scenario(name: str, text):
    if text is not None:
        return parse_scenario(text)
    sc = load_scenario(SCENARIO_DIR / "mixed_access.scn")
    return sc._replace(run=sc.run._replace(duration_us=120_000_000))


# Narrowband with and without payload spreading, pulse radio, body-coupled.
CODEC_CONFIGS = [
    nb_config(Band.NB_402_405, "high"),
    nb_config(Band.NB_2360_2400, "low"),
    uwb_config(2),
    hbc_config(16),
]
FRAMES_PER_CONFIG = 40
IMAGES_DIGEST = "79b79c44a1a68448225cd55c6b5dec64d25da8cb4f8afa79331654970e77e82f"
# (bit index, error class, message) of every single-bit flip and every
# truncation of one short frame per config: pins which check fires first
# and the codeword index that parity failures name.
OUTCOMES_DIGEST = "a06fb326ba8381c46fe447eae4671e11c4720fe23a374adf3468493b1cf99afa"
# (images, outcomes) digests as above for narrowband 402-405 low, spreading 2.
SPREAD2_DIGESTS = (
    "ec9b040468ebaaa0e50e0819ac840821541315fc13f2583bdc2cddb739a2e373",
    "fae42fd6d8b5d792359a837455526b43d061591ba5d231ed2ac1a0d604816c6b",
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_bundled_scenario_bytes_are_pinned(name, tmp_path):
    stats, trace = tmp_path / "stats.csv", tmp_path / "trace.txt"
    run_to_files(load_scenario(SCENARIO_DIR / f"{name}.scn"), stats, trace)
    assert (_sha256(stats), _sha256(trace)) == SCENARIO_DIGESTS[name]


@pytest.mark.parametrize("name", list(STRESS_DIGESTS))
def test_stress_scenario_bytes_are_pinned(name, tmp_path):
    text, stats_digest, trace_digest = STRESS_DIGESTS[name]
    stats, trace = tmp_path / "stats.csv", tmp_path / "trace.txt"
    run_to_files(_stress_scenario(name, text), stats, trace if trace_digest else None)
    assert _sha256(stats) == stats_digest
    if trace_digest:
        assert _sha256(trace) == trace_digest


@pytest.mark.parametrize("name", list(EDGE_DIGESTS))
def test_exchange_edge_bytes_are_pinned(name, tmp_path):
    text, stats_digest, trace_digest = EDGE_DIGESTS[name]
    stats, trace = tmp_path / "stats.csv", tmp_path / "trace.txt"
    run_to_files(parse_scenario(text), stats, trace)
    assert (_sha256(stats), _sha256(trace)) == (stats_digest, trace_digest)


def test_overloaded_run_bytes_are_pinned(tmp_path):
    stats, trace = tmp_path / "stats.csv", tmp_path / "trace.txt"
    run_to_files(parse_scenario(overloaded(400)), stats, trace)
    assert (_sha256(stats), _sha256(trace)) == OVERLOADED_DIGESTS


def _times(lines, event, node=None):
    """The instants of `event` lines, of `node`'s alone if given."""
    return {int(t) for t, n, e, *_ in (line.split(",") for line in lines) if e == event and node in (None, n)}


def _phase_ends(sc):
    """Every phase end of the run, superframe by superframe."""
    layout = compile_scenario(sc).layout
    ends = {(span.start_slot + span.length_slots) * layout.slot_length_us for span in layout.phases}
    return {base + end for base in range(0, sc.run.duration_us, layout.duration_us) for end in ends}


def test_the_edge_scenarios_reach_their_edges(tmp_path):
    runs = {}
    for name, (text, _, _) in EDGE_DIGESTS.items():
        sc, trace = parse_scenario(text), tmp_path / f"{name}.txt"
        runs[name] = sc, run_to_files(sc, tmp_path / "stats.csv", trace), trace.read_text().splitlines()

    sc, _, lines = runs["zero_spacing"]
    ends = _phase_ends(sc)
    beacons = _times(lines, "tx_start", "hub")
    assert _times(lines, "success", "a") & beacons
    assert _times(lines, "success", "a") & (ends - beacons)
    assert _times(lines, "success", "p") & ends

    sc, _, lines = runs["grant_on_phase_end"]
    assert _times(lines, "success", "p") & _phase_ends(sc)

    sc, _, lines = runs["arrivals_on_edges"]
    arrivals = {t for node in sc.nodes for t in node.traffic[1]}
    delivered = _times(lines, "success")
    assert arrivals & delivered
    assert arrivals & {t + sc.timing.psifs_us for t in delivered}

    sc, stats, _ = runs["ideal_one_node"]
    assert sc.run.channel == "ideal" and stats.delivered > 0 and stats.failed == 0

    # The run ends after the last line's hop and before the next one's.
    for name, cut in (("ends_before_the_ack", "tx_end"), ("ends_before_the_delivery", "ack")):
        _, _, lines = runs[name]
        assert lines[-1].split(",")[2] == cut, name


def lock_breaks(lines: list[str]) -> list[str]:
    """The trace lines that break a node's lock/unlock pairing: a lock
    while its last lock is still open, an unlock with none open or whose
    counter, window or failure count differs from its lock's, and a count,
    draw or tx_start of the node between the two. A renderer may reuse a
    lock line's state text for its unlock only because none occur."""
    open_locks: dict[str, list[str]] = {}  # node -> the fields of its open lock
    breaks = []
    for line in lines:
        _, node, event, *fields = line.split(",")
        if event == "lock":
            if node in open_locks:
                breaks.append(line)
            open_locks[node] = fields[:3]
        elif event == "unlock":
            if open_locks.pop(node, None) != fields[:3]:
                breaks.append(line)
        elif event in ("count", "draw", "tx_start") and node in open_locks:
            breaks.append(line)
    return breaks


def test_lock_breaks_sees_each_kind_of_break():
    assert lock_breaks(["0,a,lock,3,8,0,rap1", "9,b,count,2,8,0,rap1", "9,a,unlock,3,8,0,rap1"]) == []
    for bad in ("0,a,lock,3,8,0,rap1", "5,a,unlock,2,8,0,rap1", "5,a,count,2,8,0,rap1",
                "5,a,draw,3,8,0,rap1", "5,a,tx_start,3,8,0,rap1"):
        assert lock_breaks(["0,a,lock,3,8,0,rap1", bad]) == [bad]
    assert lock_breaks(["0,a,unlock,3,8,0,rap1"]) == ["0,a,unlock,3,8,0,rap1"]


_TRACED = [(name, None) for name in sorted(SCENARIO_DIGESTS)] + [
    (name, text) for name, (text, _, trace_digest) in STRESS_DIGESTS.items() if trace_digest
]


@pytest.mark.parametrize("name, text", _TRACED, ids=[name for name, _ in _TRACED])
def test_a_locked_state_is_unchanged_until_its_unlock(name, text, tmp_path):
    sc = load_scenario(SCENARIO_DIR / f"{name}.scn") if text is None else parse_scenario(text)
    trace = tmp_path / "trace.txt"
    run_to_files(sc, tmp_path / "stats.csv", trace)
    want = SCENARIO_DIGESTS[name][1] if text is None else STRESS_DIGESTS[name][2]
    assert _sha256(trace) == want  # the property is checked on the pinned bytes
    lines = trace.read_text().splitlines()
    assert sum(",unlock," in line for line in lines) > 0
    assert lock_breaks(lines) == []


def _images_digest(configs) -> str:
    h = hashlib.sha256()
    for cfg in configs:
        rng = random.Random(f"golden-{cfg.band_id.value}-{cfg.spreading}")
        for _ in range(FRAMES_PER_CONFIG):
            bits = build_ppdu(cfg, rng.randbytes(7), rng.randbytes(rng.randrange(256))).bits
            h.update(len(bits).to_bytes(4, "big"))
            h.update(np.packbits(bits).tobytes())
    return h.hexdigest()


def test_frame_bit_images_are_pinned():
    assert _images_digest(CODEC_CONFIGS) == IMAGES_DIGEST


@pytest.mark.parametrize(
    "cfg",
    CODEC_CONFIGS + [nb_config(Band.NB_2400_2483, "high"), uwb_config(7), hbc_config(27)],
    ids=lambda cfg: f"{cfg.band_id.value}-spread{cfg.spreading}",
)
def test_sync_pattern_length_matches_config(cfg):
    # The airtime formula counts sync time from cfg.preamble_symbols, so the
    # sync pattern the codec emits must be exactly that long.
    ppdu = build_ppdu(cfg, bytes(7), b"")
    assert len(ppdu.preamble_bits) + len(ppdu.sfd_bits) == cfg.preamble_symbols


def _outcome(tag: str, index: int, bits: np.ndarray, cfg) -> bytes:
    try:
        parse_ppdu(bits, cfg)
    except FrameError as exc:
        return f"{tag} {index} {type(exc).__name__} {exc}\n".encode()
    return f"{tag} {index} accepted\n".encode()


def _outcomes_digest(configs) -> str:
    h = hashlib.sha256()
    for cfg in configs:
        image = build_ppdu(cfg, bytes(range(7)), b"flip").bits
        for i in range(len(image)):
            flipped = image.copy()
            flipped[i] ^= 1
            h.update(_outcome("flip", i, flipped, cfg))
        for n in range(len(image)):
            h.update(_outcome("cut", n, image[:n], cfg))
    return h.hexdigest()


def test_flip_and_truncation_outcomes_are_pinned():
    assert _outcomes_digest(CODEC_CONFIGS) == OUTCOMES_DIGEST


def test_spreading_2_images_and_outcomes_are_pinned():
    # CODEC_CONFIGS spreads by 1 and 4; the low narrowband rates of 402-405 spread by 2.
    cfg = nb_config(Band.NB_402_405, "low")
    assert cfg.spreading == 2
    assert (_images_digest([cfg]), _outcomes_digest([cfg])) == SPREAD2_DIGESTS
