"""Golden outputs pinned as SHA-256 digests of stored bytes.

The stats CSV and event trace of both bundled scenarios and the bit images
of seeded frames of every signal family must stay byte-identical: a faster
or refactored path has to reproduce them exactly, not only agree with
itself within one process.
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
from bansim.sim.scenario import load_scenario

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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_bundled_scenario_bytes_are_pinned(name, tmp_path):
    stats, trace = tmp_path / "stats.csv", tmp_path / "trace.txt"
    run_to_files(load_scenario(SCENARIO_DIR / f"{name}.scn"), stats, trace)
    assert (_sha256(stats), _sha256(trace)) == SCENARIO_DIGESTS[name]


def test_frame_bit_images_are_pinned():
    h = hashlib.sha256()
    for cfg in CODEC_CONFIGS:
        rng = random.Random(f"golden-{cfg.band_id.value}-{cfg.spreading}")
        for _ in range(FRAMES_PER_CONFIG):
            bits = build_ppdu(cfg, rng.randbytes(7), rng.randbytes(rng.randrange(256))).bits
            h.update(len(bits).to_bytes(4, "big"))
            h.update(np.packbits(bits).tobytes())
    assert h.hexdigest() == IMAGES_DIGEST


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


def test_flip_and_truncation_outcomes_are_pinned():
    h = hashlib.sha256()
    for cfg in CODEC_CONFIGS:
        image = build_ppdu(cfg, bytes(range(7)), b"flip").bits
        for i in range(len(image)):
            flipped = image.copy()
            flipped[i] ^= 1
            h.update(_outcome("flip", i, flipped, cfg))
        for n in range(len(image)):
            h.update(_outcome("cut", n, image[:n], cfg))
    assert h.hexdigest() == OUTCOMES_DIGEST
