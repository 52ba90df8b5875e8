"""Every public library entry refuses bad input by name.

A call with any argument returns, raises a BansimError, or raises a
TypeError or ValueError whose message names an argument of the call. It
never fails inside numpy, from a bare comparison or from a missing
attribute, and it never warns. A PhyConfig that construction returns is
one the library can use: its centre frequency is positive and finite,
and its frames have a positive, finite airtime.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bansim.efficiency import analytic_efficiency
from bansim.errors import BansimError
from bansim.phy.ppdu import build_ppdu, parse_ppdu
from bansim.phy.rates import Band, Modulation, PhyConfig, frame_airtime_us, hbc_config, nb_config, uwb_config
from bansim.security import SecurityManager

CONFIGS = [nb_config(Band.NB_402_405, "high"), nb_config(Band.NB_2400_2483, "low"), uwb_config(2), hbc_config(16)]

# Values a caller may pass by mistake, and the right ones among them.
ANY = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-300, 300),
    st.integers(),
    st.floats(),
    st.complex_numbers(),
    st.text(max_size=4),
    st.binary(max_size=12),
    st.lists(st.integers(-1, 2), max_size=4),
    st.lists(st.lists(st.integers(0, 1), max_size=3), max_size=3),
    st.sampled_from([*CONFIGS, Band.UWB_LOW, Modulation.DBPSK, np.zeros(3, np.uint8), np.float64("nan")]),
)


@st.composite
def images(draw):
    """Any value, or a built frame's image, cut or not, as a list, a ragged
    list, or an array of a real, complex or object dtype."""
    form = draw(st.sampled_from(["any", "list", "ragged", "bool", "float", "complex", "object", "object complex"]))
    if form == "any":
        return draw(ANY)
    bits = build_ppdu(draw(st.sampled_from(CONFIGS)), bytes(7), draw(st.binary(max_size=8))).bits
    bits = bits[: draw(st.integers(0, len(bits)))]
    if form == "list":
        return bits.tolist()
    if form == "ragged":
        return [bits.tolist(), [1]]
    if form == "object complex":
        return np.array([complex(bit) for bit in bits], dtype=object)
    return bits.astype({"bool": bool, "float": float, "complex": complex, "object": object}[form])


def _usable(cfg: PhyConfig) -> None:
    assert isinstance(cfg.center_freq, (int, float)) and 0 < cfg.center_freq < math.inf, cfg.center_freq
    assert 0 < frame_airtime_us(cfg, 10) < math.inf


def _phy_config(draw):
    """A PhyConfig of CONFIGS[0]'s fields with one of them replaced."""
    base = {name: getattr(CONFIGS[0], name) for name in PhyConfig.__slots__}
    _usable(PhyConfig(**base | {draw(st.sampled_from(PhyConfig.__slots__)): draw(ANY)}))


def _either(right):
    return st.one_of(st.just(right), ANY)


# entry -> (the names a refusal may give its argument by, a function of
# hypothesis's `draw` that makes one call). A PhyConfig refusal is a
# ConfigError.
ENTRIES = {
    "build_ppdu": (
        ("cfg", "mac_header", "mac header", "body"),
        lambda draw: build_ppdu(draw(_either(CONFIGS[0])), draw(_either(bytes(7))), draw(_either(b"body"))),
    ),
    "parse_ppdu": (("image", "cfg"), lambda draw: parse_ppdu(draw(images()), draw(_either(CONFIGS[2])))),
    "frame_airtime_us": (("body_len",), lambda draw: frame_airtime_us(draw(st.sampled_from(CONFIGS)), draw(ANY))),
    "analytic_efficiency": (
        ("payload",), lambda draw: analytic_efficiency(draw(ANY), draw(st.sampled_from(CONFIGS)))
    ),
    "PhyConfig": ((), _phy_config),
    "associate": (
        ("node_id", "level"),
        lambda draw: SecurityManager().associate(draw(_either("n1")), draw(_either(1)), draw(_either("preshared"))),
    ),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_an_entry_refuses_bad_input_by_name(entry, data):
    names, call = ENTRIES[entry]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(data.draw)
    except BansimError:
        pass
    except (TypeError, ValueError) as exc:
        assert any(name in str(exc) for name in names), f"{type(exc).__name__}: {exc}"
