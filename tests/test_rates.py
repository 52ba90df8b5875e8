"""Rate engine against the published table and derived spreading search."""

import math
import re

import pytest

from bansim.errors import ConfigError
from bansim.phy.fec import check_code
from bansim.phy.rates import (
    HEADER_CODE,
    PHY_KEYS,
    PSDU_CODE,
    _BAND_INFO,
    Band,
    Modulation,
    PhyConfig,
    UWB_CHANNELS,
    builtin_rate_table,
    hbc_config,
    info_data_rate,
    nb_config,
    phy_config,
    uwb_config,
)

# Published information data rates, keyed by (band, component, rate entry).
# Hand-copied reference values; the engine must land within 0.1 Kbps.
PUBLISHED_KBPS = {
    ("402-405", "header"): 57.5,
    ("402-405", "low"): 75.9,
    ("402-405", "high"): 303.6,
    ("420-450", "header"): 57.5,
    ("420-450", "low"): 75.9,
    ("420-450", "high"): 151.8,
    ("863-870", "header"): 76.6,
    ("863-870", "low"): 101.2,
    ("863-870", "high"): 404.8,
    ("902-928", "header"): 91.9,
    ("902-928", "low"): 121.4,
    ("902-928", "high"): 485.7,
    ("950-956", "header"): 76.6,
    ("950-956", "low"): 101.2,
    ("950-956", "high"): 404.8,
    ("2360-2400", "header"): 91.9,
    ("2360-2400", "low"): 121.4,
    ("2360-2400", "high"): 485.7,
    ("2400-2483.5", "header"): 91.9,
    ("2400-2483.5", "low"): 121.4,
    ("2400-2483.5", "high"): 485.7,
}

BITS_PER_SYMBOL = {
    Modulation.DBPSK: 1,
    Modulation.GMSK: 1,
    Modulation.DQPSK: 2,
    Modulation.D8PSK: 3,
}


def table_by_key():
    rows = {}
    for row in builtin_rate_table():
        if row.component == "header":
            key = (row.band.value, "header")
        else:
            key = (row.band.value, "low" if row.config.rate_index == 0 else "high")
        rows[key] = row
    return rows


def test_all_21_published_rates_within_tolerance():
    rows = table_by_key()
    assert len(rows) == 21 == len(PUBLISHED_KBPS)
    for key, expected in PUBLISHED_KBPS.items():
        assert abs(rows[key].rate_kbps - expected) <= 0.1, (key, rows[key].rate_kbps)


def test_dqpsk_psdu_example():
    cfg = nb_config(Band.NB_402_405, "high")
    assert info_data_rate(cfg, "psdu") == pytest.approx(303.6, abs=0.1)


def test_spreading_factors_are_the_unique_solution():
    # Brute-force search: for each table entry, exactly one spreading value
    # in {1, 2, 4} reproduces the published rate within 0.1 Kbps.
    rows = table_by_key()
    for key, expected in PUBLISHED_KBPS.items():
        row = rows[key]
        n, k = row.fec
        base = row.config.symbol_rate * BITS_PER_SYMBOL[row.modulation] * k / n
        matches = [s for s in (1, 2, 4) if abs(base / s - expected) <= 0.1]
        assert matches == [row.spreading], (key, matches)


def test_unknown_modulation_rejected():
    # Refused when the config is built, so no rate is computed from it; a
    # rate override, which never reads the modulation, does not hide it.
    for cfg in (nb_config(Band.NB_402_405), nb_config(Band.NB_402_405)._replace(rate_override_kbps=187.5)):
        with pytest.raises(ConfigError, match="^modulation must be a Modulation, got 'qam-4096'$"):
            cfg._replace(modulation="qam-4096")


def test_an_unknown_narrowband_rate_is_refused_by_name():
    with pytest.raises(ConfigError, match="^rate must be 'low' or 'high', got 'mid'$"):
        nb_config(Band.NB_2400_2483, rate="mid")


def test_component_name_validated():
    with pytest.raises(ValueError):
        info_data_rate(nb_config(Band.NB_402_405), "payload")


def test_uwb_mandatory_rate_and_channels():
    cfg = uwb_config(2)
    assert info_data_rate(cfg, "psdu") == pytest.approx(488.2, abs=0.1)
    assert _BAND_INFO[cfg.band_id].bandwidth == pytest.approx(499.2)
    by_id = {c.channel_id: c for c in UWB_CHANNELS}
    assert len(by_id) == 11
    assert by_id[2].center_freq == pytest.approx(3993.6) and by_id[2].mandatory
    assert by_id[7].center_freq == pytest.approx(7987.2) and by_id[7].mandatory
    assert all(not c.mandatory for c in UWB_CHANNELS if c.channel_id not in (2, 7))
    assert all(c.channel_id <= 3 for c in UWB_CHANNELS if c.center_freq < 5000)


def test_each_uwb_channel_lies_in_its_band():
    # The low band holds channels 1..3, below 5 GHz, and the high band the
    # rest; channel 3 is the low band's last.
    for plan in UWB_CHANNELS:
        want = Band.UWB_LOW if plan.center_freq < 5000 else Band.UWB_HIGH
        assert uwb_config(plan.channel_id).band_id is want, plan


def test_hbc_band_metadata():
    for center in (16, 27):
        cfg = hbc_config(center)
        assert cfg.center_freq == pytest.approx(center)
        assert _BAND_INFO[cfg.band_id].bandwidth == pytest.approx(4.0)


def test_rate_override_pins_both_components():
    cfg = PhyConfig(
        band_id=Band.NB_2400_2483,
        modulation=Modulation.D8PSK,
        symbol_rate=600.0,
        rate_override_kbps=971.0,
    )
    assert info_data_rate(cfg, "psdu") == 971.0
    assert info_data_rate(cfg, "header") == 971.0


def test_invalid_spreading_rejected():
    with pytest.raises(ConfigError):
        PhyConfig(band_id=Band.NB_402_405, modulation=Modulation.DBPSK,
                  symbol_rate=187.5, spreading=3)


@pytest.mark.parametrize("symbol_rate", [math.nan, math.inf, -math.inf, 0.0, -187.5, "971", True])
def test_a_symbol_rate_that_is_not_positive_and_finite_is_refused(symbol_rate):
    # NaN passed the old `symbol_rate <= 0` check, and inf passed it too:
    # both gave configs whose every rate and airtime is NaN, inf or 0. A
    # string raised a bare TypeError, and True gave a 0.81 kbps rate.
    with pytest.raises(ConfigError, match="symbol rate must be positive and finite"):
        nb_config(Band.NB_402_405)._replace(symbol_rate=symbol_rate)


@pytest.mark.parametrize("override", [0, 0.0, -5, math.inf, math.nan, "971", True])
def test_a_rate_override_that_is_not_positive_and_finite_is_refused(override):
    # Each was taken: 0 divided by zero in every airtime, -5 gave a negative
    # airtime, inf a 150 us one, NaN NaN, a string a bare TypeError, and
    # True 1 kbps.
    with pytest.raises(ConfigError, match="rate override must be None or positive and finite"):
        nb_config(Band.NB_2400_2483)._replace(rate_override_kbps=override)


@pytest.mark.parametrize(
    ("name", "value", "enum"),
    [("band_id", "foo", "Band"), ("band_id", "402-405", "Band"), ("band_id", Modulation.DBPSK, "Band"),
     ("modulation", "foo", "Modulation"), ("modulation", "pi/2-DBPSK", "Modulation"),
     ("modulation", Band.NB_402_405, "Modulation"), ("header_modulation", "foo", "Modulation"),
     ("header_modulation", 1, "Modulation")],
    ids=["band-foo", "band-value", "band-modulation", "modulation-foo", "modulation-value", "modulation-band",
         "header-modulation-foo", "header-modulation-int"],
)
def test_a_band_or_modulation_that_is_not_its_enum_member_is_refused_by_name(name, value, enum):
    # A band name was a bare KeyError, a band's value string was stored as
    # a plain str, and an unknown modulation failed only when a rate was
    # computed, never under a rate override.
    with pytest.raises(ConfigError, match=f"^{name} must be a {enum}, got {re.escape(repr(value))}$"):
        nb_config(Band.NB_402_405)._replace(**{name: value})


@pytest.mark.parametrize("name", ["spreading", "header_spreading"])
@pytest.mark.parametrize("value", [True, 2.0, "2", 3])
def test_a_spreading_that_is_not_1_2_or_4_is_refused_by_name(name, value):
    # True was taken as a factor of 1, and 2.0 as 2.
    with pytest.raises(ConfigError, match=f"^{name} must be 1, 2, or 4, got {value!r}$"):
        nb_config(Band.NB_2400_2483)._replace(**{name: value})


# The fixed block code of each packet component.
FIXED_CODES = {"header_fec": HEADER_CODE, "psdu_fec": PSDU_CODE}


def test_a_code_the_block_coder_cannot_make_is_refused():
    # (40, 19) would carry 21 parity bits; the coder makes 0 or 12. The
    # fixed codes of both components are ones it makes.
    with pytest.raises(ConfigError, match=r"block code \(40,19\) needs k >= 1 and n - k of 0 or 12"):
        check_code((40, 19))
    for code in FIXED_CODES.values():
        assert check_code(code) == code


@pytest.mark.parametrize("fec", ["header_fec", "psdu_fec"])
@pytest.mark.parametrize(
    "as_code",
    [lambda n, k: (float(n), float(k)), lambda n, k: (n, float(k)), lambda n, k: (True, True)],
    ids=["floats", "float-k", "bools"],
)
def test_a_code_of_other_than_ints_is_refused(fec, as_code):
    # A component's fixed code with float n or k still has 12.0 parity bits
    # and passes the geometry rule, but the coder sizes arrays with n and k.
    with pytest.raises(ConfigError, match=r"block code \(.*\) needs int n and k"):
        check_code(as_code(*FIXED_CODES[fec]))


@pytest.mark.parametrize(
    ("cfg", "rate_index"),
    [(nb_config(Band.NB_402_405), 8), (nb_config(Band.NB_402_405), -1), (uwb_config(2), 16), (hbc_config(16), 8)],
    ids=["nb-8", "nb-minus-1", "uwb-16", "hbc-8"],
)
def test_a_rate_index_wider_than_its_header_field_is_refused(cfg, rate_index):
    # The header carries the index in this field: a wider one could be
    # timed and never built.
    with pytest.raises(ConfigError, match=f"rate index {rate_index} does not fit the {cfg.kind.value} header"):
        cfg._replace(rate_index=rate_index)


def test_every_rate_index_the_header_field_holds_is_accepted():
    for cfg, top in ((nb_config(Band.NB_402_405), 7), (uwb_config(2), 15), (hbc_config(16), 7)):
        assert cfg._replace(rate_index=top).rate_index == top


def fields(cfg):
    """A config's fields by name; PhyConfig defines no __eq__."""
    return {name: getattr(cfg, name) for name in PhyConfig.__slots__}


# A legal value of each family key.
KEY_VALUES = {"band": "402-405", "rate": "low", "channel": 7, "center": 27}


@pytest.mark.parametrize(
    ("kind", "key"),
    [(kind, key) for kind in PHY_KEYS for key in KEY_VALUES if key not in PHY_KEYS[kind]]
    + [("hbc", "center_mhz")],
)
def test_phy_config_refuses_a_key_of_another_family(kind, key):
    # A key of another family was ignored, so the config of one family
    # was built with another's key given.
    with pytest.raises(ConfigError, match=f"^{key} does not apply to kind {kind}$"):
        phy_config(kind, **{key: KEY_VALUES.get(key, 16)})


@pytest.mark.parametrize(
    ("kind", "given", "want"),
    [("nb", {}, nb_config(Band.NB_402_405, "high")), ("nb", {"rate": "low"}, nb_config(Band.NB_402_405, "low")),
     ("nb", {"band": "863-870"}, nb_config(Band.NB_863_870, "high")), ("uwb", {}, uwb_config(2)),
     ("uwb", {"channel": 7}, uwb_config(7)), ("hbc", {}, hbc_config(16)), ("hbc", {"center": 27}, hbc_config(27))],
)
def test_phy_config_takes_each_missing_key_from_its_factory(kind, given, want):
    # The factories' defaults: the 402-405 band at the high rate, channel 2, 16 MHz.
    assert fields(phy_config(kind, **given)) == fields(want)


@pytest.mark.parametrize(
    ("kind", "given", "message"),
    [("zigbee", {}, "phy kind must be nb, uwb, or hbc, got 'zigbee'"),
     ("nb", {"band": "2.4GHz"}, "unknown band '2.4GHz'"),
     ("nb", {"band": "uwb-low"}, "uwb-low is not a narrowband band"),
     ("uwb", {"channel": 12}, "channel 12 outside 1..11"),
     ("hbc", {"center": 5}, "band center must be 16 or 27 MHz, got 5")],
)
def test_phy_config_names_an_unknown_kind_band_channel_or_center(kind, given, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        phy_config(kind, **given)


@pytest.mark.parametrize(
    ("build", "message"),
    [(lambda: uwb_config(True), "channel True outside 1..11"),
     (lambda: uwb_config(2.0), "channel 2.0 outside 1..11"),
     (lambda: phy_config("uwb", channel=True), "channel True outside 1..11"),
     (lambda: hbc_config(16.0), "band center must be 16 or 27 MHz, got 16.0"),
     (lambda: phy_config("hbc", center=27.0), "band center must be 16 or 27 MHz, got 27.0")],
    ids=["uwb-bool", "uwb-float", "phy_config-uwb-bool", "hbc-float", "phy_config-hbc-float"],
)
def test_a_channel_or_center_that_is_not_an_int_is_refused_by_name(build, message):
    # A bool or a float compares equal to the int it stands for, so only
    # its type tells it apart.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()
