"""Airtime and frame conservation: long runs pass, a lost airtime fails.

Busy time and the per-kind airtime totals are float running sums of the
same terms in different orders, so they drift apart by rounding as a run
grows; the check must tolerate that drift and nothing more.
"""

import dataclasses
from functools import reduce
from itertools import chain, repeat
from operator import add
from pathlib import Path

import pytest

from bansim.cli import main
from bansim.errors import SimulationError
from bansim.phy.ppdu import frame_airtime_us
from bansim.phy.rates import Band, nb_config
from bansim.sim.kernel import run
from bansim.sim.scenario import load_scenario
from bansim.sim.stats import NodeStats, RunStats

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
HOUR_US = 3_600_000_000


@pytest.mark.parametrize("name", ["contention_pair", "mixed_access"])
def test_minute_long_bundled_run_conserves(name):
    sc = load_scenario(SCENARIO_DIR / f"{name}.scn")
    sc = dataclasses.replace(sc, run=dataclasses.replace(sc.run, duration_us=60_000_000))
    stats, _ = run(sc)  # ends in check_conservation
    assert stats.transmissions > 0


def _saturated_hour(drop_ack: bool) -> RunStats:
    """Stats of one node exchanging data and acks back to back for an hour,
    summed in event order as the kernel sums them."""
    cfg = nb_config(Band.NB_2400_2483, "high")
    data, ack = frame_airtime_us(cfg, 80), frame_airtime_us(cfg, 0)
    exchanges = int(HOUR_US // (data + ack))
    node = NodeStats("a", offered=exchanges, delivered=exchanges)
    node.tx_airtime_us = reduce(add, repeat(data, exchanges))
    busy = reduce(add, chain.from_iterable(repeat((data, ack), exchanges)))
    return RunStats(
        elapsed_us=HOUR_US,
        nodes={"a": node},
        busy_us=busy - ack if drop_ack else busy,
        ack_airtime_us=reduce(add, repeat(ack, exchanges)),
        transmissions=2 * exchanges - drop_ack,
    )


def test_hour_long_sums_pass():
    _saturated_hour(drop_ack=False).check_conservation()


def test_one_dropped_ack_in_an_hour_fails():
    with pytest.raises(SimulationError, match="airtime sum"):
        _saturated_hour(drop_ack=True).check_conservation()


def test_lost_frame_fails():
    stats = RunStats(elapsed_us=1000, nodes={"a": NodeStats("a", offered=2, delivered=1)})
    with pytest.raises(SimulationError, match="offered 2"):
        stats.check_conservation()


def test_run_that_loses_one_airtime_fails_in_the_cli(monkeypatch, tmp_path, capsys):
    add_busy = RunStats.add_busy

    def lose_first(self, airtime_us):
        add_busy(self, 0.0 if self.transmissions == 0 else airtime_us)

    monkeypatch.setattr(RunStats, "add_busy", lose_first)
    scenario = str(SCENARIO_DIR / "contention_pair.scn")
    assert main(["simulate", scenario, "--out", str(tmp_path / "stats.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: SimulationError: busy ")
