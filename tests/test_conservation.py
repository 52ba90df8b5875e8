"""Frame conservation: long runs pass, a lost or doubled frame fails.

Every frame offered to a node is either delivered or still queued when the
run ends; the check compares the backlog that drives the run with the
counters it reports, and a run that breaks it fails in the CLI.
"""

from pathlib import Path

import pytest

from bansim.cli import main
from bansim.errors import SimulationError
from bansim.sim.kernel import Simulation, run
from bansim.sim.scenario import load_scenario
from bansim.sim.stats import NodeStats, RunStats

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def count_one_arrival_twice(monkeypatch):
    """Make every run offer its first node's first frame twice."""
    seed_traffic = Simulation._seed_traffic

    def seed_twice(self):
        seed_traffic(self)
        self.nodes[min(self.nodes)].stats.offered += 1

    monkeypatch.setattr(Simulation, "_seed_traffic", seed_twice)


@pytest.mark.parametrize("name", ["contention_pair", "mixed_access"])
def test_minute_long_bundled_run_conserves(name):
    sc = load_scenario(SCENARIO_DIR / f"{name}.scn")
    sc = sc._replace(run=sc.run._replace(duration_us=60_000_000))
    stats, _ = run(sc)  # ends in check_conservation
    assert stats.delivered > 0


def test_lost_frame_fails():
    stats = RunStats(elapsed_us=1000, nodes={"a": NodeStats("a", offered=2, delivered=1)})
    with pytest.raises(SimulationError, match="offered 2"):
        stats.check_conservation()


def test_run_that_counts_one_arrival_twice_fails_in_the_cli(monkeypatch, tmp_path, capsys):
    count_one_arrival_twice(monkeypatch)
    scenario = str(SCENARIO_DIR / "contention_pair.scn")
    assert main(["simulate", scenario, "--out", str(tmp_path / "stats.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: SimulationError: alice: delivered ")
