"""Discrete-event simulation: scenarios, kernel, and run statistics."""

from bansim.sim.kernel import (
    EventKind,
    Simulation,
    run,
    run_to_files,
    write_trace,
)
from bansim.sim.scenario import (
    NodeSpec,
    RunSpec,
    Scenario,
    SecuritySpec,
    load_scenario,
    parse_scenario,
    validate_scenario,
)
from bansim.sim.stats import NodeStats, RunStats, STATS_FIELDS, write_stats_csv

__all__ = [
    "EventKind",
    "NodeSpec",
    "NodeStats",
    "RunSpec",
    "RunStats",
    "STATS_FIELDS",
    "Scenario",
    "SecuritySpec",
    "Simulation",
    "load_scenario",
    "parse_scenario",
    "run",
    "run_to_files",
    "validate_scenario",
    "write_stats_csv",
    "write_trace",
]
