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
    Plan,
    RunSpec,
    Scenario,
    SecuritySpec,
    compile_scenario,
    load_scenario,
    parse_scenario,
)
from bansim.sim.stats import NodeStats, RunStats, STATS_FIELDS, write_stats_csv

__all__ = [
    "EventKind",
    "NodeSpec",
    "NodeStats",
    "Plan",
    "RunSpec",
    "RunStats",
    "STATS_FIELDS",
    "Scenario",
    "SecuritySpec",
    "Simulation",
    "compile_scenario",
    "load_scenario",
    "parse_scenario",
    "run",
    "run_to_files",
    "write_stats_csv",
    "write_trace",
]
