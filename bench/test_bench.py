"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Advances by the amount the test asks for; each read returns now."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_of_synthetic_spans():
    # outer [0,100] holds a [10,40] (which holds c [20,30]) and b [50,70].
    spans = [
        ("outer", 0, 100, -1, 1),
        ("a", 10, 40, 0, 1),
        ("c", 20, 30, 1, 1),
        ("b", 50, 70, 0, 1),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20]


def test_self_time_of_a_nested_wrapped_call():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 7

    def middle():
        clock.now += 3
        wrapped_leaf()
        clock.now += 5
        wrapped_leaf()

    def top():
        clock.now += 11
        wrapped_middle()
        counted()

    wrapped_leaf = tracer.span_wrapper(leaf, "leaf")
    wrapped_middle = tracer.span_wrapper(middle, "middle")
    counted = tracer.count_wrapper(lambda: None, "pred")
    tracer.span_wrapper(top, "top")()

    summary = tracing.summarize(tracer.spans(), tracer.counts)
    assert summary["top.self_s"] * 1e9 == 11
    assert summary["middle.self_s"] * 1e9 == 8
    assert summary["leaf.self_s"] * 1e9 == 14
    assert summary["leaf.calls"] == 2
    assert summary["pred.calls"] == 1
    names = [name for name, *_ in tracer.spans()]
    parents = [parent for *_, parent, _ in tracer.spans()]
    assert names == ["top", "middle", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1]


def test_traced_run_restores_every_original():
    import bansim.efficiency  # noqa: F401  every traced module loaded up front
    import bansim.mac.superframe as superframe
    import bansim.sim.kernel as kernel
    from bansim.sim.scenario import load_scenario
    from bansim.sim.stats import RunStats

    originals = {
        (module, attr): value
        for module in [m for n, m in sorted(sys.modules.items()) if n.startswith("bansim")]
        for attr, value in vars(module).items()
        if callable(value)
    }
    conservation = RunStats.__dict__["check_conservation"]
    tracer = tracing.Tracer()
    with tracer.patched():
        assert kernel.admissible.__wrapped__ is superframe.admissible.__wrapped__
        assert RunStats.__dict__["check_conservation"] is not conservation
        kernel.run(load_scenario(ROOT / "scenarios" / "mixed_access.scn"))
    assert tracer.counts["mac.superframe.admissible"] > 0
    assert tracer.leftovers() == []
    assert RunStats.__dict__["check_conservation"] is conservation
    for (module, attr), value in originals.items():
        assert vars(module)[attr] is value, f"{module.__name__}.{attr} left patched"


NOMINAL_NS = int(speed.NOMINAL_CHUNK_S * 1e9)


def _chunk_at(start_ns: int, host_speed: float) -> tuple[int, int]:
    """A reference sample starting at start_ns on a host running at
    host_speed times the nominal speed."""
    return (start_ns, start_ns + round(NOMINAL_NS / host_speed))


def test_scaled_time_reads_speed_and_takes_out_sampling():
    start, end = 10**7, 10**7 + 10**9  # one second of host time
    samples = [_chunk_at(0, 1.0), _chunk_at(5 * 10**8, 0.5), _chunk_at(end, 1.0)]
    inside = samples[1][1] - samples[1][0]
    want = (10**9 - inside) / 1e9 * (1.0 + 0.5 + 1.0) / 3
    assert speed.scaled_s(start, end, [samples]) == pytest.approx(want)


def test_scaled_time_of_parallel_processes_follows_the_slowest():
    start, end = 0, 10**9
    fast = [_chunk_at(10**8, 2.0), _chunk_at(6 * 10**8, 2.0)]
    slow = [_chunk_at(2 * 10**8, 0.5), _chunk_at(7 * 10**8, 0.5)]
    sampling = 2 * 2 * NOMINAL_NS
    assert speed.scaled_s(start, end, [fast, slow]) == pytest.approx((10**9 - sampling) / 1e9 * 0.5)


def test_scaled_set_up_takes_the_nearest_sample_of_any_process():
    parent = [_chunk_at(0, 4.0), _chunk_at(10**6, 1.0)]
    child = [_chunk_at(10**9, 0.5), _chunk_at(2 * 10**9, 4.0)]
    start, end = parent[-1][1], child[0][0]
    assert speed.scaled_s(start, end, [parent, child]) == pytest.approx(
        (end - start) / 1e9 * (1.0 + 0.5) / 2
    )


def test_ticking_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Meter()
    deadline = speed.now_ns() + 4 * speed.TICK_S * 1e9
    with meter.ticking():
        while speed.now_ns() < deadline:
            pass
    assert len(meter.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _input_bytes(workload: str, seed: int, where: Path) -> dict[str, bytes]:
    import run

    where.mkdir()
    run.write_inputs(workload, seed, where)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def test_same_seed_gives_identical_inputs(tmp_path):
    for workload in ("sim_contention", "sim_ward", "phy_codec"):
        first = _input_bytes(workload, 7, tmp_path / f"{workload}-a")
        again = _input_bytes(workload, 7, tmp_path / f"{workload}-b")
        other = _input_bytes(workload, 8, tmp_path / f"{workload}-c")
        assert first == again
        assert first != other


def test_generated_scenarios_parse():
    from bansim.sim.scenario import parse_scenario

    contention = parse_scenario(workloads.contention_scenario(3))
    assert len(contention.nodes) == workloads.CONTENTION_NODES
    assert {n.priority for n in contention.nodes} == {2, 3, 4, 5, 6}
    ward = parse_scenario(workloads.ward_scenario(3))
    assert sorted(n.access for n in ward.nodes).count("contention") == workloads.WARD_SENSORS
    assert len(ward.security) == 4
    assert sum(1 for s in ward.security.values() if s.group == "ward") == 3


def test_stats_checks_catch_a_broken_row():
    header = (
        "node,offered,delivered,failed,collided,queued,payload_bits,payload_airtime_us,"
        "tx_airtime_us,mean_access_delay_us,efficiency,busy_us,idle_us,elapsed_us\n"
    )
    good = (
        header
        + "a,3,2,0,0,1,16,1.0,2.0,5.0,0.1,,,\n"
        + "all,3,2,0,0,1,16,1.0,2.0,5.0,0.1,4.0,6.0,10\n"
    )
    assert checks.stats_csv_problems(good) == []
    bad = good.replace("a,3,2,0,0,1", "a,4,2,0,0,1")
    assert len(checks.stats_csv_problems(bad)) == 2
