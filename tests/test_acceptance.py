"""Ten-point acceptance gate.

Each test exercises one release criterion end to end, prints a single
`criterion N: PASS/FAIL - ...` line on the terminal (bypassing pytest's
capture), and enforces the criterion's runtime budget. Every expected
value is either a hand-copied published constant, recomputed here by an
independent oracle, or a checked-in golden file; none are read back from
the code under test.
"""

import csv
import io
import random
import time
from pathlib import Path

import numpy as np

from bansim.cli import main
from bansim.efficiency import analytic_efficiency, reference_configs, sweep_configs
from bansim.errors import (
    FrameError,
    KeyStateError,
    ReplayRejection,
    TagFailure,
)
from bansim.mac.csma import BackoffState, MacTimingConstants, PRIORITY_TABLE, on_failure, on_success
from bansim.mac.superframe import PhaseKind
from bansim.phy.ppdu import MAC_HEADER_LEN, build_ppdu, parse_ppdu
from bansim.phy.rates import Band, hbc_config, nb_config, uwb_config
from bansim.security import SecurityLevel, SecurityManager, SecuritySession, admit_frame, secure_frame
from bansim.sim.kernel import run, run_to_files
from bansim.sim.scenario import load_scenario, parse_scenario
from test_csma import replay_contention
from test_kasami import kasami63

HERE = Path(__file__).parent
SCENARIO_DIR = HERE.parent / "scenarios"
GOLDEN_TRACE = HERE / "data" / "contention_replay.csv"


def report(capfd, num, ok, detail, elapsed, budget):
    """One verdict line per criterion, printed straight to the terminal."""
    ok = bool(ok) and elapsed < budget
    line = (
        f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        f" ({elapsed:.2f}s of {budget:.0f}s budget)"
    )
    with capfd.disabled():
        print(line)
    assert ok, line


# Hand-copied published information data rates (Kbps), keyed by band and
# entry. The engine must reproduce every one within 0.1 Kbps.
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


def test_criterion_01_rate_table(capfd):
    t0 = time.perf_counter()
    assert main(["rates", "--format", "csv"]) == 0
    out = capfd.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))

    produced = {}
    by_band = {}
    for row in rows:
        if row["component"] == "header":
            produced[(row["band"], "header")] = float(row["rate_kbps"])
        else:
            by_band.setdefault(row["band"], []).append(float(row["rate_kbps"]))
    for band, rates in by_band.items():
        low, high = sorted(rates)
        produced[(band, "low")] = low
        produced[(band, "high")] = high

    misses = [
        key
        for key, want in PUBLISHED_KBPS.items()
        if key not in produced or abs(produced[key] - want) > 0.1
    ]
    elapsed = time.perf_counter() - t0
    ok = len(rows) == 21 and not misses
    report(
        capfd, 1, ok,
        f"{21 - len(misses)}/21 published rates within 0.1 Kbps from the rates command",
        elapsed, budget=1.0,
    )


def test_criterion_02_scripted_contention_replay(capfd):
    t0 = time.perf_counter()
    lines = replay_contention(
        phases=[
            (PhaseKind.RAP1, 0, 1100),
            (PhaseKind.TYPE_A, 1100, 2000),
            (PhaseKind.CAP, 2000, 3100),
            (PhaseKind.RAP2, 3100, 6000),
        ],
        draws=[3, 5, 8],
        data_tx_us=400,
        ack_tx_us=100,
        ack_outcomes=[False, False, True],
        timing=MacTimingConstants(),
        priority=PRIORITY_TABLE[2],
    )
    golden = GOLDEN_TRACE.read_text().splitlines()
    rows = [line.split(",") for line in lines]

    def rows_for(event):
        return [r for r in rows if r[2] == event]

    milestones = {
        "event-by-event golden match": lines == golden,
        "interframe wait precedes the slot grid": rows[0][2] == "enter"
        and rows[1][2] == "sifs",
        "odd failure leaves the window at 8": [r[4] for r in rows_for("fail")][:1] == ["8"],
        "contention phase draw of 5": "5" in [r[3] for r in rows_for("draw")],
        "guard lock at counter 2": any(r[3] == "2" and r[6] == "CAP" for r in rows_for("lock")),
        "unlock resumes counter 2": any(
            r[3] == "2" and r[6] == "RAP2" for r in rows_for("unlock")
        ),
        "even failure doubles to 16 and redraws 8": [r[4] for r in rows_for("fail")][1:]
        == ["16"] and [r[3] for r in rows_for("draw")][-1] == "8",
        "success resets the window": [(r[4], r[5]) for r in rows_for("success")] == [("8", "0")],
        "replay halts at the success": rows[-1][2] == "success"
        and len(rows_for("tx_start")) == 3,
    }
    elapsed = time.perf_counter() - t0
    missed = [name for name, hit in milestones.items() if not hit]
    report(
        capfd, 2, not missed,
        f"{len(milestones) - len(missed)}/{len(milestones)} replay milestones on the "
        f"{len(golden)}-line golden trace" + (f"; missed: {missed}" if missed else ""),
        elapsed, budget=1.0,
    )


def test_criterion_03_efficiency_calibration_points(capfd):
    t0 = time.perf_counter()
    (label_a, cfg_a), (label_b, cfg_b) = reference_configs()
    eff_a = analytic_efficiency(255, cfg_a)
    eff_b = analytic_efficiency(255, cfg_b)
    elapsed = time.perf_counter() - t0
    ok = 0.806 <= eff_a <= 0.866 and 0.664 <= eff_b <= 0.724
    report(
        capfd, 3, ok,
        f"255-byte efficiency {label_a} Kbps = {eff_a:.4f} in [0.806, 0.866], "
        f"{label_b} Kbps = {eff_b:.4f} in [0.664, 0.724]",
        elapsed, budget=1.0,
    )


def test_criterion_04_payload_monotonicity(capfd):
    t0 = time.perf_counter()
    configs = sweep_configs()
    violations = []
    for label, cfg in configs:
        values = [analytic_efficiency(p, cfg) for p in range(1, 256)]
        if any(b <= a for a, b in zip(values, values[1:])):
            violations.append(label)
    elapsed = time.perf_counter() - t0
    ok = len(configs) == 21 and not violations
    report(
        capfd, 4, ok,
        f"efficiency strictly increasing over payload 1..255 for all {len(configs)} "
        "rate-table configurations" + (f"; violated: {violations}" if violations else ""),
        elapsed, budget=5.0,
    )


SATURATED_ONE_NODE = """\
[phy]
{phy}

[superframe]
slot_length_us = 500
slots = 65536
beacon_prohibited = true
rap1_slots = 65536

[nodes]
n0 = priority=4, traffic=saturated, payload={payload}, access=contention

[run]
seed = {seed}
duration_ms = 4000
channel = ideal
"""

PHY_VARIANTS = [
    ("187.5 flat", "kind = nb\nband = 402-405\nrate = low\nrate_override_kbps = 187.5"),
    ("971 flat", "kind = nb\nband = 2400-2483.5\nrate = high\nrate_override_kbps = 971"),
    ("485.7 table", "kind = nb\nband = 2400-2483.5\nrate = high"),
]


def test_criterion_05_simulated_matches_analytic(capfd):
    t0 = time.perf_counter()
    worst = 0.0
    points = 0
    for which, (label, phy_lines) in enumerate(PHY_VARIANTS):
        for payload in (10, 50, 100, 200, 255):
            sc = parse_scenario(
                SATURATED_ONE_NODE.format(
                    phy=phy_lines, payload=payload, seed=500 + which
                )
            )
            stats, _ = run(sc)
            want = analytic_efficiency(payload, sc.phy, sc.timing, PRIORITY_TABLE[4])
            worst = max(worst, abs(stats.efficiency - want) / want)
            points += 1
    elapsed = time.perf_counter() - t0
    report(
        capfd, 5, worst <= 0.01,
        f"saturated-node runs track the closed form at {points} operating points "
        f"(3 configurations x 5 payloads), worst relative gap {worst * 100:.3f}% of 1%",
        elapsed, budget=30.0,
    )


CODECS = [
    ("narrowband", nb_config(Band.NB_402_405, "high")),
    ("ultra-wideband", uwb_config(2)),
    ("body-coupled", hbc_config(16)),
]


def test_criterion_06_codec_round_trip_and_bit_flips(capfd):
    t0 = time.perf_counter()
    trips = 0
    for name, cfg in CODECS:
        rng = random.Random(f"acceptance-{name}")
        for _ in range(1000):
            header = bytes(rng.randrange(256) for _ in range(MAC_HEADER_LEN))
            body = bytes(rng.randrange(256) for _ in range(rng.randrange(256)))
            back = parse_ppdu(build_ppdu(cfg, header, body).bits, cfg)
            assert back.mac_header == header and back.body == body
            trips += 1

    flips = detected = 0
    for name, cfg in CODECS:
        image = build_ppdu(cfg, b"\x08" * MAC_HEADER_LEN, b"ok").bits
        for pos in range(len(image)):
            mutated = image.copy()
            mutated[pos] ^= 1
            flips += 1
            try:
                parse_ppdu(mutated, cfg)
            except FrameError:
                detected += 1
    elapsed = time.perf_counter() - t0
    report(
        capfd, 6, trips == 3000 and detected == flips,
        f"{trips} randomized frames round-tripped over 3 signal types; "
        f"{detected}/{flips} exhaustive single-bit flips detected",
        elapsed, budget=10.0,
    )


def test_criterion_07_spreading_code_correlations(capfd):
    t0 = time.perf_counter()
    codes = [kasami63(i).astype(np.int64) for i in range(8)]
    off_peak = set()
    peaks_ok = True
    for i in range(8):
        for j in range(8):
            for shift in range(63):
                value = int(np.dot(codes[i], np.roll(codes[j], -shift)))
                if i == j and shift == 0:
                    peaks_ok = peaks_ok and value == 63
                else:
                    off_peak.add(value)
    elapsed = time.perf_counter() - t0
    ok = peaks_ok and off_peak <= {-1, -9, 7}
    report(
        capfd, 7, ok,
        f"brute force over 8 length-63 codes, all shifts: off-peak correlations "
        f"{sorted(off_peak)} within {{-9, -1, +7}}, every autocorrelation peak 63",
        elapsed, budget=5.0,
    )


def window_rule_reference(priority, outcomes):
    """Independent restatement of the contention-window rule: double on
    every second consecutive failure, saturate at the class bound, reset
    to the minimum on success."""
    cw, fails, expect = priority.cw_min, 0, []
    for ok in outcomes:
        if ok:
            cw, fails = priority.cw_min, 0
        else:
            fails += 1
            if fails % 2 == 0:
                cw = min(2 * cw, priority.cw_max)
        expect.append((cw, fails))
    return expect


def test_criterion_08_window_rule_oracle(capfd):
    t0 = time.perf_counter()
    steps = mismatches = 0
    for seq in range(1000):
        priority = PRIORITY_TABLE[seq % 8]
        rng = random.Random(81_000 + seq)
        outcomes = [rng.random() < 0.45 for _ in range(100)]
        state = BackoffState(priority)
        for ok, expect in zip(outcomes, window_rule_reference(priority, outcomes)):
            on_success(state) if ok else on_failure(state)
            if (state.cw, state.consecutive_failures) != expect:
                mismatches += 1
            steps += 1
    elapsed = time.perf_counter() - t0
    report(
        capfd, 8, steps == 100_000 and mismatches == 0,
        f"{steps} random failure/success steps across all 8 priority classes, "
        f"{mismatches} disagreements with the reference interpreter",
        elapsed, budget=5.0,
    )


def test_criterion_09_security_state_machine(capfd):
    t0 = time.perf_counter()
    results = {}

    # No protected frame can be produced or admitted without an active key.
    outcome = []
    for level in (SecurityLevel.AUTHENTICATED, SecurityLevel.ENCRYPTED):
        donor = SecurityManager().associate("n0", level, mk="preshared")
        wire = secure_frame(b"x", donor)
        bare = SecuritySession("n0", level)
        for op in (lambda: secure_frame(b"x", bare), lambda: admit_frame(wire, bare)):
            try:
                op()
                outcome.append(False)
            except KeyStateError:
                outcome.append(True)
    results["no frame without an active pairwise key"] = all(outcome)

    # 1000 sessions never repeat a pairwise key.
    mgr = SecurityManager()
    seen = set()
    for _ in range(100):
        for node in (f"n{i}" for i in range(10)):
            session = mgr.associate(node, 2, mk="preshared")
            seen.add(session.ptk.key)
            mgr.teardown(node)
    results["1000 sessions, 1000 distinct pairwise keys"] = len(seen) == 1000

    # A frame is admitted once; the identical wire image is replay-rejected.
    mgr = SecurityManager()
    session = mgr.associate("sensor", 2, mk="preshared")
    wire = secure_frame(b"reading 77", session)
    replay_ok = admit_frame(wire, session) == b"reading 77"
    try:
        admit_frame(wire, session)
        replay_ok = False
    except ReplayRejection:
        pass
    results["replay of an admitted frame rejected"] = replay_ok

    # A frame from a previous session fails the tag check after re-keying.
    mgr = SecurityManager()
    old = mgr.associate("sensor", 1, mk="preshared")
    stale = secure_frame(b"yesterday", old)
    mgr.teardown("sensor")
    fresh = mgr.associate("sensor", 1, mk="preshared")
    try:
        admit_frame(stale, fresh)
        results["cross-session frame fails the tag check"] = False
    except TagFailure:
        results["cross-session frame fails the tag check"] = True

    elapsed = time.perf_counter() - t0
    missed = [name for name, hit in results.items() if not hit]
    report(
        capfd, 9, not missed,
        f"{len(results) - len(missed)}/{len(results)} key-lifecycle properties hold"
        + (f"; missed: {missed}" if missed else ""),
        elapsed, budget=5.0,
    )


def test_criterion_10_bundled_scenarios_deterministic(capfd, tmp_path):
    t0 = time.perf_counter()
    bundled = sorted(SCENARIO_DIR.glob("*.scn"))
    identical = []
    for path in bundled:
        scenario = load_scenario(path)
        outputs = []
        for attempt in ("first", "second"):
            stats_path = tmp_path / f"{path.stem}.{attempt}.stats.csv"
            trace_path = tmp_path / f"{path.stem}.{attempt}.trace.csv"
            run_to_files(scenario, stats_path, trace_path)
            outputs.append((stats_path.read_bytes(), trace_path.read_bytes()))
        (stats_a, trace_a), (stats_b, trace_b) = outputs
        identical.append(stats_a == stats_b and trace_a == trace_b and len(trace_a) > 0)
    elapsed = time.perf_counter() - t0
    ok = len(bundled) == 2 and all(identical)
    report(
        capfd, 10, ok,
        f"{len(bundled)} bundled scenarios re-run on their stored seeds: "
        f"{sum(identical)}/{len(bundled)} produced byte-identical stats and trace files",
        elapsed, budget=60.0,
    )
