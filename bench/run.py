"""bansim benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a bansim checkout. Workloads (closed loop: one
client, the next run starts when the previous one has ended):

  sim_contention  32 saturated contention nodes on a collision channel,
                  stats CSV and trace written in process
  sim_ward        16 light Poisson sensors, a polled pump and a scheduled
                  infusion, some secured; `bansim simulate --seed A B
                  --sweep-parallel 2`, stats only
  phy_codec       build + parse round trips for the three signal families,
                  every single-bit flip of one short frame per family, and
                  the 21 x 255 efficiency sweep

Every invocation first runs the correctness lock (stored stats, trace and
frame-image digests; not timed). With --trace 0 it then repeats the
workload in fresh interpreters, as many times as --seconds holds, and
reports the end-to-end metrics, timed against a host-speed reference
(speed.py); with --trace 1 it runs untraced/traced pairs in one process
and reports per-layer metrics. The line before the last holds the full record
(machine facts, per-run raw values, checks); the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("sim_contention", "sim_ward", "phy_codec")
# Host seconds one timed run takes, process start included, on a 2 GHz
# Xeon core of a shared host. A measurement makes --seconds / UNIT_S runs,
# a number fixed by its arguments, so two measurements of the same code
# attempt the same operations.
UNIT_S = {"sim_contention": 1.1, "sim_ward": 2.3, "phy_codec": 3.3}
# At least two runs, so that each phy_codec frame's latency is read more
# than once.
MIN_UNITS = 2
# Every invocation ends well inside the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(args, root: Path, deadline: float) -> int:
    """Run bench/worker.py in a fresh interpreter and wait for it and every
    process it started; returns the monotonic time just before the start."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONSTARTUP", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(map(str, args[:2])))
    spawned = speed.now_ns()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker {args[0]} ran past the deadline") from None
    finally:
        try:  # pool workers left behind by a crashed unit
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {err.decode()[-2000:]}")
    return spawned


def write_inputs(workload: str, seed: int, out: Path) -> None:
    if workload == "sim_contention":
        (out / "contention.scn").write_text(workloads.contention_scenario(seed))
    elif workload == "sim_ward":
        (out / "ward.scn").write_text(workloads.ward_scenario(seed))
        (out / "inputs.json").write_text(json.dumps({"seeds": workloads.ward_seeds(seed)}))
    else:
        (out / "frames.json").write_text(json.dumps(workloads.codec_frames(seed)))


def machine_facts(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    # A checkout without git history is still identified by its sources.
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ------------------------------------------------------------ outcomes


class Tally:
    """Operations attempted and failed; a failure is either an error (the
    program raised) or a wrong output (a check failed)."""

    def __init__(self):
        self.attempted = 0
        self.errors: Counter[str] = Counter()
        self.wrong: list[str] = []

    def add(self, attempted: int, errors=(), wrong=()) -> None:
        self.attempted += attempted
        self.errors.update(errors)
        self.wrong.extend(wrong)

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + len(self.wrong)


def tally_check(check: dict, tally: Tally) -> None:
    for entry in check["lock"]:
        got = entry["got"] or {}
        if "error" in got:
            tally.add(1, errors=[f"lock {entry['name']}: {got['error']}"])
        elif not entry["ok"]:
            tally.add(1, wrong=[f"lock {entry['name']}: digest differs from the stored one"])
        else:
            tally.add(1)


def tally_unit(workload: str, unit: dict, check: dict, tally: Tally) -> None:
    refs = {ref["seed"]: ref for ref in check.get("reference", [])}
    if workload == "sim_contention":
        (ref,) = refs.values()
        wrong = list(unit["wrong"])
        if not unit["errors"] and "stats_sha256" in ref and (
            unit["stats_sha256"], unit["trace_sha256"]
        ) != (ref["stats_sha256"], ref["trace_sha256"]):
            wrong.append("stats or trace differ from the reference run of the same input")
        tally.add(1, errors=unit["errors"], wrong=wrong)
        return
    if workload == "sim_ward":
        cli_error = unit["errors"][0] if unit["errors"] else "no error reported"
        for seed in unit["seeds"]:
            ref = refs[seed["seed"]]
            if seed["missing"]:
                # The CLI re-raises only the first worker error; the
                # in-process reference run names this seed's own.
                tally.add(1, errors=[f"seed wrote no stats: {ref['error'] or cli_error}"])
            elif "stats_sha256" in ref and seed["stats_sha256"] != ref["stats_sha256"]:
                tally.add(1, wrong=[f"seed {seed['seed']}: stats differ from the reference run"])
            else:
                tally.add(1, wrong=seed["wrong"])
        return
    tally.add(unit["attempted"], errors=unit["errors"], wrong=unit["wrong"])


# ------------------------------------------------------------- metrics


def end_to_end(workload: str, units: list[dict], check: dict) -> tuple[dict, list[dict]]:
    """Median over units of each end-to-end metric, and the raw per-unit
    values it came from. Times are scaled to the nominal host speed
    (speed.py); `raw_*` are the host seconds as measured."""
    raw = []
    latency_us: list[float] = []
    frame_us: list[list[float]] = []
    for u in units:
        procs = u["processes"]
        wall = speed.scaled_s(*u["work_ns"], procs)
        row = {
            "setup_s": speed.scaled_s(u["spawned_ns"], u["setup_done_ns"], procs),
            "wall_s": wall,
            "peak_rss_mb": u["rss_mb"],
            "raw_setup_s": (u["setup_done_ns"] - u["spawned_ns"]) / 1e9,
            "raw_wall_s": u["work_s"],
        }
        if workload == "phy_codec":
            roundtrip = speed.scaled_s(*u["roundtrip_ns"], procs)
            row["frames_per_s"] = u["frames"] / roundtrip
            row["sim_speed"] = u["airtime_s"] / roundtrip
            frame_us.append([speed.scaled_s(s, e, procs) * 1e6 for s, e in u["frame_ns"]])
        else:
            refs = check["reference"]
            frames = sum(ref["frames"] for ref in refs)
            row["frames_per_s"] = frames / wall
            row["sim_speed"] = sum(ref["sim_s"] for ref in refs) / wall
            latency_us.append(wall / frames * 1e6)
        raw.append(row)
    if frame_us:
        # Every run round-trips the same frames in the same order.
        latency_us = [statistics.median(runs) for runs in zip(*frame_us)]
    metrics = {
        name: statistics.median(row[name] for row in raw)
        for name in ("setup_s", "wall_s", "sim_speed", "frames_per_s", "peak_rss_mb")
    }
    metrics["frame_p50_us"] = statistics.median(latency_us)
    metrics["frame_p99_us"] = _quantile(latency_us, 99)
    return metrics, raw


def per_layer(names: list[str], pairs: list[dict]) -> dict:
    """Median over traced pairs of each per-layer metric; a layer the
    workload never reaches reads 0."""
    rows = []
    for pair in pairs:
        m = pair["metrics"]
        row = {name: m.get(name, 0) for name in names}
        succ, fail = m.get("mac.csma.on_success.calls", 0), m.get("mac.csma.on_failure.calls", 0)
        row["mac.csma.success_ratio"] = succ / (succ + fail) if succ + fail else 0.0
        ok = m.get("phy.ppdu.parse_ok.calls", 0)
        rej = m.get("phy.ppdu.parse_reject.calls", 0)
        row["phy.ppdu.reject_ratio"] = rej / (ok + rej) if ok + rej else 0.0
        rows.append(row)
    return {name: statistics.median(row[name] for row in rows) for name in names}


# ---------------------------------------------------------------- main


def run(args) -> tuple[dict, dict]:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "bansim" / "__init__.py").is_file():
        raise BenchError("src/bansim not found: run from the root of a bansim checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out = root / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    write_inputs(args.workload, args.seed, out)

    tally = Tally()
    run_worker(["check", args.workload, out], root, deadline)
    check = json.loads((out / "check.json").read_text())
    tally_check(check, tally)
    for ref in check.get("reference", []):
        if ref["error"] is None:
            tally.add(1, wrong=ref["wrong"])
        else:
            tally.add(1, errors=[f"reference run of seed {ref['seed']}: {ref['error']}"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": workloads.DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(root),
        "lock": check["lock"],
        "reference": check.get("reference", []),
    }
    if args.trace:
        run_worker(["trace", args.workload, out, args.seconds], root, deadline)
        traced = json.loads((out / "trace.json").read_text())
        pairs = traced["pairs"]
        for pair in pairs:
            tally.add(pair["attempted"], errors=pair["errors"], wrong=pair["wrong"])
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, pairs)
        record["pairs"] = pairs
        record["tracing_overhead_ratio"] = values["tracing.overhead_ratio"]
        record["spans_file"] = traced["spans_file"]
    else:
        units_out = []
        # The parent's sample just before each start bounds set-up from
        # below; the unit's first sample bounds it from above.
        meter = speed.Meter()
        for index in range(max(MIN_UNITS, round(args.seconds / UNIT_S[args.workload]))):
            meter.sample()
            spawned = run_worker(["unit", args.workload, out, index], root, deadline)
            unit = json.loads((out / f"unit-{index}.json").read_text())
            unit["spawned_ns"] = spawned
            unit["processes"].append(meter.samples[-1:])
            shutil.rmtree(out / f"unit-{index}", ignore_errors=True)
            tally_unit(args.workload, unit, check, tally)
            units_out.append(unit)
        values, raw = end_to_end(args.workload, units_out, check)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        record["runs"] = raw
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["errors"] = dict(tally.errors)
    record["wrong"] = tally.wrong[:50]
    # failed_frac stays out of the result line, whose metrics must never
    # read 0; the line's attempted/failed counts carry the same fact.
    record["metrics"] = metrics | {
        "failed_frac": {"value": tally.failed / tally.attempted, "unit": "ratio"}
    }
    record["elapsed_s"] = time.monotonic() - started
    for child in out.iterdir():
        if child.is_dir():
            shutil.rmtree(child, ignore_errors=True)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
