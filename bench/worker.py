"""One benchmark process: a timed unit, the correctness lock, or a traced run.

Usage (from the root of a checkout, with `src` on PYTHONPATH):

    python3 bench/worker.py unit  <workload> <dir> <index>
    python3 bench/worker.py check <workload> <dir>
    python3 bench/worker.py trace <workload> <dir> <seconds>
    python3 bench/worker.py record

`unit` starts in a fresh interpreter so that set-up time and peak memory
are those of one run. Its inputs are the files `run.py` generated into
<dir>; it writes <dir>/unit-<index>.json. The work calls the program
through module attributes (`kernel.run_to_files`, `ppdu.build_ppdu`), so
a traced run's wrappers are the functions that run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import bansim.efficiency as efficiency
import bansim.phy.ppdu as ppdu
from bansim import cli
from bansim.errors import FrameError
from bansim.phy.rates import Band, hbc_config, nb_config, uwb_config
from bansim.sim import kernel
from bansim.sim import scenario as scenario_mod

import checks
import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
BUNDLED = ("contention_pair", "mixed_access")
SWEEP_PAYLOADS = range(1, 256)
SWEEP_POINTS = 21 * 255
WARD_WORKERS = 2
# A traced run keeps at most this many untraced/traced pairs, which bounds
# the spans file to a few tens of MB.
MAX_TRACE_PAIRS = 3
# Host seconds one untraced/traced pair takes; a traced run makes as many
# pairs as fit its seconds, a number fixed by its arguments.
TRACE_PAIR_S = {"sim_contention": 1.6, "sim_ward": 7.0, "phy_codec": 5.2}


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:120]}"


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # Linux reports KiB


# ---------------------------------------------------------------- inputs


def _phy_config(family: str, flag):
    if family == "nb":
        return nb_config(Band(flag), "high")
    if family == "uwb":
        return uwb_config(int(flag))
    return hbc_config(int(flag))


def _decode_frames(items):
    configs = {}
    out = []
    for f in items:
        key = (f["family"], f["flag"])
        if key not in configs:
            configs[key] = _phy_config(*key)
        out.append((configs[key], bytes.fromhex(f["mac_header"]), bytes.fromhex(f["body"])))
    return out


def _with_seed(sc, seed: int):
    return dataclasses.replace(sc, run=dataclasses.replace(sc.run, seed=seed))


# ------------------------------------------------------------ codec work


def codec_work(frames, flips, meter: speed.Meter | None = None) -> dict:
    """Round-trip every frame (each timed), parse every single-bit flip of
    the flip frames, and run the 21 x 255 efficiency sweep. `errors` are
    operations that raised; `wrong` are outputs that failed a check. A
    `meter` takes reference samples between frames, flips and the sweep,
    never inside a timed frame."""
    tick = meter.tick if meter is not None else (lambda: None)
    now = speed.now_ns
    frame_ns, errors, wrong = [], [], []
    t0 = now()
    for cfg, mac_header, body in frames:
        tick()
        s = now()
        try:
            built = ppdu.build_ppdu(cfg, mac_header, body)
            parsed = ppdu.parse_ppdu(built.bits, cfg)
        except Exception as exc:
            frame_ns.append((s, now()))
            errors.append(f"{cfg.kind.value} body {len(body)}: round trip raised {_error(exc)}")
            continue
        frame_ns.append((s, now()))
        if (parsed.header, parsed.mac_header, parsed.body, parsed.fcs) != (
            built.header, mac_header, body, built.fcs
        ):
            wrong.append(f"{cfg.kind.value} body {len(body)}: fields differ after round trip")
    tick()
    t_rt = now()

    n_flips = 0
    for cfg, mac_header, body in flips:
        bits = ppdu.build_ppdu(cfg, mac_header, body).bits
        for i in range(len(bits)):
            tick()
            flipped = bits.copy()
            flipped[i] ^= 1
            n_flips += 1
            try:
                ppdu.parse_ppdu(flipped, cfg)
                wrong.append(f"{cfg.kind.value}: flip of bit {i} parsed")
            except FrameError:
                pass
            except Exception as exc:
                errors.append(f"{cfg.kind.value}: flip of bit {i} raised {_error(exc)}")
    tick()
    t_flips = now()

    points = efficiency.sweep(efficiency.sweep_configs(), SWEEP_PAYLOADS)
    t_sweep = now()
    if len(points) != SWEEP_POINTS or not all(0.0 < p.efficiency < 1.0 for p in points):
        wrong.append("efficiency sweep: wrong point count or value out of (0, 1)")

    return {
        "frame_ns": frame_ns,
        "roundtrip_ns": (t0, t_rt),
        "work_ns": (t0, t_sweep),
        "roundtrip_s": (t_rt - t0) / 1e9,
        "flips_s": (t_flips - t_rt) / 1e9,
        "sweep_s": (t_sweep - t_flips) / 1e9,
        "work_s": (t_sweep - t0) / 1e9,
        "attempted": len(frames) + n_flips + 1,
        "errors": errors,
        "wrong": wrong,
    }


def codec_airtime_s(frames) -> float:
    return sum(ppdu.frame_airtime_us(cfg, len(body)) for cfg, _, body in frames) / 1e6


def codec_image_digest(frames) -> str:
    h = hashlib.sha256()
    for cfg, mac_header, body in frames:
        bits = ppdu.build_ppdu(cfg, mac_header, body).bits
        h.update(len(bits).to_bytes(4, "big"))
        h.update(np.packbits(bits).tobytes())
    return h.hexdigest()


# -------------------------------------------------------------- sim work


def ward_cli_argv(dirpath: Path, seeds, out: Path) -> list[str]:
    return [
        "simulate", str(dirpath / "ward.scn"),
        "--seed", *map(str, seeds),
        "--sweep-parallel", str(WARD_WORKERS),
        "--out", str(out),
    ]


def ward_seed_outcomes(out_dir: Path, seeds) -> list[dict]:
    """Per seed: the stats CSV the CLI wrote, checked; a missing file is a
    seed that raised."""
    outcomes = []
    for seed in seeds:
        path = out_dir / f"stats.s{seed}.csv"
        if not path.exists():
            outcomes.append({"seed": seed, "wrong": [], "missing": True})
            continue
        outcomes.append(
            {
                "seed": seed,
                "wrong": checks.stats_csv_problems(path.read_text()),
                "missing": False,
                "stats_sha256": checks.sha256_file(path),
            }
        )
    return outcomes


def reference_run(sc, stats_path: Path, trace_path: Path | None) -> dict:
    """In-process run whose stats survive an abort, so the frame count is
    known even when the program raises at the end of the run."""
    sim = kernel.Simulation(sc, collect_trace=trace_path is not None)
    out = {"seed": sc.run.seed, "error": None}
    try:
        sim.run()
    except Exception as exc:
        out["error"] = _error(exc)
    stats = sim.stats
    out["frames"] = stats.delivered + stats.failed
    out["sim_s"] = sc.run.duration_us / 1e6
    if out["error"] is None:
        kernel.write_stats_csv(stats, stats_path)
        out["stats_sha256"] = checks.sha256_file(stats_path)
        out["wrong"] = checks.stats_csv_problems(stats_path.read_text())
        if trace_path is not None:
            kernel.write_trace(sim.trace, trace_path)
            out["trace_sha256"] = checks.sha256_file(trace_path)
    return out


# ------------------------------------------------------------------ unit


def cmd_unit(workload: str, dirpath: Path, index: int) -> dict:
    """One timed run. Reference samples are taken right after set-up, while
    the work runs, and right after it; `processes` holds them per sampling
    process, for run.py to scale the times with."""
    out = dirpath / f"unit-{index}"
    out.mkdir(exist_ok=True)
    result = {"index": index, "errors": [], "wrong": []}
    meter = speed.Meter()
    processes = [meter.samples]
    if workload == "sim_contention":
        sc = scenario_mod.parse_scenario((dirpath / "contention.scn").read_text())
        result["setup_done_ns"] = speed.now_ns()
        meter.sample()
        t0 = speed.now_ns()
        try:
            with meter.ticking():
                kernel.run_to_files(sc, out / "stats.csv", out / "trace.txt")
        except Exception as exc:
            result["errors"].append(_error(exc))
        result["work_ns"] = (t0, speed.now_ns())
        meter.sample()
        result["rss_mb"] = _rss_mb()
        result["attempted"] = 1
        if not result["errors"]:
            result["wrong"] = checks.stats_csv_problems((out / "stats.csv").read_text())
            result["stats_sha256"] = checks.sha256_file(out / "stats.csv")
            result["trace_sha256"] = checks.sha256_file(out / "trace.txt")
    elif workload == "sim_ward":
        # Set-up builds the scenario as the other workloads do; the CLI
        # then loads it again as part of its work.
        scenario_mod.parse_scenario((dirpath / "ward.scn").read_text())
        seeds = json.loads((dirpath / "inputs.json").read_text())["seeds"]
        result["setup_done_ns"] = speed.now_ns()
        meter.sample()
        speed.tick_in_forked_children(str(out / "ticks"))
        t0 = speed.now_ns()
        try:
            cli.main(ward_cli_argv(dirpath, seeds, out / "stats.csv"))
        except Exception as exc:  # the CLI lets non-Bansim errors escape
            result["errors"].append(_error(exc))
        result["work_ns"] = (t0, speed.now_ns())
        meter.sample()
        processes += [speed.read_samples(p) for p in sorted(out.glob("ticks.*"))]
        result["rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
        result["seeds"] = ward_seed_outcomes(out, seeds)
        result["attempted"] = len(seeds)
    elif workload == "phy_codec":
        data = json.loads((dirpath / "frames.json").read_text())
        frames = _decode_frames(data["frames"])
        flips = _decode_frames(data["flips"])
        result["setup_done_ns"] = speed.now_ns()
        meter.sample()
        result.update(codec_work(frames, flips, meter))
        meter.sample()
        result["rss_mb"] = _rss_mb()
        result["airtime_s"] = codec_airtime_s(frames)
        result["frames"] = len(frames)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    result["work_s"] = (result["work_ns"][1] - result["work_ns"][0]) / 1e9
    result["processes"] = processes
    return result


# ----------------------------------------------------------------- check


def lock_digests(dirpath: Path) -> dict:
    """Stats and trace digests of the default-seed contention scenario and
    the bundled scenarios, and the bit-image digest of the default-seed
    codec frames."""
    out: dict[str, dict] = {}
    runs = {"sim_contention": scenario_mod.parse_scenario(
        workloads.contention_scenario(workloads.DEFAULT_SEED))}
    for name in BUNDLED:
        runs[name] = scenario_mod.load_scenario(Path("scenarios") / f"{name}.scn")
    for name, sc in runs.items():
        stats, trace = dirpath / f"lock-{name}.csv", dirpath / f"lock-{name}.trace"
        try:
            kernel.run_to_files(sc, stats, trace)
            out[name] = {
                "stats_sha256": checks.sha256_file(stats),
                "trace_sha256": checks.sha256_file(trace),
            }
        except Exception as exc:
            out[name] = {"error": _error(exc)}
    frames = _decode_frames(workloads.codec_frames(workloads.DEFAULT_SEED)["frames"])
    try:
        out["phy_codec"] = {"images_sha256": codec_image_digest(frames)}
    except Exception as exc:
        out["phy_codec"] = {"error": _error(exc)}
    return out


def cmd_check(workload: str, dirpath: Path) -> dict:
    work = dirpath / "check"
    work.mkdir()
    stored = json.loads(DIGESTS.read_text())
    got = lock_digests(work)
    lock = [
        {"name": name, "ok": got.get(name) == want, "want": want, "got": got.get(name)}
        for name, want in sorted(stored.items())
    ]
    result = {"lock": lock}
    if workload == "sim_contention":
        sc = scenario_mod.parse_scenario((dirpath / "contention.scn").read_text())
        result["reference"] = [
            reference_run(sc, work / "ref-stats.csv", work / "ref-trace.txt")
        ]
    elif workload == "sim_ward":
        sc = scenario_mod.parse_scenario((dirpath / "ward.scn").read_text())
        seeds = json.loads((dirpath / "inputs.json").read_text())["seeds"]
        result["reference"] = [
            reference_run(_with_seed(sc, s), work / f"ref-stats.s{s}.csv", None)
            for s in seeds
        ]
    return result


# ----------------------------------------------------------------- trace


def _sim_pass(workload, dirpath, out, tracer=None):
    """One in-process pass over the sim workload; returns the wall time of
    each simulation run and the errors raised. The ward pass drives
    load_scenario + run_to_files seed by seed, as the CLI's workers do."""
    errors, walls = [], []
    if workload == "sim_contention":
        runs = [None]
    else:
        runs = json.loads((dirpath / "inputs.json").read_text())["seeds"]
    for seed in runs:
        if tracer is not None:
            tracer.run_id += 1
        t0 = time.perf_counter()
        try:
            if seed is None:
                sc = scenario_mod.parse_scenario((dirpath / "contention.scn").read_text())
                kernel.run_to_files(sc, out / "stats.csv", out / "trace.txt")
            else:
                sc = _with_seed(scenario_mod.load_scenario(dirpath / "ward.scn"), seed)
                kernel.run_to_files(sc, out / f"stats.s{seed}.csv")
        except Exception as exc:
            errors.append(_error(exc))
        walls.append(time.perf_counter() - t0)
    return walls, errors


def _trace_pair(workload, dirpath, index, tracer, codec_inputs) -> dict:
    """An untraced pass and a traced pass over the same inputs."""
    plain = dirpath / f"trace-{index}-plain"
    traced = dirpath / f"trace-{index}-traced"
    plain.mkdir()
    traced.mkdir()
    pair = {"errors": [], "wrong": [], "metrics": {}}
    if workload == "phy_codec":
        pair["untraced_s"] = codec_work(*codec_inputs)["work_s"]
        tracer.run_id += 1
        with tracer.patched():
            work = codec_work(*codec_inputs)
        pair["traced_s"] = work["work_s"]
        pair["errors"] += work["errors"]
        pair["wrong"] += work["wrong"]
        pair["attempted"] = work["attempted"]
    else:
        if workload == "sim_ward":
            seeds = json.loads((dirpath / "inputs.json").read_text())["seeds"]
            cli_out = dirpath / f"trace-{index}-cli"
            cli_out.mkdir()
            t0 = time.perf_counter()
            try:
                cli.main(ward_cli_argv(dirpath, seeds, cli_out / "stats.csv"))
            except Exception:  # the traced pass below reports each seed's error
                pass
            cli_wall = time.perf_counter() - t0
        walls, _ = _sim_pass(workload, dirpath, plain)
        with tracer.patched():
            traced_walls, errors = _sim_pass(workload, dirpath, traced, tracer)
        pair["untraced_s"], pair["traced_s"] = sum(walls), sum(traced_walls)
        pair["errors"] += errors
        pair["attempted"] = len(traced_walls)
        if workload == "sim_ward":
            pair["metrics"]["cli.overhead_s"] = cli_wall - max(walls)
        trace_file = traced / "trace.txt"
        if trace_file.exists():
            data = trace_file.read_bytes()
            pair["metrics"]["sim.kernel.trace_lines"] = data.count(b"\n")
            pair["metrics"]["sim.kernel.trace_bytes"] = len(data)
    pair["wrong"] += [f"{name} left wrapped after the traced run" for name in tracer.leftovers()]
    pair["metrics"].update(tracing.summarize(tracer.spans(), tracer.counts))
    pair["metrics"]["tracing.overhead_ratio"] = pair["traced_s"] / pair["untraced_s"]
    return pair


def cmd_trace(workload: str, dirpath: Path, seconds: float) -> dict:
    """As many untraced/traced pairs as `seconds` hold, one to
    MAX_TRACE_PAIRS; spans of every pair go to <dir>/spans.csv."""
    tracer = tracing.Tracer()
    codec_inputs = None
    if workload == "phy_codec":
        data = json.loads((dirpath / "frames.json").read_text())
        codec_inputs = (_decode_frames(data["frames"]), _decode_frames(data["flips"]))
    spans_path = dirpath / "spans.csv"
    pairs = []
    written = 0
    count = min(MAX_TRACE_PAIRS, max(1, round(seconds / TRACE_PAIR_S[workload])))
    with open(spans_path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent,run\n")
        for _ in range(count):
            pair = _trace_pair(workload, dirpath, len(pairs), tracer, codec_inputs)
            spans = tracer.spans()
            pair["spans"] = len(spans)
            fh.writelines(
                f"{written + i},{n},{s},{e},{written + p if p >= 0 else -1},{r}\n"
                for i, (n, s, e, p, r) in enumerate(spans)
            )
            written += len(spans)
            tracer.clear()
            pairs.append(pair)
    return {"pairs": pairs, "spans_file": str(spans_path)}


# ------------------------------------------------------------------ main


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "record":
        scratch = Path(".bench_out") / "record"
        scratch.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(json.dumps(lock_digests(scratch), indent=2, sort_keys=True) + "\n")
        return 0
    workload, dirpath = argv[1], Path(argv[2])
    if mode == "unit":
        result = cmd_unit(workload, dirpath, int(argv[3]))
        name = f"unit-{argv[3]}.json"
    elif mode == "check":
        result = cmd_check(workload, dirpath)
        name = "check.json"
    elif mode == "trace":
        result = cmd_trace(workload, dirpath, float(argv[3]))
        name = "trace.json"
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    (dirpath / name).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(3)
