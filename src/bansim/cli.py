"""Command-line front end: run scenarios, sweep efficiency curves, build and
parse frames, print the rate table.

Every subcommand is a thin wrapper over a library call; nothing is computed
here that the library does not already expose. All numeric output uses fixed
decimal formatting with a '.' separator so equal inputs give byte-equal
output on any machine.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from bansim.efficiency import sweep, sweep_configs, write_efficiency_csv
from bansim.errors import BansimError, ConfigError, FrameTooLong
from bansim.phy.rates import (MAC_HEADER_LEN, MAX_BODY_LEN, NB_RATES, PHY_KEYS, builtin_rate_table,
                              frame_airtime_us, phy_config, write_rate_csv)
from bansim.sim.kernel import fork_jobs, run_to_files
from bansim.sim.scenario import load_plan
from bansim.sim.stats import write_stats_csv
from bansim.textio import text_stream


# ------------------------------------------------------------------ helpers


def _add_phy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--phy", choices=list(PHY_KEYS), default="nb")
    parser.add_argument("--band", help="narrowband band name, e.g. 402-405 (MHz)")
    parser.add_argument("--rate", choices=NB_RATES, help="narrowband payload rate tier")
    parser.add_argument("--channel", type=int, help="ultra-wideband channel number")
    parser.add_argument("--center", type=int, help="body-coupled center frequency, MHz")


def _phy_config(args):
    """The --phy family's config from the PHY flags given. A flag of another
    family is refused; a narrowband frame not given --band is in the
    2400-2483.5 band, where a scenario's is in 402-405."""
    flags = vars(args)
    keys = {key: flags[key] for family in PHY_KEYS.values() for key in family if flags[key] is not None}
    if args.phy == "nb":
        keys.setdefault("band", "2400-2483.5")
    return phy_config(args.phy, **keys)


def _parse_payloads(spec: str) -> list[int]:
    """Payload list from '10,50,100' / '1:255' / '1:255:5' (inclusive ends)."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            pieces = part.split(":") + ["1"] * (part.count(":") == 1)  # the step defaults to 1
            try:
                start, stop, step = map(int, pieces)
            except ValueError:  # a piece that is no integer, or not two or three pieces
                raise ConfigError(f"bad payload range {part!r} in {spec!r}") from None
            if step <= 0 or stop < start:
                raise ConfigError(f"bad payload range {part!r}")
            if start < 1 or stop > MAX_BODY_LEN:  # refused before a huge range is expanded
                raise ConfigError(f"payload range {part!r} outside 1..{MAX_BODY_LEN}")
            out.extend(range(start, stop + 1, step))
        else:
            try:
                size = int(part)
            except ValueError:
                raise ConfigError(f"bad payload size {part!r} in {spec!r}") from None
            if not 1 <= size <= MAX_BODY_LEN:
                raise ConfigError(f"payload size {part!r} outside 1..{MAX_BODY_LEN}")
            out.append(size)
    if not out:
        raise ConfigError(f"no payload sizes in {spec!r}")
    return out


def _seeded_path(path, seed: int, multi: bool):
    """Per-seed output name: stats.csv -> stats.s7.csv when sweeping seeds."""
    if path is None or not multi:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}.s{seed}{p.suffix}"))


# ------------------------------------------------------------------ simulate


def _sweep_forked(tasks, workers: int) -> list:
    """The stats of each task run through run_to_files, in task order, by
    `workers` children forked by fork_jobs: child j runs tasks j, j +
    workers, ... As under a pool's map, every task runs and then the first
    failing one's exception is raised; a child that ends without sending
    fails each of its tasks with its SimulationError."""

    def worker(share):
        outcomes = []
        for task in share:
            try:
                outcomes.append((True, run_to_files(*task)))
            except Exception as exc:  # the parent raises it
                outcomes.append((False, exc))
        return outcomes

    shares = [tasks[j::workers] for j in range(workers)]
    jobs = []
    for share in shares:
        seeds = [str(plan.scenario.run.seed) for plan, _, _ in share]
        name = f"the sweep worker for seed{'s' * (len(seeds) > 1)} {', '.join(seeds)}"
        jobs.append((name, lambda share=share: worker(share)))
    outcomes = [None] * len(tasks)
    for j, (ok, value) in enumerate(fork_jobs(jobs)):
        outcomes[j::workers] = value if ok else [(False, value)] * len(shares[j])
    for ok, value in outcomes:
        if not ok:
            raise value
    return [stats for _, stats in outcomes]


def cmd_simulate(args) -> int:
    if args.sweep_parallel < 0:
        raise ConfigError(f"--sweep-parallel must not be negative, got {args.sweep_parallel}")
    plan = load_plan(args.scenario)
    seeds = args.seed if args.seed is not None else [plan.scenario.run.seed]
    if len(set(seeds)) < len(seeds):  # each seed's files would be written twice
        raise ConfigError(f"--seed {next(seed for seed in seeds if seeds.count(seed) > 1)} given twice")
    multi = len(seeds) > 1
    if multi:
        for flag, path in (("--out", args.out), ("--trace", args.trace)):
            # A device or pipe has no per-seed sibling: /dev/null.s1 would be a new regular file.
            if path is not None and os.path.exists(path) and not os.path.isfile(path):
                raise ConfigError(f"{flag} {path} is not a regular file; a multi-seed run writes a file per seed")
        if args.sweep_parallel and not hasattr(os, "fork"):
            raise ConfigError("--sweep-parallel forks its workers, and this platform has no os.fork")
    tasks = []
    for seed in seeds:  # one compile serves every seed, which only the Plan's scenario holds
        task = plan._replace(scenario=plan.scenario._replace(run=plan.scenario.run._replace(seed=seed)))
        tasks.append((task, _seeded_path(args.out, seed, multi), _seeded_path(args.trace, seed, multi)))

    if args.sweep_parallel and multi:
        # Each worker is forked directly: a process pool's start-up and
        # shutdown add tens of milliseconds to a sweep of short runs.
        results = _sweep_forked(tasks, min(args.sweep_parallel, len(tasks)))
    else:
        results = [run_to_files(*task) for task in tasks]

    for (task, stats_path, trace_path), stats in zip(tasks, results):
        if stats_path is None:
            # No --out: the stats CSV is the standard output.
            write_stats_csv(stats, sys.stdout)
            continue
        line = (
            f"seed={task.scenario.run.seed} elapsed_us={stats.elapsed_us} offered={stats.offered}"
            f" delivered={stats.delivered} failed={stats.failed}"
            f" collided={stats.collided} efficiency={stats.efficiency:.6f}"
            f" stats={stats_path}"
        )
        if trace_path:
            line += f" trace={trace_path}"
        print(line)
    return 0


# ---------------------------------------------------------------- efficiency


def cmd_efficiency(args) -> int:
    configs = sweep_configs()
    if args.band:
        configs = [(label, cfg) for label, cfg in configs if label.startswith(args.band)]
        if not configs:
            raise ConfigError(f"no rate-table configuration matches band {args.band!r}")
    payloads = _parse_payloads(args.payloads)
    points = sweep(configs, payloads)
    with text_stream(args.out) as fh:
        if args.format == "csv":
            write_efficiency_csv(points, fh)
        else:
            print(f"{'configuration':<26} {'kbps':>7} {'payload':>7} {'efficiency':>10}", file=fh)
            for pt in points:
                print(
                    f"{pt.band:<26} {pt.rate_kbps:>7.1f} {pt.payload_bytes:>7d}"
                    f" {pt.efficiency:>10.4f}",
                    file=fh,
                )
    return 0


# --------------------------------------------------------------------- frame


def _print_frame_fields(ppdu, cfg, fh) -> None:
    print(f"phy={cfg.kind.value}", file=fh)
    for name, value in zip(ppdu.header._fields, ppdu.header):
        print(f"{name}={value}", file=fh)
    print(f"mac_header={ppdu.mac_header.hex()}", file=fh)
    print(f"body={ppdu.body.hex()}", file=fh)
    print(f"fcs=0x{ppdu.fcs:04X}", file=fh)
    print(f"airtime_us={frame_airtime_us(cfg, len(ppdu.body)):.3f}", file=fh)


def _hex_bytes(text: str, name: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise ConfigError(f"{name} is not hex: {exc}") from None


def cmd_frame_build(args) -> int:
    # Only the frame commands load the codec and its numpy, each for itself:
    # at the top they would slow every other command's start-up.
    from bansim.phy.bitfields import padded_bytes
    from bansim.phy.ppdu import build_ppdu, hexdump

    cfg = _phy_config(args)
    mac_header = _hex_bytes(args.mac_header, "--mac-header")
    if len(mac_header) != MAC_HEADER_LEN:
        raise ConfigError(f"--mac-header must be {MAC_HEADER_LEN} bytes of hex")
    if args.body is not None:
        body = _hex_bytes(args.body, "--body")
    elif args.body_len < 0:
        raise ConfigError(f"--body-len must not be negative, got {args.body_len}")
    elif args.body_len > MAX_BODY_LEN:  # refused before a huge body is built
        raise FrameTooLong(f"body of {args.body_len} bytes exceeds {MAX_BODY_LEN}")
    else:
        body = bytes(i % 256 for i in range(args.body_len))
    ppdu = build_ppdu(cfg, mac_header, body)
    with text_stream(args.out) as fh:
        print(hexdump(ppdu), file=fh)
        _print_frame_fields(ppdu, cfg, fh)
        image = padded_bytes(ppdu.bits)
        print(f"image={image.hex()} bits={len(ppdu.bits)}", file=fh)
    return 0


def cmd_frame_parse(args) -> int:
    from bansim.phy.bitfields import bytes_to_bits
    from bansim.phy.ppdu import parse_ppdu

    cfg = _phy_config(args)
    image = _hex_bytes(args.image, "image")
    bits = bytes_to_bits(image)
    if args.bits is not None:
        if args.bits < 0:
            raise ConfigError(f"--bits must not be negative, got {args.bits}")
        if args.bits > len(bits):
            raise ConfigError(f"--bits {args.bits} exceeds the {len(bits)} bits supplied")
        bits = bits[: args.bits]
    ppdu = parse_ppdu(bits, cfg)
    with text_stream(args.out) as fh:
        _print_frame_fields(ppdu, cfg, fh)
    return 0


# --------------------------------------------------------------------- rates


def cmd_rates(args) -> int:
    rows = builtin_rate_table()
    with text_stream(args.out) as fh:
        if args.format == "csv":
            write_rate_csv(rows, fh)
        else:
            print(
                f"{'band':<14} {'part':<7} {'modulation':<11} {'sym ksps':>8}"
                f" {'fec':>6} {'spread':>6} {'kbps':>7}",
                file=fh,
            )
            for row in rows:
                n, k = row.fec
                print(
                    f"{row.band.value:<14} {row.component:<7} {row.modulation.value:<11}"
                    f" {row.config.symbol_rate:>8g} {f'{n}/{k}':>6} {row.spreading:>6d}"
                    f" {row.rate_kbps:>7.1f}",
                    file=fh,
                )
    return 0


# -------------------------------------------------------------------- parser


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bansim",
        description="Body area network MAC/PHY simulator and frame toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("scenario", help="scenario file path")
    p_sim.add_argument(
        "--seed", type=int, nargs="+", default=None,
        help="override the scenario seed; several values run independent sweeps",
    )
    p_sim.add_argument("--out", default=None, help="stats CSV path")
    p_sim.add_argument("--trace", default=None, help="event trace path")
    p_sim.add_argument(
        "--sweep-parallel", type=int, default=0, metavar="N",
        help="run a multi-seed sweep in N worker processes, forked with os.fork (POSIX);"
        " where os.fork is missing, a multi-seed run with N > 0 is refused",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_eff = sub.add_parser("efficiency", help="analytic efficiency sweep")
    p_eff.add_argument("--payloads", default="1:255",
                       help="payload bytes: list and a:b[:step] ranges, e.g. 10,50,100:255:5")
    p_eff.add_argument("--band", default=None, help="restrict to one band (prefix match)")
    p_eff.add_argument("--format", choices=["csv", "table"], default="csv")
    p_eff.add_argument("--out", default=None)
    p_eff.set_defaults(func=cmd_efficiency)

    p_frame = sub.add_parser("frame", help="build or parse a frame bit image")
    frame_sub = p_frame.add_subparsers(dest="frame_command", required=True)

    p_build = frame_sub.add_parser("build", help="assemble a frame and dump it")
    _add_phy_flags(p_build)
    p_build.add_argument("--mac-header", default="00" * MAC_HEADER_LEN,
                         help=f"{MAC_HEADER_LEN} bytes of hex")
    body_group = p_build.add_mutually_exclusive_group()
    body_group.add_argument("--body", default=None, help="frame body as hex")
    body_group.add_argument("--body-len", type=int, default=0,
                            help="generate a counting-pattern body of this many bytes")
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_frame_build)

    p_parse = frame_sub.add_parser("parse", help="decode a frame bit image")
    _add_phy_flags(p_parse)
    p_parse.add_argument("image", help="frame bit image as hex (from `frame build`)")
    p_parse.add_argument("--bits", type=int, default=None,
                         help="exact bit count of the image (strips hex padding)")
    p_parse.add_argument("--out", default=None)
    p_parse.set_defaults(func=cmd_frame_parse)

    p_rates = sub.add_parser("rates", help="print the information data rate table")
    p_rates.add_argument("--format", choices=["csv", "table"], default="table")
    p_rates.add_argument("--out", default=None)
    p_rates.set_defaults(func=cmd_rates)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed output pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader stopped early (`bansim efficiency | head -1`), which is
        # no error to report. Closing stdout leaves nothing to flush at exit.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 1
    except (BansimError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
