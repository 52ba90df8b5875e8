"""The command line is a thin wrapper: each subcommand's output must be
reproducible from one library call, and failures exit nonzero with a
named diagnostic."""

import concurrent.futures
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bansim
from bansim.cli import main
from bansim.efficiency import sweep, sweep_configs, write_efficiency_csv
from bansim.phy.rates import builtin_rate_table, write_rate_csv

SCENARIO = """\
[phy]
kind = nb
band = 2400-2483.5
rate = high

[superframe]
beacon_slots = 4
rap1_slots = 252

[nodes]
n0 = priority=4, traffic=saturated, payload=100, access=contention

[run]
seed = 42
duration_ms = 200
channel = ideal
"""


class TestRates:
    def test_csv_equals_the_library_writer(self, capsys):
        assert main(["rates", "--format", "csv"]) == 0
        want = io.StringIO()
        write_rate_csv(builtin_rate_table(), want)
        assert capsys.readouterr().out == want.getvalue()

    def test_table_contains_published_rates(self, capsys):
        assert main(["rates"]) == 0
        out = capsys.readouterr().out
        for rate in ("57.5", "75.9", "303.6", "485.7"):
            assert rate in out
        assert len(out.splitlines()) == 22  # header + 21 rows

    def test_out_flag_writes_a_file(self, tmp_path, capsys):
        path = tmp_path / "rates.csv"
        assert main(["rates", "--format", "csv", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        want = io.StringIO()
        write_rate_csv(builtin_rate_table(), want)
        assert path.read_bytes().decode() == want.getvalue()


class TestEfficiency:
    def test_csv_equals_the_library_sweep(self, capsys):
        assert main(["efficiency", "--payloads", "10,100,255"]) == 0
        want = io.StringIO()
        write_efficiency_csv(sweep(sweep_configs(), [10, 100, 255]), want)
        assert capsys.readouterr().out == want.getvalue()

    def test_single_payload_gives_one_row_per_config(self, capsys):
        assert main(["efficiency", "--payloads", "128"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 22

    def test_band_filter(self, capsys):
        assert main(["efficiency", "--payloads", "128", "--band", "402-405"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + the band's three table rows
        assert all(line.startswith("402-405") for line in lines[1:])

    def test_range_spec(self, capsys):
        assert main(["efficiency", "--payloads", "1:255:127", "--band", "420-450"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3 * 3  # payloads 1, 128, 255

    def test_table_format_four_decimals(self, capsys):
        assert main(["efficiency", "--payloads", "255", "--band", "402-405",
                     "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "0.8724" in out  # 75.9 Kbps row at full payload

    def test_unknown_band_fails(self, capsys):
        assert main(["efficiency", "--band", "900000"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_number_names_its_kind(self, capsys):
        assert main(["efficiency", "--payloads", "10,x"]) == 1
        assert capsys.readouterr().err == "error: ConfigError: bad payload size 'x' in '10,x'\n"

    @pytest.mark.parametrize("spec", ["1:a", "10,a:5", "1:5:x", "1:2:3:4", "1:"])
    def test_bad_range_is_a_config_error_naming_the_list(self, spec, capsys):
        assert main(["efficiency", "--payloads", spec]) == 1
        part = spec.split(",")[-1]
        assert capsys.readouterr().err.startswith(f"error: ConfigError: bad payload range {part!r}")

    @pytest.mark.parametrize("spec", ["1:256", "0:3", "10,0:3:2"])
    def test_a_range_past_the_body_bounds_is_refused_by_name(self, spec, capsys):
        # Checked before the range is expanded, so a huge end cannot exhaust memory.
        assert main(["efficiency", "--payloads", spec]) == 1
        part = spec.split(",")[-1]
        assert capsys.readouterr().err == f"error: ConfigError: payload range {part!r} outside 1..255\n"


class TestPublishedBytes:
    """The paper's numbers pinned as stored bytes, not only recomputed:
    the full 21 x 255 efficiency sweep, which `demos/efficiency_curves.py`
    also writes as demos/efficiency_sweep.csv, and the rate table in both
    formats (the built-in table, whatever the environment holds)."""

    SWEEP_SHA256 = "ba727d62c2468a3656d82c05ec2b907e0a254d2b0436e4bd621d12a0375640f0"
    RATES_SHA256 = {
        "table": "08a56cd9fbb9f198dfc2db69174886e21e0ba8a112fbb8542ab1ba33a1c89ab8",
        "csv": "682583e33df6a903fae5a4424a65d1d46ae7fe7eeb881bb13cf41955b4469978",
    }

    def test_the_full_sweep_is_the_stored_demo_file(self, tmp_path, capsys):
        path = tmp_path / "efficiency_sweep.csv"
        assert main(["efficiency", "--payloads", "1:255", "--out", str(path)]) == 0
        data = path.read_bytes()
        lines = data.decode().splitlines()
        assert len(lines) == 1 + 21 * 255
        assert lines[0] == "band,rate_kbps,payload_bytes,efficiency"
        assert lines[1] == "402-405:header@57.5,57.5,1,0.029755"
        assert lines[-1] == "2400-2483.5:psdu@485.7,485.7,255,0.747025"
        assert hashlib.sha256(data).hexdigest() == self.SWEEP_SHA256

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_the_rate_table_is_the_stored_bytes(self, fmt, tmp_path, monkeypatch, capsys):
        # A 3-row rates.csv where BANSIM_CONFIG_DIR points changes nothing:
        # `rates`, `efficiency` and `simulate` read one built-in table.
        config = tmp_path / "config"
        config.mkdir()
        with open(config / "rates.csv", "w", newline="") as fh:
            write_rate_csv(builtin_rate_table()[:3], fh)
        monkeypatch.setenv("BANSIM_CONFIG_DIR", str(config))
        path = tmp_path / f"rates.{fmt}"
        assert main(["rates", "--format", fmt, "--out", str(path)]) == 0
        data = path.read_bytes()
        assert len(data.decode().splitlines()) == 1 + 21
        assert hashlib.sha256(data).hexdigest() == self.RATES_SHA256[fmt]


class TestFrame:
    def build(self, capsys, *extra):
        assert main(["frame", "build", *extra]) == 0
        out = capsys.readouterr().out
        image = bits = None
        for line in out.splitlines():
            if line.startswith("image="):
                image, bits = line.split()
                image = image.split("=", 1)[1]
                bits = bits.split("=", 1)[1]
        return out, image, bits

    def test_build_then_parse_round_trip(self, capsys):
        flags = ["--phy", "nb", "--band", "402-405", "--rate", "low"]
        built, image, bits = self.build(capsys, *flags, "--body", "deadbeef")
        assert main(["frame", "parse", *flags, "--bits", bits, image]) == 0
        parsed = capsys.readouterr().out
        for field_line in parsed.strip().splitlines():
            assert field_line in built  # identical fields, dump aside
        assert "body=deadbeef" in parsed

    def test_parse_corrupted_image(self, capsys):
        flags = ["--phy", "nb"]
        _, image, bits = self.build(capsys, *flags, "--body-len", "10")
        corrupted = "ff" + image[2:]
        assert main(["frame", "parse", *flags, "--bits", bits, corrupted]) == 1
        err = capsys.readouterr().err
        assert "error: PreambleMismatch" in err

    def test_hbc_dump_shows_four_preamble_blocks(self, capsys):
        out, _, _ = self.build(capsys, "--phy", "hbc", "--body-len", "5")
        for i in (1, 2, 3, 4):
            assert f"preamble block {i}/4" in out

    def test_uwb_round_trip(self, capsys):
        flags = ["--phy", "uwb", "--channel", "7"]
        _, image, bits = self.build(capsys, *flags, "--body", "0011223344")
        assert main(["frame", "parse", *flags, "--bits", bits, image]) == 0
        assert "body=0011223344" in capsys.readouterr().out

    def test_bad_mac_header_rejected(self, capsys):
        assert main(["frame", "build", "--mac-header", "0102"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_body_length_rejected(self, capsys):
        assert main(["frame", "build", "--body-len", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigError: --body-len")
        assert captured.out == ""

    def test_negative_bit_count_rejected(self, capsys):
        _, image, _ = self.build(capsys, "--body-len", "4")
        assert main(["frame", "parse", "--bits", "-8", image]) == 1
        assert capsys.readouterr().err.startswith("error: ConfigError: --bits")

    @pytest.mark.parametrize(
        "argv, name, position",
        [
            (["build", "--mac-header", "zz"], "--mac-header", 0),
            (["build", "--body", "0g"], "--body", 1),
            (["parse", "zz"], "image", 0),
        ],
        ids=["mac-header", "body", "image"],
    )
    def test_a_bad_hex_argument_is_named(self, capsys, argv, name, position):
        # Each once printed a bare `ValueError: non-hexadecimal number ...` naming no argument.
        assert main(["frame", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: ConfigError: {name} is not hex: non-hexadecimal number found in fromhex() arg"
            f" at position {position}\n"
        )
        assert captured.out == ""


class TestSimulate:
    def test_scenario_runs_to_csv(self, tmp_path, capsys):
        scn = tmp_path / "one.scn"
        scn.write_text(SCENARIO)
        out_csv = tmp_path / "stats.csv"
        assert main(["simulate", str(scn), "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("node,offered,delivered")
        assert lines[-1].startswith("all,")
        assert "seed=42" in capsys.readouterr().out

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        scn = tmp_path / "one.scn"
        scn.write_text(SCENARIO)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ta, tb = tmp_path / "a_trace.csv", tmp_path / "b_trace.csv"
        for out, trace in ((a, ta), (b, tb)):
            assert main(["simulate", str(scn), "--seed", "42",
                         "--out", str(out), "--trace", str(trace)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert ta.read_bytes() == tb.read_bytes()

    def test_seed_flag_changes_the_outcome(self, tmp_path):
        scn = tmp_path / "one.scn"
        scn.write_text(SCENARIO)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", str(scn), "--seed", "1", "--out", str(a)])
        main(["simulate", str(scn), "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_multi_seed_parallel_sweep(self, tmp_path, capsys):
        scn = tmp_path / "one.scn"
        scn.write_text(SCENARIO)
        out = tmp_path / "stats.csv"
        assert main(["simulate", str(scn), "--seed", "1", "2", "3",
                     "--sweep-parallel", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in printed] == ["seed=1", "seed=2", "seed=3"]
        for seed in (1, 2, 3):
            assert (tmp_path / f"stats.s{seed}.csv").exists()

    @pytest.fixture
    def pools(self, monkeypatch):
        """The max_workers of each process pool asked for; the pool's calls
        run in this process, and no process starts."""
        asked = []

        class InProcessPool:
            def __init__(self, max_workers=None):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return asked

    def test_sweep_workers_never_outnumber_the_seeds(self, tmp_path, pools, capsys):
        scn = tmp_path / "one.scn"
        scn.write_text(SCENARIO)
        out = tmp_path / "stats.csv"
        assert main(["simulate", str(scn), "--seed", "1", "2", "--sweep-parallel", "64", "--out", str(out)]) == 0
        assert pools == [2]
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["seed=1", "seed=2"]

    def test_negative_sweep_parallel_rejected(self, tmp_path, pools, capsys):
        scn = tmp_path / "one.scn"
        scn.write_text(SCENARIO)
        assert main(["simulate", str(scn), "--seed", "1", "2", "--sweep-parallel", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigError: --sweep-parallel")
        assert captured.out == "" and pools == []

    def test_stdout_when_no_output_path(self, tmp_path, capsys):
        scn = tmp_path / "one.scn"
        scn.write_text(SCENARIO)
        assert main(["simulate", str(scn)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("node,offered,delivered")

    def test_invalid_scenario_exits_with_the_line(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text("[superframe]\nbeacon_slots = 4\nrap1_slots = 4\n")
        assert main(["simulate", str(scn)]) == 1
        err = capsys.readouterr().err
        assert "error: ScenarioError" in err and "line 1" in err

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_output_in_a_missing_directory_fails_before_the_run(self, flag, tmp_path, monkeypatch, capsys):
        scn = tmp_path / "one.scn"
        scn.write_text(SCENARIO)
        monkeypatch.chdir(tmp_path)

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("bansim.sim.kernel.run", no_run)
        target = os.path.join("nodir", "out.csv")
        assert main(["simulate", str(scn), flag, target]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ")
        assert repr(target) in err and ".tmp" not in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.scn"]

    def test_stats_and_trace_on_one_file_fail_before_the_run(self, tmp_path, monkeypatch, capsys):
        scn = tmp_path / "one.scn"
        scn.write_text(SCENARIO)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", str(scn), "--out", "same.csv", "--trace", str(tmp_path / "same.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigError: ") and "same.csv" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.scn"]

    @pytest.mark.parametrize("seeds", [["1", "1"], ["1", "2", "1"]])
    def test_a_repeated_seed_fails_before_the_run(self, seeds, tmp_path, monkeypatch, capsys):
        scn = tmp_path / "one.scn"
        scn.write_text(SCENARIO)
        monkeypatch.chdir(tmp_path)

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("bansim.sim.kernel.run", no_run)
        assert main(["simulate", str(scn), "--seed", *seeds, "--out", "d.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: ConfigError: --seed 1 given twice\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.scn"]

    def test_unknown_key_diagnostic_names_its_line(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text("[phy]\nkind = nb\nantenna = dish\n")
        assert main(["simulate", str(scn)]) == 1
        assert "line 3" in capsys.readouterr().err


class TestScenarioDiagnostics:
    NODE = "[superframe]\nmode = nonbeacon\n[nodes]\nn0 = {}\n[run]\nduration_ms = 100\n"
    # The same node line in a layout whose random access phase admits it.
    RUNNABLE = NODE.replace("mode = nonbeacon", "beacon_slots = 4\nrap1_slots = 252")

    @pytest.mark.parametrize(
        "entry",
        [
            "traffic=poisson:nan",
            "traffic=poisson:inf",
            "access=scheduled, slot_start=10, slot_len=0",
            "priority=99",
            "payload=300",
        ],
    )
    def test_bad_value_fails_with_kind_and_line(self, entry, tmp_path, capsys):
        # poisson:inf used to hang and the others to print a bare message.
        scn = tmp_path / "bad.scn"
        scn.write_text(self.NODE.format(entry))
        assert main(["simulate", str(scn), "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ScenarioError: line 4: ")


    @pytest.mark.parametrize("rate", ["1e9", "1000001"])
    def test_poisson_rate_under_the_clock_fails_at_its_line(self, rate, tmp_path):
        # Gaps under 1 us round to zero, so simulated time stood still and
        # the run never ended; the subprocess timeout turns a hang into a
        # failure.
        scn = tmp_path / "fast.scn"
        scn.write_text(self.NODE.format(f"traffic=poisson:{rate}"))
        proc = run_cli("simulate", str(scn), "--out", str(tmp_path / "s.csv"), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ScenarioError: line 4: poisson rate")

    def test_poisson_rate_at_the_bound_is_accepted(self, tmp_path):
        scn = tmp_path / "edge.scn"
        scn.write_text(self.RUNNABLE.format("traffic=poisson:1e6").replace("duration_ms = 100", "duration_ms = 1"))
        assert main(["simulate", str(scn), "--out", str(tmp_path / "s.csv")]) == 0

    def test_arrivals_over_the_budget_fail_at_the_nodes_line(self, tmp_path, capsys):
        # 1e6 /s for 5.001 s expects more arrivals than a run may hold.
        scn = tmp_path / "long.scn"
        scn.write_text(self.RUNNABLE.format("traffic=poisson:1e6").replace("duration_ms = 100", "duration_ms = 5001"))
        assert main(["simulate", str(scn), "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ScenarioError: line 5: n0: ") and "budget" in err
        assert not (tmp_path / "s.csv").exists()

    def test_tiny_poisson_rate_runs_with_nothing_offered(self, tmp_path, capsys):
        # Its first gap is infinite; rounding it onto the clock overflowed.
        scn = tmp_path / "slow.scn"
        scn.write_text(self.RUNNABLE.format("traffic=poisson:1e-320"))
        assert main(["simulate", str(scn), "--out", str(tmp_path / "s.csv")]) == 0
        assert " offered=0 " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "head, line",
        [
            # A zero rate divided by zero; a negative one made airtimes and
            # the default poll grant negative.
            ("[phy]\nrate_override_kbps = 0\n", 2),
            ("[phy]\nrate_override_kbps = -5\n", 2),
            ("[phy]\nkind = uwb\n# channel plan\nchannel = 99\n", 4),
            ("[phy]\nkind = hbc\ncenter = 5\n", 3),
            ("[phy]\nband = uwb-low\nrate = low\n", 2),
        ],
    )
    def test_phy_value_fails_at_its_own_line(self, head, line, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(head + self.NODE.format("access=polled"))
        assert main(["simulate", str(scn), "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: ScenarioError: line {line}: ")

    def test_negative_rate_override_with_a_contention_node_fails_at_its_line(self, tmp_path):
        # Negative airtimes kept the slot grid from ever advancing; the
        # subprocess timeout turns a hang into a failure.
        scn = tmp_path / "negative.scn"
        scn.write_text(
            "[phy]\nrate_override_kbps = -5\n[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n"
            "[nodes]\nn0 = access=contention\n[run]\nduration_ms = 10\n"
        )
        proc = run_cli("simulate", str(scn), "--out", str(tmp_path / "s.csv"), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ScenarioError: line 2: rate_override_kbps")


def cli_env() -> dict[str, str]:
    """The environment with this checkout's package on the path."""
    src = str(Path(bansim.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(*args: str, timeout: float) -> subprocess.CompletedProcess:
    """`python -m bansim *args` with this checkout's package on the path."""
    return subprocess.run(
        [sys.executable, "-m", "bansim", *args], env=cli_env(), capture_output=True, text=True, timeout=timeout
    )


def test_python_dash_m_runs_the_command_line():
    proc = run_cli("rates", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("command", ["efficiency", "rates"])
def test_a_reader_that_stops_early_ends_the_run_quietly(command):
    """`bansim efficiency | head -1`: a closed output pipe is no error to
    report, so nothing reaches stderr and the exit status is 1."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bansim", command],
            env=cli_env(), stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
