"""Mutation census: flip one comparison or off-by-one at a time and see whether a test fails.

Run by hand, from the root of a checkout, with the standard library only:

    python tests/mutation_census.py src/bansim/sim/scenario.py src/bansim/phy/rates.py
    python tests/mutation_census.py src/bansim/sim/kernel.py --tests tests/test_sim.py tests/test_golden.py

For each module named, every comparison operator in the set `<`<->`<=`,
`>`<->`>=`, `==`<->`!=` is a site, and so is every literal 1 added or
subtracted (`x + 1`<->`x - 1`, `x += 1`<->`x -= 1`). Each mutant flips one
site in a copy of the checkout, made once in a temporary directory; the
checkout itself is never written. The mutant then runs tier-1, or the test
files given after `--tests`, stopping at the first failure, with at most
MEMORY_BYTES of address space and CPU_S seconds of CPU. A mutant that a
test fails, that runs past TIMEOUT_S, or whose run ends without pytest's
summary line (a process that left early through os._exit, say in a forked
branch, with status 0, or one the CPU cap ended) is killed; one that passes
survives.

A site is keyed by its module, its enclosing function and the text of its
comparison or sum (with `#n` for the n-th equal text in that function),
never by its line. `EQUIVALENT` lists the sites whose flip changes no
behaviour, each with its reason: a survivor there is expected. Any other
survivor is a rule no test holds at its edge, and the census exits 1.

Its name keeps it out of the test collection. On a 2-core host the 62
sites of sim/scenario.py and mac/superframe.py took 14 minutes against
tier-1: a killed mutant stops at its first failing test, a survivor runs
all of tier-1 (about 35 s).
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Seconds before a mutant counts as killed: it has hung. A full tier-1 run
# takes about 35 s.
TIMEOUT_S = 600

# The most address space a mutant's test run may map: a mutant that makes a
# traced run endless fails with a MemoryError instead of filling the host.
MEMORY_BYTES = 3 << 30

# The most CPU seconds a mutant's pytest process may use: a mutant that loops
# forever without growing is ended here, long before TIMEOUT_S. A full tier-1
# run used 25.7 s of CPU, its child processes included, on a 2-core x86-64 host.
CPU_S = 120

# Each operator and the one it flips to.
FLIPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "=="}
_OPERATOR = re.compile(rb"<=|>=|==|!=|<|>")
# The sign before a literal 1 and the one it flips to.
SIGNS = {ast.Add: "-", ast.Sub: "+"}
_SIGN = re.compile(rb"[+-]")

# (module, function, comparison) -> why flipping it changes no behaviour.
EQUIVALENT = {
    ("src/bansim/sim/kernel.py", "Simulation._push_arrival", "gap < self.end_time - after_us"):
        "a gap of exactly the time left is pushed at the end instant, which _push drops",
    ("src/bansim/sim/kernel.py", "Simulation.run", "tick < heap[0]"):
        "a tick and a heap key never tie: each carries its own sequence number",
    ("src/bansim/sim/kernel.py", "Simulation._on_slot_tick", "state.counter < low"):
        "a running minimum: an equal value leaves it the same",
    ("src/bansim/sim/kernel.py", "Simulation._on_slot_tick", "node.exchange_us > widest"):
        "a running maximum: an equal value leaves it the same",
    ("src/bansim/sim/kernel.py", "Simulation._next_slots", "k > 0"):
        "k = 0 steps no slot, so its loop does nothing",
    ("src/bansim/sim/kernel.py", "Simulation._next_slots", "(phase_end - slot_us - widest - t) // slot_us + 1"):
        "a shorter batch only splits a step: the slot ends it leaves out tick one by one, with the same bytes",
    ("src/bansim/sim/kernel.py", "Simulation._begin_exchange", "data_end > phase_end"):
        "the guard never starts an exchange whose data ends at or past the phase end",
    ("src/bansim/sim/kernel.py", "Simulation._collide", "data_end > phase_end"):
        "the guard never starts an exchange that ends past its phase",
    ("src/bansim/sim/kernel.py", "fork_jobs", "code < 0"):
        "the status is not 0 there, so neither is the exit code it gives",
    ("src/bansim/phy/ppdu.py", "parse_ppdu", "bits.ndim == 1"):
        "a fast-path guard: any other image goes through _bit_image, which gives the same array",
    ("src/bansim/phy/fec.py", "decode_blocks", "n > k"):
        "an uncoded word (n == k) is its own information bits, so its parity check finds no mismatch",
}


class Site:
    __slots__ = ("module", "function", "text", "start", "end", "flipped", "line")

    def __init__(self, module, function, text, start, end, flipped, line):
        self.module, self.function, self.text = module, function, text
        self.start, self.end, self.flipped, self.line = start, end, flipped, line

    @property
    def key(self) -> tuple[str, str, str]:
        return self.module, self.function, self.text


def sites(module: str, source: bytes) -> list[Site]:
    """Every flippable comparison and off-by-one of `module`, in source order."""
    tree = ast.parse(source)
    line_starts = [0]
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))

    def offset(lineno, col):  # ast columns count UTF-8 bytes
        return line_starts[lineno - 1] + col

    found: list[Site] = []

    def add(scope, left, right, operator, flipped):
        """The site of the first `operator` match between `left` and `right`."""
        gap_start = offset(left.end_lineno, left.end_col_offset)
        match = operator.search(source[gap_start : offset(right.lineno, right.col_offset)])
        text = source[offset(left.lineno, left.col_offset) : offset(right.end_lineno, right.end_col_offset)]
        found.append(Site(
            module, scope or "<module>", " ".join(text.decode().split()),
            gap_start + match.start(), gap_start + match.end(), flipped.encode(), left.lineno,
        ))

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    add(scope, operands[i], operands[i + 1], _OPERATOR, FLIPS[type(op)])
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SIGNS:
            left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            if isinstance(right, ast.Constant) and type(right.value) is int and right.value == 1:
                add(scope, left, right, _SIGN, SIGNS[type(node.op)])
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    seen: dict[tuple, int] = {}
    for site in found:  # the n-th equal text in one function gets `#n`
        count = seen[site.key] = seen.get(site.key, 0) + 1
        if count > 1:
            site.text += f" #{count}"
    return found


def _cap_resources() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_S, CPU_S))


def run_tests(copy: Path, tests: list[str]) -> str:
    """'pass', 'fail' or 'timeout' for the tests in `copy`."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=TIMEOUT_S, preexec_fn=_cap_resources)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 and re.search(r"(?m)^\d+ passed", done.stdout) else "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module paths, relative to the checkout root")
    parser.add_argument("--tests", nargs="*", default=[], help="test files to run (default: tier-1)")
    args = parser.parse_args(argv)

    copy = Path(tempfile.mkdtemp(prefix="mutation-census-")) / "checkout"
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out")
    shutil.copytree(ROOT, copy, ignore=ignore)
    try:
        if run_tests(copy, args.tests) != "pass":
            print("the unmutated checkout fails its tests; no census", file=sys.stderr)
            return 2
        survivors, rows = [], []
        for module in args.modules:
            path = copy / module
            source = path.read_bytes()
            module_sites = sites(module, source)
            killed = equivalent = 0
            for site in module_sites:
                path.write_bytes(source[: site.start] + site.flipped + source[site.end :])
                began = time.monotonic()
                try:
                    outcome = run_tests(copy, args.tests)
                finally:
                    path.write_bytes(source)
                flip = f"{site.text}  ->  {site.flipped.decode()}"
                print(f"{outcome:>7}  {time.monotonic() - began:6.1f}s  {module}:{site.line} {site.function}: {flip}",
                      flush=True)
                if outcome != "pass":
                    killed += 1
                elif site.key in EQUIVALENT:
                    equivalent += 1
                else:
                    survivors.append(site)
            rows.append((module, len(module_sites), killed, equivalent, len(module_sites) - killed - equivalent))
    finally:
        shutil.rmtree(copy.parent)

    print("\n| module | sites | killed | equivalent | other survivors |\n|---|---|---|---|---|")
    for module, *counts in rows:
        print(f"| `{module}` | " + " | ".join(map(str, counts)) + " |")
    for site in survivors:
        print(f"survivor: {site.module}:{site.line} {site.function}: {site.text}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
