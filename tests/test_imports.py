"""One import path per name: the packages bansim.phy, bansim.mac and
bansim.sim hold only their modules, so every name is imported from the
module that defines it and used where it is imported, and a module loads
only what it imports: everything but the frame codec loads without numpy,
the command line included. No module reads the environment, every
function, class and method that the package defines is used inside it,
and every record field, slot and instance attribute it stores is read
inside it, but for short lists of public entries, imports and fields kept
for their callers outside."""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import bansim

PACKAGE = Path(bansim.__file__).parent
NUMPY_FREE = (
    "bansim.phy.rates",
    "bansim.mac.csma",
    "bansim.mac.superframe",
    "bansim.sim.stats",
    "bansim.sim.scenario",
    "bansim.sim.kernel",
    "bansim.security",
    "bansim.textio",
    "bansim.efficiency",
    "bansim.cli",
)


def nested_imports(path):
    """Lines of the imports inside a function in `path`."""
    return sorted(
        {
            node.lineno
            for func in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path):
    """Lines in `path` that name `os.environ` or `os.getenv`: an attribute,
    a bare name or an imported name."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias))
            and {getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)} & ENVIRONMENT
        }
    )


# The names the package defines and never uses itself, each with why it stays.
KEPT_FOR_CALLERS = {
    "analytic_efficiency": "the public efficiency model, which the demos call",
    "reference_configs": "the public efficiency model's operating points, which the demos call",
    "SecurityManager.teardown": "the end of the key lifecycle that the acceptance gate walks",
    "parse_scenario": "read_plan's scenario alone, which the tests and bench/worker.py call",
    "load_scenario": "load_plan's scenario alone, which the tests and bench/worker.py call",
    "guard_check": "a counter of bench/tracing.py TARGETS",
    "on_busy": "a counter of bench/tracing.py TARGETS",
    "on_idle_slot": "a counter of bench/tracing.py TARGETS",
    "trace_line": "a span of bench/tracing.py TARGETS",
    "phase_at": "a counter of bench/tracing.py TARGETS",
    "place_scheduled": "a span of bench/tracing.py TARGETS",
    "crc4_bits": "a counter of bench/tracing.py TARGETS",
    "bits_to_bytes": "a span of bench/tracing.py TARGETS",
}


def unused_names(root):
    """The module-level functions and classes of the modules under `root`,
    and their methods that are not dunders (as Class.method), whose name no
    loaded name and no attribute under `root` mentions."""
    defined, used = {}, set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defined[f"{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(qualified for qualified, name in defined.items() if name not in used)


# The fields and attributes the package stores and never reads itself,
# each with who reads it.
READ_OUTSIDE = {
    "BandInfo.bandwidth": "the band's channel width, which the rate tests read",
    "GroupKeyState.gtk_id": "the group key's id, which the group key tests read",
    "GroupKeyState.members": "the group's nodes, which the group key tests read",
    "PriorityClass.user_priority": "the class's priority, which the scripted replay in the CSMA tests reads",
    "RunStats.beacons": "the beacon count, which the beacon tests and the demo read",
    "ScenarioError.line": "the scenario line an error names, which the scenario and kernel tests read",
    "UwbChannelPlan.mandatory": "whether a UWB channel is mandatory, which the rate tests read",
}


def stored_unread(root):
    """The dataclass and NamedTuple fields and the names in a class's
    `__slots__` (as Class.field) and the attributes stored on `self` in a
    class's methods (as Class.attr) under `root` that no attribute load
    mentions; a name written as a string elsewhere (a getattr, a field
    table) counts as read."""
    stored, read, slots = {}, set(), set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            if (any("dataclass" in ast.unparse(decorator) for decorator in cls.decorator_list)
                    or any("NamedTuple" in ast.unparse(base) for base in cls.bases)):
                for item in cls.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        stored[f"{cls.name}.{item.target.id}"] = item.target.id
            for item in cls.body:
                if isinstance(item, ast.Assign) and ast.unparse(item.targets[0]) == "__slots__":
                    for name in ast.walk(item.value):
                        if isinstance(name, ast.Constant):
                            stored[f"{cls.name}.{name.value}"] = name.value
                            slots.add(name)
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    stored.setdefault(f"{cls.name}.{node.attr}", node.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node not in slots:
                read.add(node.value)
    return sorted(qualified for qualified, name in stored.items() if name not in read)


def test_the_package_reads_what_it_stores():
    unread = set(stored_unread(PACKAGE))
    assert sorted(unread - READ_OUTSIDE.keys()) == []
    assert sorted(READ_OUTSIDE.keys() - unread) == []


def test_the_store_check_sees_each_unread_field(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass D:\n    kept: int\n    spare: int = 0\n    named: int = 0\n"
        "class C:\n    def __init__(self):\n        self.count = 0\n        self.total = 0\n"
        "    def bump(self):\n        self.count += 1\n        return self.total\n"
        "class Plain:\n    label: str\n"
        "from typing import NamedTuple\nclass R(NamedTuple):\n    used: int\n    idle: int\n"
        "class S:\n    __slots__ = ('held', 'spare')\n"
    )
    # A store or an augmented store is not a read; a load or a string is,
    # but not the string that names a slot.
    (tmp_path / "b.py").write_text("d.kept\nd.spare = 1\ngetattr(d, 'named')\nr.used\ns.held\n")
    assert stored_unread(tmp_path) == ["C.count", "D.spare", "R.idle", "S.spare"]


def test_the_package_defines_only_what_it_uses():
    unused = set(unused_names(PACKAGE))
    assert sorted(unused - KEPT_FOR_CALLERS.keys()) == []
    # A kept name that the package now uses, or that is gone, leaves the list.
    assert sorted(KEPT_FOR_CALLERS.keys() - unused) == []


def test_the_check_sees_each_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used(): pass\n"
        "def orphan(): pass\n"
        "class C:\n    def __init__(self): pass\n    def read(self): pass\n    def spare(self): pass\n"
        "class Lone: pass\n"
    )
    (tmp_path / "sub").mkdir()
    # An import and a store are not uses.
    (tmp_path / "sub" / "b.py").write_text("from a import orphan\nused()\nC().read\nspare = 1\n")
    assert unused_names(tmp_path) == ["C.spare", "Lone", "orphan"]


def test_the_check_flags_a_function_added_to_the_package(tmp_path):
    copy = tmp_path / "bansim"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "textio.py", "a") as fh:
        fh.write("\n\ndef spare_helper():\n    pass\n")
    assert unused_names(copy) == sorted([*KEPT_FOR_CALLERS, "spare_helper"])


def test_each_subpackage_is_only_its_docstring():
    inits = sorted(PACKAGE.glob("*/__init__.py"))
    assert [init.parent.name for init in inits] == ["mac", "phy", "sim"]
    for init in inits:
        tree = ast.parse(init.read_text(), str(init))
        assert ast.get_docstring(tree) and len(tree.body) == 1, init


# The names a module imports from bansim and never uses, as "path: name",
# each with who reads it there.
PASSED_ON = {
    "phy/ppdu.py: frame_airtime_us": (
        "bench/worker.py reads ppdu.frame_airtime_us; the binding goes with the bench refresh (ROADMAP item 8)"
    ),
    "sim/kernel.py: admissible": (
        "bench/test_bench.py::test_traced_run_restores_every_original asserts that kernel.admissible is the "
        "traced wrapper; the binding goes with the bench refresh (ROADMAP item 8)"
    ),
}


def passed_on(root):
    """Each name that a module under `root` imports from bansim and never
    loads, as "path: name"."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "bansim":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(
                    alias.asname or "bansim" for alias in node.names if alias.name.split(".")[0] == "bansim"
                )
        loaded = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [f"{path.relative_to(root)}: {name}" for name in sorted(imported - loaded)]
    return found


def test_no_name_is_imported_only_to_be_passed_on():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "noqa: F401" in line
    ]
    assert offenders == []
    assert passed_on(PACKAGE) == sorted(PASSED_ON)


def test_the_pass_on_check_sees_each_unused_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "import bansim\n"
        "import bansim.phy.rates as rates\n"
        "import os.path\n"
        "from os import sep\n"
        "from bansim.phy.rates import MAX_BODY_LEN, FCS_LEN as fcs, PhyKind\n"
        "def f():\n    from bansim.phy import ppdu\n    return MAX_BODY_LEN, ppdu\n"
        "x: PhyKind\n"
    )
    # A use inside a function or an annotation counts; imports from
    # outside bansim are not checked.
    assert passed_on(tmp_path) == ["a.py: bansim", "a.py: fcs", "a.py: rates"]


def test_the_passed_on_airtime_is_the_rate_engines():
    from bansim.phy import ppdu, rates

    assert ppdu.frame_airtime_us is rates.frame_airtime_us
    assert "frame_airtime_us" not in ppdu.__all__


# The imports kept inside a function, as "path: statement", each with why.
CODEC = (
    "only the frame commands code bits; at the top of cli.py the codec and numpy would cost every other"
    " command 70-105 ms of start-up and 13 MB of peak RSS (after `import bansim.cli`, 5 runs)"
)
NESTED_KEPT = {
    "sim/kernel.py: import pickle": (
        "only fork_jobs (a --sweep-parallel sweep, a traced run split in two) sends its children's outcomes"
        " back pickled; at the top of the kernel pickle would cost every run 2.0-3.1 ms of start-up (after"
        " `import bansim.cli`, 5 runs)"
    ),
    "sim/kernel.py: import signal": "only fork_jobs kills its children, and only when it raises or is interrupted",
    "textio.py: import tempfile": "only a traced run split in two writes its second half to a scratch file",
    "cli.py: from bansim.phy.bitfields import padded_bytes": CODEC,
    "cli.py: from bansim.phy.ppdu import build_ppdu, hexdump": CODEC,
    "cli.py: from bansim.phy.bitfields import bytes_to_bits": CODEC,
    "cli.py: from bansim.phy.ppdu import parse_ppdu": CODEC,
}


def nested_import_statements(root):
    """Each import inside a function under `root`, as "path: statement"."""
    return sorted(
        f"{path.relative_to(root)}: {path.read_text().splitlines()[line - 1].strip()}"
        for path in sorted(root.rglob("*.py"))
        for line in nested_imports(path)
    )


def test_no_module_imports_inside_a_function():
    assert nested_import_statements(PACKAGE) == sorted(NESTED_KEPT)


def test_the_check_sees_each_nested_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import os\n"
        "def f():\n    import sys\n    def g():\n        from a import b\n"
        "class C:\n    async def m(self):\n        import c\n"
    )
    assert nested_imports(source) == [3, 5, 8]


def test_the_check_flags_an_import_added_inside_a_function(tmp_path):
    copy = tmp_path / "bansim"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("cli.py", "textio.py"):
        with open(copy / name, "a") as fh:
            fh.write("\n\ndef late():\n    import concurrent.futures\n")
    # The kept statement is kept once, in its one place.
    assert nested_import_statements(copy) == sorted(
        [*NESTED_KEPT, "cli.py: import concurrent.futures", "textio.py: import concurrent.futures"]
    )


def test_no_module_reads_the_environment():
    # A run is a function of its scenario and seed alone.
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in environment_reads(path)
    ]
    assert offenders == []


def test_the_environment_check_sees_each_read(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import os\n"
        "from os import environ as env, getenv\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('X')\n"
        "c = os.path.join('a', 'b')\n"
    )
    assert environment_reads(source) == [2, 3, 4]


# Modules a run never needs: no record is a dataclass, a multi-seed
# --sweep-parallel run forks its workers without a process pool (and
# without the logging a pool loads), and only the frame commands load numpy.
UNLOADED = ("dataclasses", "concurrent.futures", "multiprocessing", "logging", "numpy")


def test_the_cli_loads_only_what_a_run_uses(tmp_path):
    scenario = PACKAGE.parent.parent / "scenarios" / "contention_pair.scn"
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "\n".join([
        "import sys",
        "from bansim import cli",
        f"unloaded = {UNLOADED!r}",
        "assert not [m for m in unloaded if m in sys.modules], 'after import'",
        f"assert cli.main(['simulate', {str(scenario)!r}, '--seed', '3', '--out', 'one.csv']) == 0",
        "assert not [m for m in unloaded if m in sys.modules], 'after one seed'",
        "assert cli.main(['efficiency', '--payloads', '10,100', '--out', 'eff.csv']) == 0",
        "assert cli.main(['rates', '--out', 'rates.txt']) == 0",
        "assert 'numpy' not in sys.modules, 'after efficiency and rates'",
        "assert 'pickle' not in sys.modules, 'pickle loaded before a parallel sweep'",
        f"for n in (0, 2):",
        f"    assert cli.main(['simulate', {str(scenario)!r}, '--seed', '3', '4',"
        f" '--sweep-parallel', str(n), '--out', f'p{{n}}.csv']) == 0",
        "assert not [m for m in unloaded if m in sys.modules], 'after the sweeps'",
        "assert cli.main(['frame', 'build', '--body-len', '4', '--out', 'frame.txt']) == 0",
        "assert 'numpy' in sys.modules, 'frame build ran without the codec'",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    for seed in (3, 4):
        assert (tmp_path / f"p2.s{seed}.csv").read_bytes() == (tmp_path / f"p0.s{seed}.csv").read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "p0.s3.csv").read_bytes()


def test_the_light_modules_load_without_numpy():
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, {', '.join(NUMPY_FREE)}; assert 'numpy' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
