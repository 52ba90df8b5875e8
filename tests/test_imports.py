"""One import path per name: the packages bansim.phy, bansim.mac and
bansim.sim hold only their modules, so every name is imported from the
module that defines it, and a module loads only what it imports: the rate
engine, the MAC modules, the stats writer, security and textio load
without numpy. No module reads the environment."""

import ast
import os
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
    "bansim.security",
    "bansim.textio",
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


def test_each_subpackage_is_only_its_docstring():
    inits = sorted(PACKAGE.glob("*/__init__.py"))
    assert [init.parent.name for init in inits] == ["mac", "phy", "sim"]
    for init in inits:
        tree = ast.parse(init.read_text(), str(init))
        assert ast.get_docstring(tree) and len(tree.body) == 1, init


def test_no_name_is_imported_only_to_be_passed_on():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "noqa: F401" in line
    ]
    assert offenders == []


def test_no_module_imports_inside_a_function():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in nested_imports(path)
    ]
    assert offenders == []


def test_the_check_sees_each_nested_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import os\n"
        "def f():\n    import sys\n    def g():\n        from a import b\n"
        "class C:\n    async def m(self):\n        import c\n"
    )
    assert nested_imports(source) == [3, 5, 8]


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


def test_the_light_modules_load_without_numpy():
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, {', '.join(NUMPY_FREE)}; assert 'numpy' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
