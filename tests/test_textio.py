"""textio is the one module that opens a file: every other module reads
and writes through text_stream, so the rule for putting a written file in
place lives in one spot."""

import ast
from pathlib import Path

import pytest

import bansim
from bansim.textio import text_stream

PACKAGE = Path(bansim.__file__).parent
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_calls(path):
    """(line, name) of every call in `path` that opens a file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                yield node.lineno, name


def test_only_textio_opens_a_file():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "textio.py"
        for line, name in file_calls(path)
    ]
    assert offenders == []


def test_the_check_sees_each_kind_of_call(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("open('a')\nPath('b').read_text()\nio.open('c')\np.write_bytes(b'')\nprint('open')\n")
    assert [name for _, name in file_calls(source)] == ["open", "read_text", "open", "write_bytes"]


def test_a_path_is_read_in_place(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("a\nb\n")
    with text_stream(path, "r") as fh:
        assert fh.read() == "a\nb\n"
    assert [p.name for p in tmp_path.iterdir()] == ["in.txt"]


def test_a_write_replaces_its_target_only_when_complete(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("earlier\n")
    with pytest.raises(RuntimeError):
        with text_stream(path) as fh:
            fh.write("partial\n")
            raise RuntimeError("stop")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"] and path.read_text() == "earlier\n"
    with text_stream(str(path)) as fh:
        fh.write("new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"] and path.read_text() == "new\n"
