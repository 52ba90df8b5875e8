"""The kernel replays the schedule that compile_scenario lays out and
reads no layout geometry of its own: phase spans, slot arithmetic, the
beacon period, poll round-robins and allocation periods stay in the
compiled plan, so each rule of the superframe lives in one place."""

import ast
from pathlib import Path

import bansim.sim.kernel

KERNEL = Path(bansim.sim.kernel.__file__)
GEOMETRY = {"schedule_polls", "beacon_in", "active_in", "phases", "start_slot", "slot_length_us"}


def geometry_uses(path):
    """(line, name) of every attribute in `path` that reads the layout, and
    of every plain name or import of one. A plain `phases` is left alone:
    the scripted replay names its own timeline so."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in GEOMETRY:
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Name, ast.alias)):
            name = node.id if isinstance(node, ast.Name) else node.name
            if name in GEOMETRY - {"phases"}:
                yield node.lineno, name


def test_the_kernel_reads_no_layout_geometry():
    assert sorted(geometry_uses(KERNEL)) == []


def test_the_check_sees_each_kind_of_use(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from bansim.mac.superframe import schedule_polls\nlayout.beacon_in(i)\nalloc.active_in(i)\n"
        "for span in layout.phases: pass\nspan.start_slot\nlayout.slot_length_us\nsuperframe.schedule_polls\n"
        "phases = []\nprint('start_slot')\n"
    )
    assert [name for _, name in sorted(geometry_uses(source))] == [
        "schedule_polls", "beacon_in", "active_in", "phases", "start_slot", "slot_length_us", "schedule_polls"]
