"""Output checks the benchmark computes itself, independent of the
program's own assertions."""

from __future__ import annotations

import csv
import hashlib
import io

_INT_COLUMNS = ("offered", "delivered", "failed", "collided", "queued", "payload_bits")
_SUMMED_FLOATS = ("payload_airtime_us", "tx_airtime_us")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def stats_csv_problems(text: str) -> list[str]:
    """Conservation checks on a stats CSV: per node delivered + queued ==
    offered, the `all` row equals the sum of the node rows, and busy +
    idle == elapsed. Fixed-point columns are compared within their
    rounding (0.05 per formatted value)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    nodes = [r for r in rows if r["node"] != "all"]
    totals = [r for r in rows if r["node"] == "all"]
    if len(totals) != 1 or not nodes:
        return [f"expected node rows and one `all` row, got {len(rows)} rows"]
    total = totals[0]
    problems = []
    for r in nodes:
        if int(r["delivered"]) + int(r["queued"]) != int(r["offered"]):
            problems.append(f"{r['node']}: delivered + queued != offered")
    for col in _INT_COLUMNS:
        if sum(int(r[col]) for r in nodes) != int(total[col]):
            problems.append(f"all.{col} != sum of node rows")
    for col in _SUMMED_FLOATS:
        slack = 0.05 * (len(nodes) + 1) + 1e-6
        if abs(sum(float(r[col]) for r in nodes) - float(total[col])) > slack:
            problems.append(f"all.{col} != sum of node rows")
    busy, idle, elapsed = float(total["busy_us"]), float(total["idle_us"]), int(total["elapsed_us"])
    if abs(busy + idle - elapsed) > 0.1 + 1e-6:
        problems.append("busy_us + idle_us != elapsed_us")
    return problems
