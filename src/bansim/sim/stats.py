"""Per-node and aggregate counters collected by a simulation run."""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field, fields

from bansim.errors import SimulationError
from bansim.textio import text_stream

__all__ = ["NodeStats", "RunStats", "STATS_FIELDS", "write_stats_csv"]


@dataclass
class NodeStats:
    node_id: str
    offered: int = 0  # frames that entered the queue
    delivered: int = 0  # frames acknowledged
    failed: int = 0  # transmission attempts without an acknowledgement
    collided: int = 0  # failed attempts that overlapped another frame
    payload_bits: int = 0  # user payload bits delivered
    payload_airtime_us: float = 0.0  # channel time those bits occupied
    tx_airtime_us: float = 0.0  # all data airtime, failed attempts included
    access_delay_sum_us: int = 0  # head-of-line to acknowledgement, delivered only
    queued: int = 0  # frames still waiting at the end of the run

    @property
    def mean_access_delay_us(self) -> float:
        return self.access_delay_sum_us / self.delivered if self.delivered else 0.0

    def efficiency(self, elapsed_us: int) -> float:
        return self.payload_airtime_us / elapsed_us if elapsed_us else 0.0


@dataclass
class RunStats:
    elapsed_us: int
    nodes: dict[str, NodeStats] = field(default_factory=dict)
    # The sum of every transmission's airtime (data, acks, beacons), not the
    # time the channel was busy: collided transmissions overlap on the air,
    # so under collisions busy_us can pass elapsed_us and idle_us goes negative.
    busy_us: float = 0.0
    ack_airtime_us: float = 0.0
    beacon_airtime_us: float = 0.0
    beacons: int = 0
    transmissions: int = 0  # airtimes summed into busy_us

    def add_busy(self, airtime_us: float) -> None:
        self.busy_us += airtime_us
        self.transmissions += 1

    @property
    def idle_us(self) -> float:
        return self.elapsed_us - self.busy_us

    def total(self) -> NodeStats:
        """The `all` row: each counter summed over the nodes in run order."""
        nodes = self.nodes.values()
        return NodeStats("all", *(sum(getattr(n, f.name) for n in nodes) for f in fields(NodeStats)[1:]))

    @property
    def offered(self) -> int:
        return self.total().offered

    @property
    def delivered(self) -> int:
        return self.total().delivered

    @property
    def failed(self) -> int:
        return self.total().failed

    @property
    def collided(self) -> int:
        return self.total().collided

    @property
    def efficiency(self) -> float:
        return self.total().efficiency(self.elapsed_us)

    def check_conservation(self) -> None:
        """Channel-busy time must equal the sum of all transmission
        airtimes, and no frame may be both delivered and still queued.

        Both sides sum the same airtimes in different orders. A running sum
        over k additions is within k * eps/2 * S of the exact total S, so
        they may differ by k * eps * S, where k counts the transmissions
        plus the additions that join the per-node, ack and beacon sums. The
        tolerance is twice that, to cover second-order terms.
        """
        total = self.total().tx_airtime_us + self.ack_airtime_us + self.beacon_airtime_us
        additions = self.transmissions + len(self.nodes) + 2
        tolerance = 2 * additions * sys.float_info.epsilon * max(total, self.busy_us)
        if abs(total - self.busy_us) > tolerance:
            raise SimulationError(f"busy {self.busy_us} != airtime sum {total}")
        for n in self.nodes.values():
            if n.delivered + n.queued != n.offered:
                raise SimulationError(
                    f"{n.node_id}: delivered {n.delivered} + queued {n.queued} "
                    f"!= offered {n.offered}"
                )


STATS_FIELDS = [
    "node",
    "offered",
    "delivered",
    "failed",
    "collided",
    "queued",
    "payload_bits",
    "payload_airtime_us",
    "tx_airtime_us",
    "mean_access_delay_us",
    "efficiency",
    "busy_us",
    "idle_us",
    "elapsed_us",
]


def _row(n: NodeStats, elapsed_us: int) -> list:
    """The columns that node rows and the total share."""
    return [
        n.node_id,
        n.offered,
        n.delivered,
        n.failed,
        n.collided,
        n.queued,
        n.payload_bits,
        f"{n.payload_airtime_us:.1f}",
        f"{n.tx_airtime_us:.1f}",
        f"{n.mean_access_delay_us:.1f}",
        f"{n.efficiency(elapsed_us):.6f}",
    ]


def write_stats_csv(stats: RunStats, out) -> None:
    """One row per node plus the total, named `all`, which alone carries
    the channel columns. Fixed decimal formatting keeps equal runs
    byte-identical."""
    with text_stream(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_FIELDS)
        for node_id in sorted(stats.nodes):
            writer.writerow(_row(stats.nodes[node_id], stats.elapsed_us) + ["", "", ""])
        writer.writerow(
            _row(stats.total(), stats.elapsed_us)
            + [f"{stats.busy_us:.1f}", f"{stats.idle_us:.1f}", stats.elapsed_us]
        )
