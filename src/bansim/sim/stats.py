"""Per-node and aggregate counters collected by a simulation run."""

from __future__ import annotations

import csv

from bansim.errors import SimulationError
from bansim.textio import text_stream

__all__ = ["NodeStats", "RunStats", "STATS_FIELDS", "write_stats_csv"]


class NodeStats:
    # The id, then the counters in argument order, which RunStats.total sums.
    __slots__ = ("node_id", "offered", "delivered", "failed", "payload_bits",
                 "payload_airtime_us", "tx_airtime_us", "access_delay_sum_us", "queued")

    def __init__(self, node_id: str, offered: int = 0, delivered: int = 0, failed: int = 0,
                 payload_bits: int = 0, payload_airtime_us: float = 0.0, tx_airtime_us: float = 0.0,
                 access_delay_sum_us: int = 0, queued: int = 0):
        self.node_id = node_id
        self.offered = offered  # frames that entered the queue
        self.delivered = delivered  # frames acknowledged
        self.failed = failed  # transmission attempts without an acknowledgement
        self.payload_bits = payload_bits  # user payload bits delivered
        self.payload_airtime_us = payload_airtime_us  # channel time those bits occupied
        self.tx_airtime_us = tx_airtime_us  # all data airtime, failed attempts included
        self.access_delay_sum_us = access_delay_sum_us  # first draw (contention) or grant to ack, delivered only
        self.queued = queued  # frames still waiting at the end of the run

    @property
    def collided(self) -> int:  # every failed attempt, as a lone transmission is always delivered
        return self.failed

    @property
    def mean_access_delay_us(self) -> float:
        return self.access_delay_sum_us / self.delivered if self.delivered else 0.0

    def efficiency(self, elapsed_us: int) -> float:
        return self.payload_airtime_us / elapsed_us if elapsed_us else 0.0


class RunStats:
    __slots__ = ("elapsed_us", "nodes", "ack_airtime_us", "beacon_airtime_us", "beacons")

    def __init__(self, elapsed_us: int, nodes: dict[str, NodeStats] | None = None,
                 ack_airtime_us: float = 0.0, beacon_airtime_us: float = 0.0, beacons: int = 0):
        self.elapsed_us = elapsed_us
        self.nodes = {} if nodes is None else nodes
        self.ack_airtime_us = ack_airtime_us
        self.beacon_airtime_us = beacon_airtime_us
        self.beacons = beacons

    @property
    def busy_us(self) -> float:
        """The sum of every transmission's airtime: data, acks and beacons.
        It is not the time the channel was busy: collided transmissions
        overlap on the air, so under collisions busy_us can pass elapsed_us
        and idle_us goes negative."""
        return self.total().tx_airtime_us + self.ack_airtime_us + self.beacon_airtime_us

    @property
    def idle_us(self) -> float:
        return self.elapsed_us - self.busy_us

    def total(self) -> NodeStats:
        """The `all` row: each counter summed over the nodes in run order."""
        nodes = self.nodes.values()
        return NodeStats("all", *(sum(getattr(n, name) for n in nodes) for name in NodeStats.__slots__[1:]))

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
        """No frame may be lost: each node's delivered and still-queued
        frames must add up to the frames offered to it. busy_us needs no
        check, being the sum of the per-kind airtimes it reports."""
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
