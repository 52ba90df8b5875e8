"""Narrate one contention scenario from scenario file to event trace.

Runs the bundled two-node scenario (both saturated, collision channel),
prints the per-node outcome, then replays the opening of the event
trace so the slotted backoff is visible line by line: each node draws a
counter, counts down on idle slots, freezes while the medium is busy or
the phase is about to end, and doubles its window on every second
consecutive failure.
"""

from collections import Counter
from pathlib import Path

from bansim.sim.kernel import run
from bansim.sim.scenario import load_scenario

SCENARIO = Path(__file__).parent.parent / "scenarios" / "contention_pair.scn"
OPENING_LINES = 28


def main():
    scenario = load_scenario(SCENARIO)
    stats, trace = run(scenario, collect_trace=True)

    print(f"scenario: {SCENARIO.name}")
    print(f"  {len(scenario.nodes)} nodes, seed {scenario.run.seed}, "
          f"{scenario.run.duration_us // 1000} ms, {scenario.run.channel} channel")
    print()

    print("per-node outcome")
    for node_id, ns in sorted(stats.nodes.items()):
        print(f"  {node_id:<6} offered {ns.offered:>4}  delivered {ns.delivered:>4}  "
              f"failed attempts {ns.failed:>4}  still queued {ns.queued}")
    print(f"  channel efficiency {stats.efficiency:.4f}, "
          f"{stats.collided} collided attempts, {stats.beacons} beacons")
    print()

    print(f"opening of the event trace (time_us,node,event,counter,cw,fails,phase)")
    for line in trace[:OPENING_LINES]:
        print(f"  {line}")
    print(f"  ... {len(trace) - OPENING_LINES} more lines")
    print()

    events = Counter(line.split(",")[2] for line in trace)
    print("event counts over the whole run")
    for event, count in events.most_common():
        print(f"  {event:<10} {count:>5}")
    print()

    doublings = [line for line in trace
                 if line.split(",")[2] == "fail" and int(line.split(",")[5]) % 2 == 0]
    print(f"window doublings (every second consecutive failure): {len(doublings)}")
    for line in doublings[:5]:
        t, node, _, _, cw, fails, phase = line.split(",")
        print(f"  t={t:>8} us  {node}: {fails} straight failures, window now {cw} ({phase})")


if __name__ == "__main__":
    main()
