"""Plot (in ASCII) how bandwidth efficiency grows with payload size.

The closed-form model charges every delivered frame a full contention
cycle: mean backoff + frame + interframe space + acknowledgment +
interframe space. Small payloads drown in that overhead; large ones
amortize it. Faster rates shrink the frame time but not the backoff,
so their ceiling is lower.

Writes the full sweep for every table configuration to
efficiency_sweep.csv next to this script.
"""

from pathlib import Path

from bansim.efficiency import (
    analytic_efficiency,
    reference_configs,
    sweep,
    sweep_configs,
    write_efficiency_csv,
)

PAYLOADS = list(range(1, 256))
BAR_WIDTH = 52
OUT = Path(__file__).parent / "efficiency_sweep.csv"


def ascii_curve(label, cfg):
    print(f"{label} (efficiency vs payload bytes)")
    for payload in (1, 5, 10, 25, 50, 100, 150, 200, 255):
        eff = analytic_efficiency(payload, cfg)
        bar = "#" * round(eff * BAR_WIDTH)
        print(f"  {payload:>3} B |{bar:<{BAR_WIDTH}}| {eff:.4f}")
    print()


def main():
    for label, cfg in reference_configs():
        ascii_curve(f"flat {label} kbps", cfg)

    print("maximum-payload efficiency for each table configuration")
    for label, cfg in sweep_configs():
        eff = analytic_efficiency(255, cfg)
        print(f"  {label:<26} {eff:.4f}")
    print()

    points = sweep(sweep_configs(), PAYLOADS)
    write_efficiency_csv(points, OUT)
    print(f"wrote {len(points)} sweep points to {OUT.name}")


if __name__ == "__main__":
    main()
