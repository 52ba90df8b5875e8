"""Walk the narrowband rate table and rebuild one entry by hand.

Every information data rate in the table is symbol rate x bits/symbol
x code rate / spreading. This script prints the full table grouped by
band, then recomputes the 402-405 MHz entries step by step so the
arithmetic is visible, and finally shows what a flat rate override does
to a configuration.
"""

from bansim.phy.rates import (
    PSDU_CODE,
    Band,
    builtin_rate_table,
    info_data_rate,
    nb_config,
)

BITS_PER_SYMBOL = {"pi/2-DBPSK": 1, "pi/4-DQPSK": 2, "pi/8-D8PSK": 3, "GMSK": 1}


def print_table():
    print("information data rates")
    print(f"{'band':<14} {'component':<9} {'modulation':<10} "
          f"{'ksps':>6} {'fec':>7} {'spread':>6} {'kbps':>7}")
    last_band = None
    for row in builtin_rate_table():
        band = row.band.value
        shown = band if band != last_band else ""
        n, k = row.fec
        print(f"{shown:<14} {row.component:<9} {row.modulation.value:<10} "
              f"{row.config.symbol_rate:>6g} {f'({n},{k})':>7} "
              f"{row.spreading:>6} {row.rate_kbps:>7.1f}")
        last_band = band
    print()


def rebuild_low_band():
    print("rebuilding the 402-405 MHz entries from raw symbol arithmetic")
    for rate in ("low", "high"):
        cfg = nb_config(Band.NB_402_405, rate)
        bits = BITS_PER_SYMBOL[cfg.modulation.value]
        n, k = PSDU_CODE
        by_hand = cfg.symbol_rate * bits * k / n / cfg.spreading
        engine = info_data_rate(cfg, "psdu")
        print(f"  {rate:>4}: {cfg.symbol_rate:g} ksps x {bits} bit/sym "
              f"x {k}/{n} / {cfg.spreading} = {by_hand:.1f} kbps "
              f"(engine says {engine:.1f})")
    print()


def show_flat_override():
    print("a flat rate override pins header and payload to one number")
    cfg = nb_config(Band.NB_402_405, "low")._replace(rate_override_kbps=187.5)
    print(f"  header rate: {info_data_rate(cfg, 'header'):.1f} kbps")
    print(f"  payload rate: {info_data_rate(cfg, 'psdu'):.1f} kbps")


def main():
    print_table()
    rebuild_low_band()
    show_flat_override()


if __name__ == "__main__":
    main()
