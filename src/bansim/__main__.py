"""`python -m bansim`: the same command line as the `bansim` script."""

import sys

from bansim.cli import main

if __name__ == "__main__":
    sys.exit(main())
