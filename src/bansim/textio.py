"""One helper for every text file the package reads or writes."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

__all__ = ["text_stream"]


@contextmanager
def text_stream(target, mode: str = "w"):
    """Yield a text handle for `target` and close only what was opened here.

    A path (str or Path) is opened with newline="" so the csv module owns
    line endings; None means standard output; any other object is taken as
    an open handle and left open.
    """
    if isinstance(target, (str, Path)):
        with open(target, mode, newline="") as fh:
            yield fh
    else:
        yield sys.stdout if target is None else target
