"""One helper for every text file the package reads or writes.

Every file is opened here, with newline="" so the csv module owns line
endings. A file is read in place. A written file goes to a temporary file
beside its target, which takes the target's place only when the writer
has finished without an exception and is removed otherwise, so a write
that fails leaves no file (and an existing one as it was). A symlink is
followed: the file it names is the one replaced. A replaced target is a
new file, so its old permissions and hard links are not kept. Other
paths (devices, pipes) are written directly. A scratch file has no name
and is gone once closed.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from pathlib import Path

__all__ = ["scratch_text", "text_stream"]


@contextmanager
def text_stream(target, mode: str = "w"):
    """Yield a text handle for `target` and close only what was opened here.

    A path (str or os.PathLike) is read or written as the module says;
    None means standard output; any other object is taken as an open
    handle and left open.
    """
    if not isinstance(target, (str, os.PathLike)):
        yield sys.stdout if target is None else target
        return
    final = Path(os.path.realpath(target))
    if mode == "r" or (final.exists() and not final.is_file()):
        with open(target, mode, newline="") as fh:
            yield fh
        return
    tmp = final.with_name(f"{final.name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(target)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def scratch_text():
    """An unnamed temporary text file, open for writing and reading back
    and removed when closed. Its handle survives a fork, so a child can
    write what its parent then reads."""
    # Loaded here: only a traced run split in two needs a scratch file.
    import tempfile

    return tempfile.TemporaryFile("w+", newline="")
