"""Checks that hold for the whole test session."""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left():
    """Every process a test forks is reaped: when the session ends, this
    process has no child, running or ended."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a forked child was left unreaped ({'still running' if pid == 0 else f'pid {pid}'})")
