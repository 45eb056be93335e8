"""Shared test plumbing: the acceptance suite records one line per criterion
and this hook prints them as a block at the end of the run, and every test
runs under a time limit, so a hang fails its test instead of the run."""

from __future__ import annotations

import faulthandler
import signal
import threading

import pytest

ACCEPTANCE_LINES: list[str] = []

# seconds; the slowest test takes under 7 on a shared 2-vCPU host
TEST_TIME_LIMIT_S = 60


def _expired(signum, frame):
    pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s limit")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail the test with SIGALRM where POSIX timers exist; elsewhere dump
    every thread's traceback and exit once the limit has passed."""
    main_thread = threading.current_thread() is threading.main_thread()
    if hasattr(signal, "setitimer") and main_thread:
        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    else:
        faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()


def record_acceptance(ok: bool, text: str) -> None:
    ACCEPTANCE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] {text}")


@pytest.fixture
def acceptance():
    return record_acceptance


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
