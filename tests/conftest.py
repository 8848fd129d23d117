import os
from pathlib import Path

import pytest

import milstab

_CRITERION_LINES = []


@pytest.fixture
def criterion():
    """Recorder for acceptance criteria: prints one PASS/FAIL line and asserts.

    Lines are replayed in the terminal summary so the verdict of every
    criterion is visible even when pytest captures test output.
    """

    def _record(num: int, passed: bool, detail: str) -> None:
        line = f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}"
        _CRITERION_LINES.append(line)
        print(line)
        assert passed, line

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)


def src_env(unbuffered=None):
    """The environment with this checkout's milstab first on PYTHONPATH.

    Subprocesses do not see pytest's own path setting, so they get it here.
    unbuffered True or False sets or clears PYTHONUNBUFFERED; None inherits it.
    """
    src = str(Path(milstab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env
