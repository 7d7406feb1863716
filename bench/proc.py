"""Run one program command as a child process and account for it.

Resource figures come from `os.wait4` on the child alone: user + sys CPU
and max RSS of the child together with every descendant it reaped (the
process-pool workers of `enumerate --jobs N`).  On Linux `ru_maxrss`
there is the largest single process among them, not a sum.  Nothing
machine-wide is read.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"


@dataclass(frozen=True)
class Finished:
    argv: tuple
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    out: str
    err: str


def cosmetic_argv(args):
    """The command line that runs the program with these arguments."""
    return [sys.executable, "-m", "cosmetic", *args]


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path
                else str(SRC))


def spawn(argv):
    """Run argv to completion; time it from spawn to exit."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=RESULTS) as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=_env(), cwd=ROOT,
            start_new_session=True,
        )
        try:
            with child.stdout:
                out = child.stdout.read()
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            os.wait4(child.pid, 0)
            raise
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Finished(
            tuple(argv), wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, child.returncode,
            out.decode(errors="replace"), err.read().decode(errors="replace"),
        )
