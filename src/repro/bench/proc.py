"""Child processes the benchmark starts: fresh starts, CLI passes, servers.

Every child is waited for with a timeout and killed if it overruns, so a
hung child fails the run instead of hanging it.  Output goes to files in
the run's work directory rather than pipes, so a chatty child can never
block on a full pipe.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
from pathlib import Path
from typing import List, Optional, Sequence

from repro.bench.clock import now

#: seconds any single child may run before it is killed
CHILD_TIMEOUT = 120.0


class BenchError(RuntimeError):
    """A workload could not be run as specified (not a wrong output)."""


def child_env(src: Path) -> dict:
    """The environment children run in: this checkout's sources first."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")
    return env


def _reap(proc: subprocess.Popen) -> None:
    """Kill ``proc`` if it is still running and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _ready_line(proc: subprocess.Popen, timeout: float) -> str:
    readable, _, _ = select.select([proc.stdout], [], [], timeout)
    if not readable:
        raise BenchError(f"{proc.args[:4]} printed nothing within "
                         f"{timeout:g}s")
    return proc.stdout.readline().decode("utf-8", "replace")


def fresh_start(argv: Sequence[str], env: dict, cwd: Path, err_path: Path,
                ready: str, terminate: bool) -> float:
    """Seconds from spawning ``argv`` until it prints a line starting
    with ``ready``; the child is then stopped (SIGTERM when
    ``terminate``, else it exits by itself) and must exit 0."""
    with open(err_path, "wb") as err:
        start = now()
        proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=cwd)
        try:
            line = _ready_line(proc, CHILD_TIMEOUT)
            elapsed = now() - start
            if terminate:
                proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            _reap(proc)
    if not line.startswith(ready) or proc.returncode != 0:
        raise BenchError(f"fresh start of {list(argv)[:4]} failed "
                         f"(exit {proc.returncode}, first line {line!r}); "
                         f"see {err_path}")
    return elapsed


def run_child(argv: Sequence[str], env: dict, cwd: Path, out_path: Path,
              err_path: Path) -> float:
    """Run ``argv`` to completion; returns its wall seconds.  A non-zero
    exit raises :class:`BenchError`."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = now()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                env=env, cwd=cwd)
        try:
            proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            _reap(proc)
        elapsed = now() - start
    if proc.returncode != 0:
        raise BenchError(f"{list(argv)[:6]} exited {proc.returncode}; "
                         f"see {err_path}")
    return elapsed


class ServerProcess:
    """``python -m repro.serve serve --port 0`` as a child process."""

    def __init__(self, python: str, env: dict, cwd: Path,
                 err_path: Path) -> None:
        self.argv: List[str] = [python, "-m", "repro.serve", "serve",
                                "--port", "0"]
        self._err = open(err_path, "wb")
        self.err_path = err_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        try:
            self.proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE,
                                         stderr=self._err, env=env, cwd=cwd)
            line = _ready_line(self.proc, CHILD_TIMEOUT)
            if not line.startswith("serving on "):
                raise BenchError(f"server did not start: {line!r}; "
                                 f"see {err_path}")
            self.port = int(line.split()[2].rsplit(":", 1)[1])
        except BaseException:
            self.close()
            raise

    def stop(self) -> str:
        """SIGTERM (graceful drain); returns the server's final line.
        A drain that was not clean raises :class:`BenchError`."""
        assert self.proc is not None
        try:
            self.proc.send_signal(signal.SIGTERM)
            out, _ = self.proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            self.close()
        text = out.decode("utf-8", "replace").strip()
        if self.proc.returncode != 0 or "drained cleanly" not in text:
            raise BenchError(f"server drain failed (exit "
                             f"{self.proc.returncode}): {text!r}; "
                             f"see {self.err_path}")
        return text

    def close(self) -> None:
        if self.proc is not None:
            _reap(self.proc)
        self._err.close()
