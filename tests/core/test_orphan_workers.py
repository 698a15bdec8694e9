"""No worker outlives its coordinator.

A pipe worker learns that its coordinator died from EOF on its end of
the pipe.  Under ``fork`` every worker inherits the coordinator's end of
its own pipe and of its earlier siblings' pipes; unless it closes them,
a SIGKILLed coordinator never produces that EOF and the workers keep
running under init.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro

_CHILD = """
import os
import sys

from repro.core.cluster import ProcessParallelEngine
from repro.workloads.nqueens import nqueens_asm


def record_pid(task):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")


ProcessParallelEngine(
    workers=2, task_step_budget=1500, fault_hook=record_pid
).run(nqueens_asm(10))
"""


def running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def recorded_pids(path) -> set[int]:
    try:
        with open(path) as fh:
            return {int(line) for line in fh if line.strip()}
    except FileNotFoundError:
        return set()


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to tell live processes from zombies")
def test_pipe_workers_exit_when_their_coordinator_is_sigkilled(tmp_path):
    pid_file = tmp_path / "workers.pids"
    script = tmp_path / "child.py"
    script.write_text(_CHILD)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    child = subprocess.Popen(
        [sys.executable, str(script), str(pid_file)], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    pids: set[int] = set()
    try:
        deadline = time.monotonic() + 60.0
        while len(recorded_pids(pid_file)) < 2:
            assert child.poll() is None, "coordinator exited before the kill"
            assert time.monotonic() < deadline, "workers never started tasks"
            time.sleep(0.01)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30.0)
        pids = recorded_pids(pid_file)
        deadline = time.monotonic() + 10.0
        while any(running(pid) for pid in pids):
            if time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        assert [pid for pid in sorted(pids) if running(pid)] == []
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup
            child.kill()
            child.wait()
        for pid in recorded_pids(pid_file):
            if running(pid):  # pragma: no cover - cleanup after a failure
                os.kill(pid, signal.SIGKILL)
