"""Child processes with a pinned environment, timed and reaped with wait4.

Every child gets the same interpreter, flags and environment on every
commit, whatever the caller's environment holds: a fixed hash seed and
locale, ``src`` on the path, no site packages, and a bytecode cache
under the benchmark's work directory.  The cache is filled during set-up,
so timed processes import from warm bytecode as an installed flipcheck
would.  Every timed op is paired with a calibration loop run just before
it, and its time is scaled to a reference host speed (see CALIBRATION).
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass

EXE = sys.executable
# -S: flipcheck needs nothing outside the standard library, and skipping
# site keeps the start-up cost of whatever .pth files the host installs out
# of every number.
FLAGS: tuple[str, ...] = ("-S",)
OP_TIMEOUT_S = 30.0
# Whole cycles run until the time is used up, but never fewer than this many
# ops, so that at least ten samples lie beyond the p90.
MIN_SAMPLES = 100


def child_env(root: str, run_dir: str) -> dict[str, str]:
    return {
        "PATH": "/usr/bin:/bin",
        "HOME": run_dir,
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONPYCACHEPREFIX": os.path.join(run_dir, "pycache"),
    }


def _spin_ns() -> int:
    start = time.perf_counter_ns()
    x = 0
    for i in range(20_000):
        x += i * i
    return time.perf_counter_ns() - start


def pin_quietest_cpu() -> None:
    """Pin this process, and the children it starts next, to the allowed
    CPU that runs a short fixed loop fastest.  On a shared host one core is
    often slowed by a third or more for seconds at a time by its
    neighbours while another is not; starting each op on the faster one
    keeps much of that out of the numbers.  The op itself is timed in full.
    """
    cpus = sorted(_CPUS)
    if len(cpus) > 1:
        timed = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            timed.append((_spin_ns(), cpu))
        os.sched_setaffinity(0, {min(timed)[1]})


_CPUS = frozenset(os.sched_getaffinity(0))

# Host speed.  Neighbours on a shared host slow its cores by 15% or more for
# tens of seconds at a time, which moves raw times between runs more than a
# regression worth catching.  So just before every timed op, on the same
# CPU, the benchmark times CALIBRATION, a fixed pure-Python loop that
# imports nothing from flipcheck, and reports the op's time scaled by
# reference / calibration time: the time the op takes on a host where the
# loop takes its reference time.  A change to flipcheck moves the op and
# not the loop, so it shows in full.
CALIBRATION = """\
d = {}
for i in range(20000):
    k = (i % 89, str(i % 97))
    d[k] = d.get(k, 0) + i * i
t = sorted(d.items())
"""
_CALIBRATION_CODE = compile(CALIBRATION, "<calibration>", "exec")
# The loop's median time on the 2-core host the benchmark was written on
# (Python 3.11.7): as a child process with the benchmark's flags, for ops
# that are processes, and in-process, for ops that are calls.
REF_PROCESS_NS = 45_000_000
REF_INLINE_NS = 25_000_000
# An op is scaled by the median of the calibrations of the ops up to this
# many places before and after it: the host's speed over the second or
# two around the op, without the error a single calibration caught by a
# momentary stall would put into it.
CALIBRATION_WINDOW = 3


def calibration_process_ns(env: dict[str, str]) -> int:
    """Wall time of one child process running CALIBRATION."""
    argv = [EXE, *FLAGS, "-c", CALIBRATION]
    start = time.perf_counter_ns()
    pid = os.posix_spawn(EXE, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
    ])
    _, status, _ = os.wait4(pid, 0)
    elapsed = time.perf_counter_ns() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"calibration process exited with status {status}")
    return elapsed


def calibration_inline_ns() -> int:
    """Wall time of CALIBRATION run in this process."""
    start = time.perf_counter_ns()
    exec(_CALIBRATION_CODE, {})
    return time.perf_counter_ns() - start


def at_reference_speed(elapsed_ns: list[int], calibration_ns: list[int],
                       ref_ns: int) -> list[float]:
    """Each op's time scaled by ``ref_ns`` over the median calibration
    within CALIBRATION_WINDOW ops of it (``calibration_ns[i]`` is the one
    timed just before op ``i``)."""
    w = CALIBRATION_WINDOW
    return [ns * ref_ns / statistics.median(calibration_ns[max(0, i - w):i + w + 1])
            for i, ns in enumerate(elapsed_ns)]


def timed_setups(setup, repeats: int, calibrate, ref_ns: int):
    """Call ``setup()`` ``repeats`` times.  Returns its last result and the
    seconds of each call at reference speed, scaled by the mean of the
    calibrations just before and just after it."""
    seconds = []
    for _ in range(repeats):
        pin_quietest_cpu()
        before = calibrate()
        start = time.perf_counter_ns()
        result = setup()
        elapsed = time.perf_counter_ns() - start
        after = calibrate()
        seconds.append(elapsed * ref_ns / ((before + after) / 2) / 1e9)
    return result, seconds


def flipcheck_argv(args) -> list[str]:
    return [EXE, *FLAGS, "-m", "flipcheck", *args]


def environment_record(env: dict[str, str]) -> dict:
    """What the numbers depend on besides the code under test."""
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "executable": EXE,
        "child_flags": list(FLAGS),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(_CPUS),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "child_env": dict(sorted(env.items())),
        "calibration_ref_ms": {"process": REF_PROCESS_NS / 1e6,
                               "inline": REF_INLINE_NS / 1e6},
    }


class OpTimeout(Exception):
    """An op ran past its per-op timeout."""


@contextlib.contextmanager
def deadline(seconds: float = OP_TIMEOUT_S):
    """Raise :class:`OpTimeout` in the main thread if the block runs longer
    than ``seconds``, so that a runaway op is recorded as failed instead of
    hanging the benchmark."""
    def alarm(signum, frame):
        raise OpTimeout(f"timed out after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Result:
    rc: int  # exit code, or -signal number
    elapsed_ns: int
    maxrss_kb: int
    stdout: str
    stderr: str
    timed_out: bool


def run(argv: list[str], env: dict[str, str], out_dir: str,
        timeout_s: float = OP_TIMEOUT_S) -> Result:
    """Run one child to completion; stdout and stderr go through files so a
    large output cannot block the child.  A child still running after
    ``timeout_s`` is killed and reported with ``timed_out``."""
    out_path = os.path.join(out_dir, "stdout")
    err_path = os.path.join(out_dir, "stderr")
    out_fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err_fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    timed_out = False
    try:
        start = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out_fd, 1),
            (os.POSIX_SPAWN_DUP2, err_fd, 2),
        ])
        try:
            with deadline(timeout_s):
                _, status, usage = os.wait4(pid, 0)
        except OpTimeout:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter_ns() - start
    finally:
        os.close(out_fd)
        os.close(err_fd)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Result(os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss,
                  stdout, stderr, timed_out)
