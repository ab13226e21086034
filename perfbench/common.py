"""Shared pieces of the benchmark: environment, statistics, processes, output.

Nothing here imports ``repro``. Every process the benchmark starts gets
its environment from :func:`child_env`.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: BLAS / OpenMP thread pools are pinned to one thread in every process the
#: benchmark starts: the box has two cores, shared by the server, the load
#: generator and (unpinned) OpenBLAS's own two threads.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Variables ``repro`` reads its config from; none reaches the benchmark.
REPRO_PREFIX = "REPRO_"

#: The ``REPRO_*`` variables :func:`default_env_here` removed.
CLEARED_VARS: list[str] = []

#: Independent cold starts per run: before the measured load, spread over
#: it (in the pauses between probes, while no load is offered) and after
#: it; ``setup_s`` is their median. The box's speed drifts over seconds,
#: so starts made back to back read alike: with 4 before and 4 after the
#: load, a run's median swung with the speed at its two ends.
COLD_STARTS_BEFORE = 2
COLD_STARTS_DURING = 4
COLD_STARTS_AFTER = 2

#: Latency limit that defines ``max_rate_ops_s`` (on the p99).
LATENCY_LIMIT_MS = 50.0

HERE = Path(__file__).resolve().parent


def repo_root() -> Path:
    """The checkout the benchmark runs in (its working directory)."""
    return Path.cwd()


def src_dir() -> Path:
    return repo_root() / "src"


def work_dir() -> Path:
    """Scratch files of one run (server logs, trace dumps); git-ignored."""
    path = repo_root() / ".perfbench-work"
    path.mkdir(exist_ok=True)
    return path


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment of every process the benchmark starts.

    No ``REPRO_*`` variable of the caller reaches it, so every process runs
    ``repro``'s default config: no serve settings from the shell, no
    ``REPRO_JOBS`` process pool, no ``REPRO_TRACE`` spans, no
    ``REPRO_DEBUG`` contracts.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith(REPRO_PREFIX)}
    env.update(BLAS_ENV)
    # every cold start compiles from source, the same way on every run
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # a workload child starting a cold start of its own already has src first
    paths = [str(src_dir())]
    inherited = env.get("PYTHONPATH", "").split(os.pathsep)
    paths += [path for path in inherited if path and path != paths[0]]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if extra:
        env.update(extra)
    return env


def default_env_here() -> None:
    """Pin BLAS threads and drop every ``REPRO_*`` variable in this process.

    Call it before numpy or ``repro`` is imported, as :func:`child_env`
    does for the processes the benchmark starts.
    """
    for key in [key for key in os.environ if key.startswith(REPRO_PREFIX)]:
        CLEARED_VARS.append(key)
        del os.environ[key]
    for key, value in BLAS_ENV.items():
        os.environ[key] = value


def machine_info() -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "repro_env": "default (every REPRO_* variable unset)",
        "repro_vars_cleared": sorted(CLEARED_VARS),
        "cold_starts": COLD_STARTS_BEFORE + COLD_STARTS_DURING + COLD_STARTS_AFTER,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] (``inf`` entries allowed)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n: int, wanted: float = 99.0) -> float:
    """The highest percentile <= ``wanted`` with at least 10 samples beyond it."""
    if n <= 10:
        return 50.0
    return min(wanted, 100.0 * (n - 10) / n)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds_pid(pid: int) -> float:
    """User + system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def stop_process(proc: subprocess.Popen, grace: float = 5.0) -> None:
    """Terminate ``proc`` and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def python_child(script: str, args: list[str], **kwargs) -> subprocess.Popen:
    """Start ``python <perfbench/script> args`` with the benchmark's env."""
    return subprocess.Popen(
        [sys.executable, str(HERE / script), *args], env=child_env(), **kwargs
    )


#: Longest a child process may stay silent (the workload logs every probe).
CHILD_TIMEOUT = 150.0


def read_line(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT) -> str:
    """One stdout line from a child, or raise if it exits or stalls."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            raise RuntimeError(f"child {proc.args} sent nothing for {timeout}s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"child {proc.args} exited with {proc.wait()}")
    return line.decode().strip()


def until_ready(proc: subprocess.Popen, launched: float) -> float:
    """Set-up seconds of a workload child: launch until it prints ``READY``.

    The child reports the seconds it spent generating the benchmark's own
    data on that line; they are not set-up and are subtracted. Lines
    before it are logged.
    """
    line = read_line(proc)
    while not line.startswith("READY"):
        log(line)
        line = read_line(proc)
    return time.perf_counter() - launched - float(line.split()[1])


def cold_start(script: str, args: list[str]) -> float:
    """Set-up seconds of one ``<script> args --setup-only`` process."""
    launched = time.perf_counter()
    proc = python_child(script, [*args, "--setup-only"], stdout=subprocess.PIPE)
    try:
        return until_ready(proc, launched)
    finally:
        finish(proc)


def finish(proc: subprocess.Popen) -> None:
    """Let a child that has said everything exit, then make sure it has."""
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        pass
    stop_process(proc)


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------


class Result:
    """Collects metrics and correctness accounting for the final JSON line."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict[str, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)
        self.failed += 1

    def line(self) -> str:
        correct = not self.mismatches and self.attempted > 0
        return json.dumps(
            {
                "correct": correct,
                "attempted": max(1, self.attempted),
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


def log(*parts: object) -> None:
    """Human-readable progress on stdout (never the last line)."""
    print(*parts, flush=True)
