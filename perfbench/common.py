"""Shared pieces of the benchmark: statistics, metric records, machine
fingerprint, process memory, and locating the repository under test."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Percentiles tried, highest first, when choosing the tail to report.
_TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)
#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed launch)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program found: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for child processes running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many samples lie above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supports(count: int, q: float) -> bool:
    """Whether ``q`` has at least :data:`MIN_BEYOND` samples beyond it."""
    return samples_beyond(count, q) >= MIN_BEYOND


def highest_supported(count: int) -> float | None:
    """The highest candidate percentile a sample of ``count`` supports."""
    for q in _TAIL_CANDIDATES:
        if supports(count, q):
            return q
    return None


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


# ----------------------------------------------------------------------
# Metric records
# ----------------------------------------------------------------------
@dataclass
class Metric:
    """One measured value with the facts needed to read it."""

    name: str
    value: float
    unit: str
    better: str            # "lower" | "higher" | "" (a count or share)
    samples: int = 1

    def as_dict(self) -> dict:
        return {"value": self.value, "unit": self.unit,
                "better": self.better, "samples": self.samples}


@dataclass
class Outcome:
    """What one workload run produced."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, better: str,
            samples: int = 1) -> None:
        self.metrics[name] = Metric(name, float(value), unit, better,
                                    samples)

    def fail_check(self, message: str) -> None:
        self.correct = False
        self.problems.append(message)


# ----------------------------------------------------------------------
# Processes and machine
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process in MB, 0.0 if unreadable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (scans ``/proc``)."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(pid):
            children.append(int(entry.name))
    return sorted(children)


def _blas_info() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name", ""),
                "version": blas.get("version", "")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": ""}


def source_digest() -> str:
    """SHA-256 over the program's source files (a commit stand-in when
    the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD's commit id read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref:"):
        return ref
    name = ref.split(None, 1)[1]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_fingerprint() -> dict:
    import numpy as np

    threads = {key: os.environ[key] for key in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS") if key in os.environ}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_thread_env": threads,
    }
