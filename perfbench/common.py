"""Shared pieces of the benchmark: statistics, process readings, provenance."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Iterable

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for traces and TCP work directories (git-ignored).
OUT = ROOT / ".perfbench"

#: Percentiles a tail is read at, highest first. A tail is reported at
#: the highest one with at least :data:`TAIL_MIN_BEYOND` samples beyond it.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.5)
TAIL_MIN_BEYOND = 10

#: Seconds :func:`reference_work` takes on the nominal host. Timings are
#: reported scaled to it (see :func:`host_factor`).
REFERENCE_S = 0.012
#: Reference runs per calibration sample; the sample is their median.
REFERENCE_RUNS = 9


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    #: Correctness gates by name; the run is correct iff all hold.
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: The gated end-to-end metrics (BENCHMARK.json ``end_to_end``).
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics of a traced run (BENCHMARK.json ``per_layer``).
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Everything else worth recording: sample counts, tails, raw totals.
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def timing(values: list[float]) -> dict[str, Any]:
    """Median, p99, and the highest percentile with ten samples beyond it."""
    if not values:
        return {"n": 0}
    n = len(values)
    q = next(
        (q for q in TAIL_LADDER if n * (1 - q) >= TAIL_MIN_BEYOND),
        0.5,
    )
    return {
        "n": n,
        "p50": percentile(values, 0.5),
        "p99": percentile(values, 0.99),
        "tail_q": q,
        "tail": percentile(values, q),
    }


def reference_work() -> int:
    """A fixed slice of interpreter work, independent of the program.

    Dict and list churn, string formatting and joining bytes: the kind of
    work the program's serialization-bound hot paths do.
    """
    table: dict[str, int] = {}
    rows = []
    for i in range(20_000):
        key = f"k{i % 512}"
        table[key] = table.get(key, 0) + i
        rows.append((key, i * 3 % 7))
    blob = b"".join(str(value).encode() for _key, value in rows[:5_000])
    return len(table) + len(blob)


def reference_sample() -> float:
    """Seconds :func:`reference_work` takes now (median of a few runs)."""
    times = []
    for _ in range(REFERENCE_RUNS):
        started = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - started)
    return median(times)


def host_factor(samples: list[float]) -> float:
    """How much slower than nominal the host ran: median sample ÷ nominal.

    The host's CPU speed drifts by a third over minutes while other
    machines share it. A run divides its timings (and multiplies its
    rates) by this factor, measured between its rounds or phases, so
    the figures describe the program rather than the host's load.
    """
    return median(samples) / REFERENCE_S


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def sum_totals(totals: Iterable[dict[str, dict[str, float]]]) -> dict[str, Counter]:
    """Merge ``MetricsRegistry.totals_by_module()`` dicts of several nodes."""
    merged: dict[str, Counter] = {}
    for per_module in totals:
        for module, counters in per_module.items():
            merged.setdefault(module, Counter()).update(counters)
    return merged


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def provenance() -> dict[str, Any]:
    """Where a result was measured: host size, interpreter, code version.

    The benchmark may run from a checkout that is not a git repository,
    so the commit can be absent; the hash of ``src`` names the code then.
    """
    commit = None
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        lines = probe.stdout.split()
        # Only a repository rooted at this checkout names its commit.
        if probe.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "unix_time": time.time(),
    }
