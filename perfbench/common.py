"""Shared plumbing for the benchmark workloads.

Everything a workload writes goes under ``perfbench/.work`` inside the
checkout: per-run temporary directories, the compiled kernel cache and
the span JSON of traced passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
KERNEL_CACHE = WORK / "kernels"

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Fresh-interpreter set-ups per run at least; ``setup_s`` is their median.
SETUP_REPS = 7


def child_env(tmp: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts.

    The source tree comes first on ``PYTHONPATH``; the compiled kernel
    cache and temporary files stay inside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_KERNEL", None)  # every run resolves the default tier
    return env


def prepare_process() -> Path:
    """Point this process at the source tree and a fresh work directory.

    Must run before anything under ``repro`` is imported, so the kernel
    cache location is in place when the kernel tier first resolves.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no source tree at {SRC}; run from a full checkout"
        )
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    os.environ.update(child_env(tmp))
    tempfile.tempdir = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return tmp


def cleanup(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# Outcome of one workload run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Counts, metrics and notes of one run."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        """Count one gated operation; record ``message`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)
        return ok

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(samples: list[float]) -> tuple[float, int, int]:
    """``(value, percentile, count)`` of the highest nearest-rank
    percentile that still has ``TAIL_BEYOND`` samples beyond it.

    With fewer than twice ``TAIL_BEYOND`` samples the nearest-rank 50th
    percentile (the lower median) is reported, and with at most
    ``TAIL_BEYOND`` the maximum, as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, n
    pct = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1], pct, n


def latency_metrics(out: Outcome, latencies: list[float], per_s: float) -> None:
    """The throughput and latency metrics every workload reports."""
    value, pct, count = tail(latencies)
    out.put("solves_per_s", per_s, "1/s")
    out.put("latency_p50_s", statistics.median(latencies), "s")
    out.put("latency_tail_s", value, "s")
    out.notes["latency_tail"] = {"percentile": pct, "samples": count}


def rusage_cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(who: int) -> float:
    """``ru_maxrss`` in MB (Linux reports kilobytes)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Inputs and digests
# ----------------------------------------------------------------------
def digest(obj: object) -> str:
    """Short SHA-256 of a JSON-serialisable object in canonical form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def graph_record(graph) -> dict[str, object]:
    return {"n": graph.num_vertices, "edges": sorted(graph.edges)}


def relabel(graph, rng):
    """``graph`` under a vertex permutation drawn from ``rng``.

    Relabelling gives a new input (new edge list, new fingerprint) with
    the same structure, hence the same k-plex optimum and the same
    marked-set counts that set the Grover schedule.
    """
    from repro.graphs import Graph

    perm = list(range(graph.num_vertices))
    rng.shuffle(perm)
    return Graph(graph.num_vertices, [(perm[u], perm[v]) for u, v in graph.edges])


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def time_fresh_interpreter(code: str, tmp: Path) -> float:
    """Wall seconds from starting ``python -c code`` to its ``ready`` line.

    A child that prints ``ready <seconds>`` reports its own time, which
    is returned instead (to time one step of its start-up).  The first
    call in a checkout compiles byte-code and the kernel library, so
    callers make one unrecorded warm-up call first.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        env=child_env(tmp),
        cwd=ROOT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code_ = proc.wait()
    words = line.split()
    if not words or words[0] != "ready" or len(words) > 2 or code_ != 0:
        raise RuntimeError(f"set-up probe failed (exit {code_}): {line!r} {rest!r}")
    return float(words[1]) if len(words) == 2 else elapsed
