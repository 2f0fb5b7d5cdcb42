"""Perf harness for the fleet-shared marked-set table store.

Two blocks, emitted as ``BENCH_qmkp_shared_cache.json``:

* ``fleet`` (gated) — a batch of identical enumeration jobs spread
  across real OS worker processes, baseline (every job cold-sweeps all
  ``2^n`` masks itself) versus shared (the first job cold-builds and
  publishes one mmap-backed segment, every later job zero-copy
  attaches).  The amortized per-job speedup — total baseline job time
  over total shared job time — must clear ``--min-speedup`` (default
  5x), and every job in both arms must produce a byte-identical table
  (same ``_by_size`` bytes, same offsets; checked by digest).

  The sweep kernel defaults to the plain-numpy tier so the cold arm's
  cost is deterministic across hosts; the shared arm's attach cost is
  an mmap + header parse and does not depend on the kernel at all.

* ``service`` (byte-identity gate, timings recorded for context) — the
  same batch shape end to end through the real
  :class:`repro.service.Supervisor`: identical qMKP jobs across worker
  subprocesses with and without ``shared_cache_dir``.  Every answer and
  receipt ledger must match between the arms bit for bit — the shared
  tier is a pure latency optimisation, never a result change — and the
  shared arm must report one cold build (at most two under a slot race)
  with every other job attaching.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_shared_cache.py
    PYTHONPATH=src python benchmarks/perf/bench_shared_cache.py \
        --n 18 --jobs 6 --min-speedup 3   # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "src"))

from repro.graphs import gnm_random_graph, write_edge_list  # noqa: E402
from repro.perf import MarkedSetCache, SharedTableStore  # noqa: E402
from repro.service import JobSpec, ServiceConfig, Supervisor  # noqa: E402


def _table_digest(table) -> str:
    return hashlib.sha256(
        table._by_size.tobytes() + table._offsets.tobytes()
    ).hexdigest()


def _fleet_job(task):
    """One worker-process job: build (or attach) the table, report back."""
    n, m, graph_seed, k, kernel, shared_dir = task
    os.environ["REPRO_KERNEL"] = kernel  # this worker process only
    graph = gnm_random_graph(n, m, seed=graph_seed)
    shared = SharedTableStore(shared_dir) if shared_dir else None
    cache = MarkedSetCache(shared=shared)
    start = time.perf_counter()
    table = cache.table(graph, k)
    elapsed = time.perf_counter() - start
    return {
        "job_s": elapsed,
        "digest": _table_digest(table),
        "stats": cache.stats(),
    }


def fleet_block(args) -> tuple[dict, list[str]]:
    """Identical jobs across OS workers: all-cold vs publish-then-attach."""
    failures: list[str] = []
    m = args.edges if args.edges is not None else args.n * 6
    ctx = multiprocessing.get_context("fork")

    def run_arm(shared_dir):
        task = (args.n, m, args.graph_seed, args.k, args.kernel, shared_dir)
        wall = time.perf_counter()
        with ctx.Pool(args.workers) as pool:
            if shared_dir:
                # The fleet contract the service relies on: the first
                # job cold-builds and publishes, *then* the rest fan
                # out and attach.
                results = [pool.apply(_fleet_job, (task,))]
                results += pool.map(_fleet_job, [task] * (args.jobs - 1))
            else:
                results = pool.map(_fleet_job, [task] * args.jobs)
        return results, time.perf_counter() - wall

    baseline, baseline_wall = run_arm(None)
    shared_dir = tempfile.mkdtemp(prefix="bench-shared-cache-")
    shared, shared_wall = run_arm(shared_dir)

    digests = {r["digest"] for r in baseline} | {r["digest"] for r in shared}
    if len(digests) != 1:
        failures.append(f"table digests diverged across jobs/arms: {digests}")

    publishes = sum(r["stats"]["shared_publishes"] for r in shared)
    attaches = sum(r["stats"]["shared_hits"] for r in shared)
    if publishes != 1:
        failures.append(f"expected exactly 1 publish (warm-up job), saw {publishes}")
    if attaches != args.jobs - 1:
        failures.append(
            f"expected {args.jobs - 1} shared attaches, saw {attaches}"
        )

    baseline_total = sum(r["job_s"] for r in baseline)
    shared_total = sum(r["job_s"] for r in shared)
    speedup = baseline_total / shared_total if shared_total else float("inf")
    block = {
        "n": args.n,
        "m": m,
        "k": args.k,
        "kernel": args.kernel,
        "jobs": args.jobs,
        "workers": args.workers,
        "per_job_s": {
            "baseline": [round(r["job_s"], 5) for r in baseline],
            "shared": [round(r["job_s"], 5) for r in shared],
        },
        "totals_s": {
            "baseline_jobs": round(baseline_total, 4),
            "shared_jobs": round(shared_total, 4),
            "baseline_wall": round(baseline_wall, 4),
            "shared_wall": round(shared_wall, 4),
        },
        "shared_publishes": publishes,
        "shared_attaches": attaches,
        "amortized_job_speedup": round(speedup, 2),
        "min_speedup": args.min_speedup,
        "byte_identical": len(digests) == 1,
    }
    if speedup < args.min_speedup:
        failures.append(
            f"amortized job speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x"
        )
    return block, failures


async def _service_arm(specs, workdir, shared_cache_dir=None):
    config = ServiceConfig(
        workers=2, workdir=str(workdir), shared_cache_dir=shared_cache_dir
    )
    wall = time.perf_counter()
    async with Supervisor(config) as sup:
        jobs = [sup.submit(spec) for spec in specs]
        results = await asyncio.gather(*(job.result_dict() for job in jobs))
    return results, time.perf_counter() - wall


def service_block(args) -> tuple[dict, list[str]]:
    """The same fan-out through the real supervisor, byte-gated."""
    failures: list[str] = []
    tmp = Path(tempfile.mkdtemp(prefix="bench-shared-service-"))
    graph_path = tmp / "graph.edges"
    write_edge_list(
        gnm_random_graph(args.service_n, args.service_n * 2, seed=args.graph_seed),
        graph_path,
    )
    specs = [
        JobSpec(str(graph_path), k=args.k, seed=7, name=f"job-{i}")
        for i in range(args.jobs)
    ]

    plain, plain_wall = asyncio.run(_service_arm(specs, tmp / "work"))
    shared, shared_wall = asyncio.run(
        _service_arm(
            specs, tmp / "work-shared", shared_cache_dir=str(tmp / "cache")
        )
    )

    identical = 0
    for spec, off, on in zip(specs, plain, shared):
        if off["answer"] == on["answer"]:
            identical += 1
        else:
            failures.append(f"{spec.name}: shared answer differs from baseline")
        for arm, result in (("baseline", off), ("shared", on)):
            if not result["verified"]:
                failures.append(f"{spec.name}: {arm} ledger did not reconcile")

    stats = [res["cache"] for res in shared]
    publishes = sum(s["shared_publishes"] for s in stats)
    attaches = sum(s["shared_hits"] for s in stats)
    # Two worker slots start together, so up to two jobs may cold-build
    # concurrently; a double publish installs identical bytes.
    if not 1 <= publishes <= 2:
        failures.append(f"expected 1-2 service publishes, saw {publishes}")
    if attaches < args.jobs - 2:
        failures.append(
            f"expected >= {args.jobs - 2} service attaches, saw {attaches}"
        )
    block = {
        "n": args.service_n,
        "k": args.k,
        "jobs": args.jobs,
        "workers": 2,
        "identical_answers": identical,
        "ledgers_verified": identical == args.jobs and not failures,
        "shared_publishes": publishes,
        "shared_attaches": attaches,
        "timings_s": {
            "baseline_wall": round(plain_wall, 4),
            "shared_wall": round(shared_wall, 4),
        },
    }
    return block, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=22, help="fleet-block vertices")
    parser.add_argument("--edges", type=int, default=None, help="edges (default n*6)")
    parser.add_argument("-k", type=int, default=2, help="plex parameter")
    parser.add_argument("--jobs", type=int, default=8, help="identical jobs per arm")
    parser.add_argument("--workers", type=int, default=2, help="OS worker processes")
    parser.add_argument("--graph-seed", type=int, default=3)
    parser.add_argument(
        "--kernel", default="numpy",
        help="sweep kernel for the fleet block (numpy = deterministic cost)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="required amortized per-job speedup (default 5.0)",
    )
    parser.add_argument(
        "--service-n", type=int, default=9,
        help="instance size for the end-to-end supervisor block",
    )
    parser.add_argument("--out", type=Path, default=None, help="output JSON path")
    args = parser.parse_args(argv)

    fleet, fleet_failures = fleet_block(args)
    service, service_failures = service_block(args)

    report = {
        "bench": "qmkp_shared_cache",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "fleet": fleet,
        "service": service,
    }
    out = args.out or (Path(__file__).parent / "BENCH_qmkp_shared_cache.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "amortized_job_speedup": fleet["amortized_job_speedup"],
        "byte_identical": fleet["byte_identical"],
        "identical_answers": f"{service['identical_answers']}/{service['jobs']}",
        "ledgers_verified": service["ledgers_verified"],
    }, indent=2))
    print(f"-> {out}")
    failures = fleet_failures + service_failures
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
