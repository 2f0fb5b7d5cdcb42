"""Perf harness for dynamic-graph incremental re-solves.

Two blocks, both gated, emitted as ``BENCH_qmkp_dynamic_n<n>_k<k>.json``:

* ``maintenance`` — amortized per-update cost of re-deriving the
  marked-set state after a single-edge edit, cold (a fresh bit-parallel
  sweep of all ``2^n`` masks per edit) versus incremental
  (:meth:`repro.perf.MarkedSetCache.patch`, which re-evaluates only the
  ``2^(n-2)`` masks containing both endpoints — or just the previously
  marked ones for a deletion).  Patched and fresh tables must be
  byte-identical, and the amortized speedup must clear
  ``--min-speedup`` (default 3x) at the pinned size.

  This is the honest comparison: under the exact profile both arms run
  *the same* probe sequence (the solves are byte-identical, so
  ``gate_units``/``oracle_calls`` match bit for bit), which means the
  classical maintenance sweep is the only cost the edit stream can
  change — and the one that scales as ``2^n`` with the instance.

* ``session`` — an end-to-end :class:`repro.dynamic.IncrementalSolver`
  run over the same kind of edit stream on a smaller companion instance
  (``--solve-n``) where the full statevector simulation is cheap,
  gated on every step being byte-identical to a cold
  :func:`repro.core.qmkp` of the post-edit graph with the step's own
  seed, and on the session ledger reconciling.  Wall-clock for both
  arms is recorded for context, not gated: in simulation the Grover
  probes dominate and are identical in both arms by construction.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_dynamic.py --n 20 --edits 12
    PYTHONPATH=src python benchmarks/perf/bench_dynamic.py \
        --n 18 --edits 8 --solve-n 12 --min-speedup 1.5   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core import qmkp
from repro.dynamic import DynamicGraph, IncrementalSolver
from repro.graphs import gnm_random_graph
from repro.obs import Tracer
from repro.perf import MarkedSetCache, kplex_masks


def _edit_stream(graph, count: int, seed: int):
    """``count`` deterministic single-edge toggles for ``graph``."""
    rng = np.random.default_rng(seed)
    present = {tuple(sorted(e)) for e in graph.edges}
    n = graph.num_vertices
    stream = []
    for _ in range(count):
        u, v = 0, 0
        while u == v:
            u, v = map(int, rng.integers(0, n, 2))
        u, v = min(u, v), max(u, v)
        if (u, v) in present:
            present.discard((u, v))
            stream.append(("remove_edge", u, v))
        else:
            present.add((u, v))
            stream.append(("add_edge", u, v))
    return stream


def _tables_identical(a, b) -> bool:
    return (
        a.num_vertices == b.num_vertices
        and np.array_equal(a._by_size, b._by_size)
        and a._by_size.dtype == b._by_size.dtype
        and np.array_equal(a._offsets, b._offsets)
    )


def maintenance_block(args) -> tuple[dict, list[str]]:
    """Cold sweep vs cache patch per single-edge edit, byte-gated."""
    failures: list[str] = []
    m = args.edges if args.edges is not None else args.n * 6
    graph = gnm_random_graph(args.n, m, seed=args.graph_seed)
    stream = _edit_stream(graph, args.edits, args.graph_seed + 1)

    dg = DynamicGraph(graph)
    cache = MarkedSetCache()
    start = time.perf_counter()
    cache.table(dg.snapshot(), args.k)
    initial_sweep_s = time.perf_counter() - start

    per_edit = []
    for op, u, v in stream:
        old = dg.snapshot()
        getattr(dg, op)(u, v)
        new = dg.snapshot()

        start = time.perf_counter()
        patched = cache.patch(old, new, args.k, op, u, v)
        patch_s = time.perf_counter() - start

        best_cold = float("inf")
        fresh = None
        for _ in range(args.repeat):
            start = time.perf_counter()
            fresh = MarkedSetCache().table(new, args.k)
            best_cold = min(best_cold, time.perf_counter() - start)

        if patched is None or not _tables_identical(patched, fresh):
            failures.append(f"patched table diverges from fresh sweep after {op} {u} {v}")
        per_edit.append({
            "edit": f"{op} {u} {v}",
            "patch_s": round(patch_s, 5),
            "cold_sweep_s": round(best_cold, 5),
            "num_marked": int(fresh.num_marked),
        })

    stats = cache.stats()
    patch_total = sum(e["patch_s"] for e in per_edit)
    cold_total = sum(e["cold_sweep_s"] for e in per_edit)
    speedup = cold_total / patch_total if patch_total else float("inf")
    amortized = (cold_total / args.edits) / (
        (initial_sweep_s + patch_total) / (args.edits + 1)
    )
    block = {
        "n": args.n,
        "m": m,
        "k": args.k,
        "kernel": args.kernel or "default",
        "edits": args.edits,
        "initial_sweep_s": round(initial_sweep_s, 5),
        "per_edit": per_edit,
        "totals_s": {
            "incremental_patches": round(patch_total, 5),
            "cold_sweeps": round(cold_total, 5),
        },
        "amortized_update_speedup": round(speedup, 2),
        "amortized_incl_initial_sweep": round(amortized, 2),
        "reused_partitions": stats["reused_partitions"],
        "cache_patches": stats["patches"],
        "cache_misses": stats["misses"],
        "min_speedup": args.min_speedup,
    }
    if stats["misses"] != 1:
        failures.append(f"incremental arm swept {stats['misses']} times, expected 1")
    if speedup < args.min_speedup:
        failures.append(
            f"amortized update speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x"
        )
    return block, failures


def session_block(args) -> tuple[dict, list[str]]:
    """End-to-end incremental session vs per-step cold solves."""
    failures: list[str] = []
    n = args.solve_n
    m = min(n * 6, n * (n - 1) // 2 - n)  # leave headroom for insertions
    graph = gnm_random_graph(n, m, seed=args.graph_seed)
    stream = _edit_stream(graph, args.solve_edits, args.graph_seed + 2)

    tracer = Tracer()
    session = IncrementalSolver(
        graph, args.k, seed=args.rng_seed, tracer=tracer
    )
    start = time.perf_counter()
    session.resolve()
    for op, u, v in stream:
        getattr(session, op)(u, v)
        session.resolve()
    incremental_s = time.perf_counter() - start

    dg = DynamicGraph(graph)
    cold_s = 0.0
    identical = 0
    for step_result in session.history:
        for edit in step_result.edits:
            dg.apply(edit)
        start = time.perf_counter()
        cold = qmkp(
            dg.snapshot(), args.k,
            rng=session.step_rng(step_result.step),
            cache=MarkedSetCache(),
        )
        cold_s += time.perf_counter() - start
        if (
            cold.subset == step_result.subset
            and cold.oracle_calls == step_result.result.oracle_calls
            and cold.gate_units == step_result.result.gate_units
            and cold.progression == step_result.result.progression
        ):
            identical += 1
        else:
            failures.append(
                f"step {step_result.step} diverged from its cold solve"
            )

    drift = session.ledger().verify(raise_on_drift=False)
    for record in drift:
        failures.append(f"ledger drift: {record}")
    block = {
        "n": n,
        "m": m,
        "k": args.k,
        "edits": args.solve_edits,
        "steps": len(session.history),
        "identical_steps": identical,
        "reused_partitions": sum(s.reused_partitions for s in session.history),
        "timings_s": {
            "incremental_session": round(incremental_s, 4),
            "cold_resolves": round(cold_s, 4),
        },
        "simulator_wall_speedup": round(cold_s / incremental_s, 2),
        "ledger_verified": not drift,
    }
    return block, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20, help="maintenance-block vertices")
    parser.add_argument("--edges", type=int, default=None, help="edges (default n*6)")
    parser.add_argument("-k", type=int, default=2, help="plex parameter")
    parser.add_argument("--edits", type=int, default=12, help="single-edge updates")
    parser.add_argument("--graph-seed", type=int, default=3)
    parser.add_argument("--rng-seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3, help="cold-sweep timing repeats")
    parser.add_argument(
        "--kernel", default=None,
        help="sweep kernel backend (default: best available tier)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="required amortized single-edge update speedup (default 3.0)",
    )
    parser.add_argument(
        "--solve-n", type=int, default=14,
        help="companion instance for the end-to-end byte-identity block",
    )
    parser.add_argument(
        "--solve-edits", type=int, default=6,
        help="edit-stream length for the end-to-end block",
    )
    parser.add_argument("--out", type=Path, default=None, help="output JSON path")
    args = parser.parse_args(argv)
    if args.kernel:
        os.environ["REPRO_KERNEL"] = args.kernel

    maint, maint_failures = maintenance_block(args)
    sess, sess_failures = session_block(args)

    report = {
        "bench": "qmkp_dynamic",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "maintenance": maint,
        "session": sess,
    }
    out = args.out or (
        Path(__file__).parent / f"BENCH_qmkp_dynamic_n{args.n}_k{args.k}.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "amortized_update_speedup": maint["amortized_update_speedup"],
        "amortized_incl_initial_sweep": maint["amortized_incl_initial_sweep"],
        "identical_steps": f"{sess['identical_steps']}/{sess['steps']}",
        "ledger_verified": sess["ledger_verified"],
    }, indent=2))
    print(f"-> {out}")
    failures = maint_failures + sess_failures
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
