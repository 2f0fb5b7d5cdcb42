"""Driver shared by the in-process workloads (``gate-qmkp``, ``anneal-qamkp``).

A run solves whole *passes* until ``--seconds`` have been spent in
them.  A pass is the workload's fixed list of instances; pass ``p`` of
seed ``s`` relabels every instance and draws every solver seed from
``(s, p)``, so no input repeats within a run, yet every pass costs the
same.  Counts that must be exact under a fixed seed (oracle calls,
annealing quality, the answer digest) come from the first
``wl.exact_passes`` passes, which every run completes.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from catalogue import UNITS
from common import (
    SETUP_REPS,
    Outcome,
    digest,
    latency_metrics,
    peak_rss_mb,
    rusage_cpu,
    time_fresh_interpreter,
)
from layers import install_solver_layers, per_layer_metrics
from spans import SpanRecorder, share_table


@dataclass
class Item:
    """One solve: an input graph, its certified optimum and solver seed."""

    graph: object
    k: int
    optimum: int
    seed: int
    label: str


@dataclass
class Timed:
    """Result of one timed solve."""

    result: object
    latency: float
    ttfi: float


def _cpu() -> float:
    return rusage_cpu(resource.RUSAGE_SELF) + rusage_cpu(resource.RUSAGE_CHILDREN)


def _probe(wl, tmp: Path, setup: list[float]) -> float:
    """Time one fresh-interpreter set-up into ``setup``; its CPU seconds."""
    cpu = rusage_cpu(resource.RUSAGE_CHILDREN)
    setup.append(time_fresh_interpreter(wl.setup_code, tmp))
    return rusage_cpu(resource.RUSAGE_CHILDREN) - cpu


def _solve_pass(wl, items: list[Item], out: Outcome, rec=None) -> list[Timed]:
    timed = []
    for index, item in enumerate(items):
        first: list[tuple[float, frozenset]] = []

        def on_first(subset) -> None:
            if not first:
                first.append((time.perf_counter(), subset))

        start = time.perf_counter()
        if rec is None:
            result = wl.solve(item, on_first)
        else:
            with rec.span("bench.solve", solve=f"{item.label}#{index}"):
                result = wl.solve(item, on_first)
        end = time.perf_counter()
        first_at, first_subset = first[0] if first else (end, None)
        ok, why = wl.verify(item, result, first_subset)
        out.check(ok, f"{item.label}: {why}")
        timed.append(Timed(result, end - start, first_at - start))
    return timed


def run(wl, seed: int, seconds: float, trace: bool, tiny: bool, tmp: Path,
        spans_path: Path) -> Outcome:
    out = Outcome()
    wl.prepare(tiny)
    first = wl.make_pass(seed, 0)
    wl.solve(first[0], lambda subset: None)  # warm-up, untimed and unchecked
    out.notes["instances_digest"] = digest([wl.describe(i) for i in first])

    if trace:
        base = _solve_pass(wl, first, out)
        rec = SpanRecorder()
        install_solver_layers(rec)
        try:
            traced = _solve_pass(wl, first, out, rec)
        finally:
            rec.unwrap_all()
        overhead = sum(t.latency for t in traced) / sum(t.latency for t in base) - 1
        out.notes["answers_digest"] = digest(
            [wl.answer(t.result) for t in traced]
        )
        per_layer_metrics(out, rec, {
            **wl.layer_values(first, traced),
            "bench.trace_overhead": overhead,
        })
        rec.write(spans_path, {"workload": wl.name, "seed": seed,
                               "solves": len(first)})
        out.notes["spans"] = str(spans_path)
        out.notes["self_time_shares"] = share_table(rec)
        return out

    # Set-up probes run between passes, spaced over ``seconds``, so they
    # sample the host over the whole run rather than in one burst before
    # it; the first is an unrecorded warm-up.  Those a run did not reach
    # follow its last pass.
    reps = 1 if tiny else SETUP_REPS
    time_fresh_interpreter(wl.setup_code, tmp)
    setup: list[float] = []
    all_timed: list[Timed] = []
    exact_items: list[Item] = []
    wall = 0.0
    cpu0, probe_cpu = _cpu(), 0.0
    index = 0
    items = first
    while True:
        start = time.perf_counter()
        timed = _solve_pass(wl, items, out)
        wall += time.perf_counter() - start
        all_timed.extend(timed)
        if index < wl.exact_passes:
            exact_items.extend(items)
        index += 1
        if wall >= seconds and index >= wl.exact_passes:
            break
        if len(setup) < reps and wall >= (len(setup) + 1) * seconds / reps:
            probe_cpu += _probe(wl, tmp, setup)
        items = wl.make_pass(seed, index)
    cpu = _cpu() - cpu0 - probe_cpu
    while len(setup) < reps:
        _probe(wl, tmp, setup)

    exact = all_timed[: len(exact_items)]
    out.notes["answers_digest"] = digest([wl.answer(t.result) for t in exact])
    for name, value in wl.exact_values(exact_items, exact).items():
        out.put(name, value, UNITS[name])
    out.put("setup_s", statistics.median(setup), "s")
    latency_metrics(out, [t.latency for t in all_timed], len(all_timed) / wall)
    out.put("ttfi_p50_s", statistics.median(t.ttfi for t in all_timed), "s")
    out.put("cpu_per_solve_s", cpu / len(all_timed), "s")
    out.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), "MB")
    out.notes.update(passes=index, solves=len(all_timed),
                     setup_samples=[round(s, 4) for s in setup])
    return out

