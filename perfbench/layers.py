"""Which public functions make up each layer, and the per-layer table.

Each entry wraps the name where its caller looks it up, so the span
lands on exactly the calls the solver makes.  ``repro.core`` re-exports
functions named like its submodules (``repro.core.qmkp`` is the
function there), so the modules are fetched with ``importlib``.
"""

from __future__ import annotations

import importlib

from catalogue import PER_LAYER, SELF_TIME_SPANS, UNITS
from common import Outcome
from spans import SpanRecorder


def install_solver_layers(rec: SpanRecorder) -> None:
    """Wrap the gate and annealing stacks (both are in every process)."""
    simulator = importlib.import_module("repro.grover.simulator")
    qmkp_mod = importlib.import_module("repro.core.qmkp")
    qtkp_mod = importlib.import_module("repro.core.qtkp")
    qamkp_mod = importlib.import_module("repro.core.qamkp")
    qpu_mod = importlib.import_module("repro.annealing.qpu")
    sa_mod = importlib.import_module("repro.annealing.sa")

    def qtkp_found(result) -> None:
        rec.count("core.qtkp.found", int(result.found))

    def masks_enumerated(result) -> None:
        rec.count("perf.enumerate.masks", int(result[0].size))

    def qubo_size(result) -> None:
        rec.count("core.qubo.variables", result.num_variables)

    rec.wrap(simulator.PhaseOracleGrover, "run", "grover.run")
    rec.wrap(simulator.GroverRun, "measure", "grover.measure")
    rec.wrap(simulator.GroverRun, "measure_once", "grover.measure")
    rec.wrap(qmkp_mod, "qmkp", "core.qmkp")
    rec.wrap(qmkp_mod, "qtkp", "core.qtkp", on_result=qtkp_found)
    rec.wrap(qmkp_mod, "best_upper_bound", "kplex.bounds")
    rec.wrap("repro.perf.cache", "kplex_masks", "perf.enumerate",
             on_result=masks_enumerated)
    for module in (qmkp_mod, qtkp_mod, qamkp_mod):
        rec.wrap(module, "is_kplex", "kplex.verify")
    rec.wrap(qamkp_mod, "qamkp", "core.qamkp")
    rec.wrap(qamkp_mod, "repair_to_kplex", "kplex.repair")
    rec.wrap(qamkp_mod, "build_mkp_qubo", "core.qubo.build", on_result=qubo_size)
    rec.wrap(qamkp_mod, "validate_sampleset", "resilience.validate")
    # clique_embedding_auto imports chimera_graph from the topology
    # module at call time, so that module's binding is wrapped too.
    rec.wrap(qpu_mod, "chimera_graph", "annealing.topology")
    rec.wrap("repro.annealing.topology", "chimera_graph", "annealing.topology")
    rec.wrap(qpu_mod, "find_embedding", "annealing.embed")
    rec.wrap(qpu_mod, "clique_embedding_auto", "annealing.embed")
    rec.wrap(qpu_mod.SimulatedQPUSampler, "sample", "annealing.qpu.sample")
    rec.wrap(sa_mod.SimulatedAnnealingSampler, "sample", "annealing.sa.sample")


def per_layer_metrics(
    out: Outcome, rec: SpanRecorder, values: dict[str, float]
) -> None:
    """Fill every per-layer metric: self times and call counts from the
    spans, the rest from ``values`` and the recorder's counters; a layer
    the pass never reached reports 0."""
    self_s = rec.self_times()
    calls = rec.calls()
    derived = dict(rec.counts)
    for span in SELF_TIME_SPANS:
        derived[f"{span}.self_s"] = self_s.get(span, 0.0)
    derived["grover.run.calls"] = calls.get("grover.run", 0)
    derived["core.qtkp.calls"] = qtkp_calls = calls.get("core.qtkp", 0)
    derived["core.qtkp.hit_ratio"] = (
        rec.counts.get("core.qtkp.found", 0) / qtkp_calls if qtkp_calls else 0.0
    )
    derived["perf.enumerate.calls"] = calls.get("perf.enumerate", 0)
    derived.update(values)
    derived["error_rate"] = out.failed / out.attempted if out.attempted else 1.0
    for name in PER_LAYER:
        out.put(name, derived.get(name, 0.0), UNITS[name])
