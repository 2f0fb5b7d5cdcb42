"""Hybrid solver (the D-Wave "Hybrid BQM" stand-in, haMKP's backend).

The paper's hybrid baseline has one observable contract: given at least
its 3-second minimum runtime it returns an optimal or near-optimal cost
on the tested instances.  The real service runs a portfolio of strong
classical heuristics (tabu search, SA, decomposition) seeded from
quantum samples; we reproduce the portfolio part — simulated-annealing
restarts polished by the batched tabu engine
(:func:`repro.annealing.tabu.batched_tabu`, all restarts advanced as
one replica matrix) and steepest descent — and report the
minimum-runtime floor in the timing info exactly as the cloud service
does.
"""

from __future__ import annotations

import numpy as np

from ..perf.anneal import local_fields
from .bqm import BinaryQuadraticModel
from .sa import SimulatedAnnealingSampler
from .sampleset import Sample, SampleSet
from .tabu import batched_tabu

__all__ = ["HybridSampler", "steepest_descent"]

#: The service's minimum charge, in microseconds (3 seconds).
MIN_RUNTIME_US = 3.0e6


def steepest_descent(
    bqm: BinaryQuadraticModel, assignment: dict[object, int]
) -> dict[object, int]:
    """Greedy single-flip descent to a local minimum.

    Runs on the cached CSR view with an incrementally maintained delta
    table: each flip refreshes only the flipped variable's neighbours.
    """
    csr = bqm.to_csr()
    order = list(csr.order)
    n = csr.num_variables
    if n == 0:
        return {}
    x = np.array([[assignment[v] for v in order]], dtype=np.int8)
    fields = local_fields(csr.h, csr.indptr, csr.indices, csr.data, x)[0]
    x = x[0]
    delta = (1.0 - 2.0 * x) * fields
    while True:
        best = int(np.argmin(delta))
        if delta[best] >= 0:
            break
        sign = 1.0 - 2.0 * x[best]
        x[best] ^= 1
        delta[best] = -delta[best]
        lo, hi = csr.indptr[best], csr.indptr[best + 1]
        cols = csr.indices[lo:hi]
        delta[cols] += (1.0 - 2.0 * x[cols]) * csr.data[lo:hi] * sign
    return {v: int(x[i]) for i, v in enumerate(order)}


class HybridSampler:
    """Portfolio solver: SA restarts + batched tabu + steepest descent.

    Parameters
    ----------
    num_restarts:
        SA seeds feeding the tabu stage.
    sweeps:
        SA sweeps per seed.
    tabu_iterations:
        Tabu flips per polished seed.
    """

    def __init__(
        self,
        num_restarts: int = 16,
        sweeps: int = 300,
        tabu_iterations: int = 4000,
    ) -> None:
        self.num_restarts = num_restarts
        self.sweeps = sweeps
        self.tabu_iterations = tabu_iterations

    def sample(
        self,
        bqm: BinaryQuadraticModel,
        time_limit_us: float = MIN_RUNTIME_US,
        seed: int | None = None,
        tracer=None,
    ) -> SampleSet:
        """Solve with the hybrid portfolio; runtime floored at 3 s."""
        bqm.require_finite()
        effective_us = max(float(time_limit_us), MIN_RUNTIME_US)
        sa = SimulatedAnnealingSampler()
        raw = sa.sample(
            bqm,
            num_reads=self.num_restarts,
            num_sweeps=self.sweeps,
            seed=seed,
            tracer=tracer,
        )
        polished: list[Sample] = []
        if raw.samples:
            # The SA stage deduplicates reads, so the tabu batch is one
            # replica per distinct seed state (occurrence counts carried
            # through).  Seeded starts never consume the tabu RNG, so
            # batching leaves each trajectory identical to a standalone
            # polish of the same seed state.
            res = batched_tabu(
                bqm,
                num_restarts=len(raw.samples),
                initial_states=[dict(s.assignment) for s in raw.samples],
                iterations=self.tabu_iterations,
                tracer=tracer,
            )
            for sample, assignment in zip(raw.samples, res.assignments):
                assignment = steepest_descent(bqm, assignment)
                polished.append(
                    Sample(assignment, bqm.energy(assignment), sample.num_occurrences)
                )
        result = SampleSet(polished)
        result.info.update(
            {
                "total_runtime_us": effective_us,
                "minimum_runtime_us": MIN_RUNTIME_US,
                "num_restarts": self.num_restarts,
                "sweeps_per_restart": self.sweeps,
                "tabu_iterations": self.tabu_iterations,
            }
        )
        return result
