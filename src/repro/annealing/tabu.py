"""Tabu search over binary quadratic models.

Single-flip tabu search with incremental delta-energy maintenance and
the standard aspiration criterion (a tabu flip is allowed if it beats
the incumbent).  This is the workhorse of D-Wave's hybrid solvers;
combined with SA seeding it reliably digs the MKP QUBOs' optima out of
their penalty barriers, which plain SA cannot at comparable budgets.

The engine is batched: :func:`batched_tabu` advances ``num_restarts``
trajectories as one matrix on the sparse kernels in
:mod:`repro.perf.anneal` — per-replica delta tables, tabu clocks, and
aspiration, with a flip costing ``O(degree)`` neighbour updates per
replica.  :func:`tabu_search` is the single-trajectory view kept for
callers that want one ``(assignment, energy)``; with one replica the
batched kernel reproduces the historical single-loop trajectory
flip-for-flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import NULL_TRACER
from ..perf.anneal import tabu_descend
from .bqm import BinaryQuadraticModel

__all__ = ["BatchedTabuResult", "batched_tabu", "tabu_search"]


@dataclass
class BatchedTabuResult:
    """Per-replica outcome of a :func:`batched_tabu` run."""

    assignments: list[dict]
    energies: np.ndarray
    info: dict = field(default_factory=dict)

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.energies))

    @property
    def best_assignment(self) -> dict:
        return self.assignments[self.best_index]

    @property
    def best_energy(self) -> float:
        return float(self.energies[self.best_index])


def batched_tabu(
    bqm: BinaryQuadraticModel,
    num_restarts: int = 1,
    initial_states=None,
    iterations: int = 5000,
    tenure: int | None = None,
    seed: int | None = None,
    tracer=None,
    _record_flips: list | None = None,
) -> BatchedTabuResult:
    """Run ``num_restarts`` tabu trajectories as one replica matrix.

    Parameters
    ----------
    initial_states:
        A list of assignment dicts or a ``(num_restarts, n)`` 0/1 array;
        random starts when omitted.
    iterations:
        Flips per replica (every step flips exactly one variable per
        replica, so the total flip budget is ``num_restarts *
        iterations``).
    tenure:
        Tabu tenure; defaults to ``min(20, num_vars // 4 + 1)``.
    tracer:
        Optional :class:`repro.obs.Tracer`; opens one ``anneal.tabu``
        span whose step/flip counters the run ledger reconciles against
        ``info``.
    _record_flips:
        Test hook — a list that receives the chosen variable index per
        replica for every step (the flip-for-flip evidence the
        seed-equivalence suite compares).
    """
    if num_restarts < 1:
        raise ValueError(f"num_restarts must be >= 1, got {num_restarts}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    bqm.require_finite()
    tracer = tracer or NULL_TRACER
    rng = np.random.default_rng(seed)
    csr = bqm.to_csr()
    order = list(csr.order)
    n = csr.num_variables
    if tenure is None:
        tenure = min(20, n // 4 + 1)
    if n == 0:
        return BatchedTabuResult(
            assignments=[{} for _ in range(num_restarts)],
            energies=np.full(num_restarts, float(bqm.offset)),
            info={
                "num_restarts": num_restarts,
                "iterations": iterations,
                "tenure": tenure,
                "num_flips": 0,
            },
        )
    if initial_states is not None:
        if isinstance(initial_states, np.ndarray):
            x = initial_states.astype(np.int8)
        else:
            x = np.array(
                [[assignment[v] for v in order] for assignment in initial_states],
                dtype=np.int8,
            )
        if x.shape != (num_restarts, n):
            raise ValueError(
                f"initial_states must be ({num_restarts}, {n}), got {x.shape}"
            )
    else:
        x = rng.integers(0, 2, size=(num_restarts, n)).astype(np.int8)
    energies = bqm.energies(x, order)
    total_flips = iterations * num_restarts
    with tracer.span(
        "anneal.tabu",
        num_restarts=num_restarts,
        iterations=iterations,
        num_variables=n,
    ) as span:
        best_x, best_energy = tabu_descend(
            csr.h, csr.indptr, csr.indices, csr.data,
            x, energies, iterations, tenure, record_flips=_record_flips,
        )
        tracer.add("anneal_tabu_steps", iterations)
        tracer.add("anneal_tabu_flips", total_flips)
        span.claim("anneal_tabu_steps", iterations)
        span.claim("anneal_tabu_flips", total_flips)
    assignments = [
        {v: int(best_x[r, c]) for c, v in enumerate(order)}
        for r in range(num_restarts)
    ]
    return BatchedTabuResult(
        assignments=assignments,
        energies=best_energy,
        info={
            "num_restarts": num_restarts,
            "iterations": iterations,
            "tenure": tenure,
            "num_flips": total_flips,
        },
    )


def tabu_search(
    bqm: BinaryQuadraticModel,
    initial: dict[object, int] | None = None,
    iterations: int = 5000,
    tenure: int | None = None,
    seed: int | None = None,
    tracer=None,
) -> tuple[dict[object, int], float]:
    """Minimise ``bqm``; returns ``(best_assignment, best_energy)``.

    Single-trajectory view over :func:`batched_tabu` with one replica —
    same flip sequence as the historical standalone loop (first-minimum
    tie-break, 1e-12 aspiration slack, same RNG stream for random
    starts).

    Parameters
    ----------
    initial:
        Starting assignment (random when omitted).
    iterations:
        Number of flips to perform.
    tenure:
        Tabu tenure; defaults to ``min(20, num_vars // 4 + 1)``.
    """
    if bqm.num_variables == 0:
        return {}, float(bqm.offset)
    result = batched_tabu(
        bqm,
        num_restarts=1,
        initial_states=None if initial is None else [initial],
        iterations=iterations,
        tenure=tenure,
        seed=seed,
        tracer=tracer,
    )
    return result.assignments[0], float(result.energies[0])
