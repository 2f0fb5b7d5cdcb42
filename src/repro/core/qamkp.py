"""qaMKP — Quantum Annealing for MKP (Algorithm 4) and its baselines.

One driver runs the paper's four solver configurations over the same
objective (Eq. 12):

* ``solver="qpu"``   — qaMKP on the simulated quantum annealer
  (annealing time ``delta_t_us`` per shot, shot count from the runtime
  budget: ``s = t / delta_t``);
* ``solver="hybrid"`` — haMKP on the hybrid portfolio (3 s minimum);
* ``solver="sa"``    — classical simulated annealing with a fixed small
  sweep count and budget-scaled shots (the paper fixes 2 sweeps);
* ``solver="milp"``  — Gurobi-style linearised MILP with a time limit.

Every run reports the paper's headline metric — the best objective cost
reached within the runtime budget — plus the decoded vertex set and a
repaired (guaranteed-feasible) k-plex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..annealing import (
    HybridSampler,
    SimulatedAnnealingSampler,
    SimulatedQPUSampler,
)
from ..graphs import Graph
from ..kplex import is_kplex, repair_to_kplex
from ..milp import solve_qubo_milp
from ..obs import NULL_TRACER
from ..resilience import (
    CASCADE_ORDER,
    FallbackCascade,
    FaultInjectingSampler,
    FaultPlan,
    RetryPolicy,
    validate_sampleset,
)
from .qubo_formulation import MkpQubo, build_mkp_qubo

__all__ = ["QAMKPResult", "qamkp", "cost_versus_runtime"]

_SOLVERS = ("qpu", "hybrid", "sa", "milp")


@dataclass(frozen=True)
class QAMKPResult:
    """Outcome of one annealing-style MKP solve.

    Attributes
    ----------
    cost:
        Best objective value found (lower is better; ``-|P*|`` with
        zero penalty at a feasible optimum with optimal slack).
    subset:
        The decoded vertex set of the best sample (may violate the
        k-plex constraint when the penalty was not driven to zero).
    repaired:
        ``subset`` greedily shrunk to a guaranteed k-plex.
    feasible:
        Whether the raw decoded subset is already a k-plex.
    runtime_us:
        The runtime budget charged (solver semantics documented above).
    solver:
        Which backend produced the result.
    info:
        Backend-specific metadata (chain stats, sweep counts, ...).
    """

    cost: float
    subset: frozenset[int]
    repaired: frozenset[int]
    feasible: bool
    runtime_us: float
    solver: str
    info: dict[str, object]

    @property
    def repaired_size(self) -> int:
        return len(self.repaired)


def _validated(sampleset, model: MkpQubo):
    """Quarantine malformed rows; an empty survivor set is an error."""
    clean, _report = validate_sampleset(sampleset, model.bqm)
    if not clean.samples:
        raise ValueError(
            "sampler returned no usable rows: every sample was quarantined"
        )
    return clean


def qamkp(
    graph: Graph,
    k: int,
    penalty: float = 2.0,
    runtime_us: float = 1000.0,
    delta_t_us: float = 1.0,
    solver: str = "qpu",
    qubo: MkpQubo | None = None,
    qpu: SimulatedQPUSampler | None = None,
    seed: int | None = None,
    sa_shot_cost_us: float = 100.0,
    retries: int = 0,
    fallback: bool = False,
    fault_plan: FaultPlan | str | None = None,
    sa_workers: int | None = None,
    warm: frozenset[int] | None = None,
    tracer=None,
) -> QAMKPResult:
    """Solve MKP through the QUBO objective with the chosen backend.

    Parameters
    ----------
    graph, k:
        The MKP instance.
    penalty:
        The penalty weight ``R > 1`` (paper default 2).
    runtime_us:
        Total runtime budget ``t``; for the QPU ``s = t / delta_t``
        shots are taken, for SA ``s`` shots of 2 sweeps, for MILP it is
        the solver time limit, and the hybrid floors it at 3 s.
    delta_t_us:
        Annealing time per shot (QPU only; Table V sweeps this).
    qubo:
        Reuse a pre-built :class:`MkpQubo` (skips rebuilding).
    qpu:
        Reuse a sampler (and embedding cache) across budgets.
    sa_shot_cost_us:
        Model wall-time of one classical SA shot (2 sweeps) on a CPU;
        SA takes ``runtime_us / sa_shot_cost_us`` shots.  QPU shots
        cost ``delta_t_us`` each — the hundredfold gap is exactly why
        the paper's SA curve only starts around 10^4 us.
    retries:
        QPU solves only: number of retries (so ``retries + 1``
        attempts) with exponential backoff and full jitter, all debited
        from the same ``runtime_us`` budget.
    fallback:
        QPU solves only: degrade through the sa -> tabu -> greedy
        cascade instead of raising when the (resilient) QPU path fails.
    fault_plan:
        Inject deterministic faults into the QPU sampler (a
        :class:`~repro.resilience.FaultPlan` or its string form, e.g.
        ``"transient=2,storm=0.5"``) — for testing the handlers.

    Any of ``retries``/``fallback``/``fault_plan`` routes the QPU solve
    through the resilience pipeline and attaches the structured
    :class:`~repro.resilience.ResilienceReport` as ``info["resilience"]``;
    otherwise failures raise through unchanged.  Every sampler-backed
    solve validates its sample set (quarantining malformed rows) before
    the decode/repair step.

    ``sa_workers`` (SA solves only) shards the SA replica batch over a
    process pool (see
    :meth:`repro.annealing.SimulatedAnnealingSampler.sample`); results
    stay byte-identical to single-process runs.

    ``warm`` (SA solves only) seeds every read's initial state from a
    known vertex subset instead of uniform random bits: the subset's
    indicator is completed with its closed-form optimal slack
    (:meth:`~repro.core.qubo_formulation.MkpQubo.optimal_slack`), so
    the anneal starts at the subset's true objective value — the
    incremental solver's sampleset carry-over channel.  Warm runs
    consume a different RNG stream than cold ones (the uniform
    initial-state draw is skipped), so they are deterministic per seed
    but not byte-identical to cold solves; ``info["warm_start"]``
    records the seeding.

    ``tracer`` (optional :class:`repro.obs.Tracer`) opens one ``qamkp``
    root span; resilient solves nest the cascade/attempt spans under it
    and the span's claims are checked against ``info["resilience"]`` by
    the run ledger.  Annealing-backed solves additionally contribute
    ``anneal.sa`` / ``anneal.tabu`` spans whose sweep and flip counters
    the ledger reconciles exactly.
    """
    if solver not in _SOLVERS:
        raise ValueError(f"solver must be one of {_SOLVERS}, got {solver!r}")
    if runtime_us <= 0:
        raise ValueError(f"runtime_us must be > 0, got {runtime_us}")
    if fault_plan is not None and solver != "qpu":
        raise ValueError("fault_plan is only supported for solver='qpu'")
    if sa_workers is not None and solver != "sa":
        raise ValueError("sa_workers is only supported for solver='sa'")
    if warm is not None and solver != "sa":
        raise ValueError("warm is only supported for solver='sa'")

    tracer = tracer or NULL_TRACER
    with tracer.span(
        "qamkp", n=graph.num_vertices, k=k, solver=solver, runtime_us=runtime_us
    ) as span:
        result = _qamkp_body(
            graph, k, penalty, runtime_us, delta_t_us, solver, qubo, qpu,
            seed, sa_shot_cost_us, retries, fallback, fault_plan, sa_workers,
            warm, tracer,
        )
        tracer.add("qamkp_solves", 1)
        span.set("cost", result.cost)
        span.set("feasible", result.feasible)
        span.set("repaired_size", result.repaired_size)
        res = result.info.get("resilience")
        if isinstance(res, dict):
            # The cascade already claimed these on its own span; claiming
            # again here pins the same totals to what the *result* carries,
            # so a divergence between report and info surfaces as drift.
            span.claim("resilience_attempts", len(res["attempts"]))
            span.claim("resilience_faults", len(res["faults"]))
            span.claim("resilience_charged_us", res["charged_us"])
            span.claim("resilience_fallback_hops", len(res["fallbacks"]))
    return result


def _qamkp_body(
    graph, k, penalty, runtime_us, delta_t_us, solver, qubo, qpu,
    seed, sa_shot_cost_us, retries, fallback, fault_plan, sa_workers,
    warm, tracer,
) -> QAMKPResult:
    model = qubo or build_mkp_qubo(graph, k, penalty)
    info: dict[str, object] = {}

    if solver == "qpu":
        sampler = qpu or SimulatedQPUSampler()
        plan = (
            FaultPlan.parse(fault_plan)
            if isinstance(fault_plan, str)
            else fault_plan
        )
        if plan is not None and not plan.is_noop:
            sampler = FaultInjectingSampler(sampler, plan)
        if retries > 0 or fallback or isinstance(sampler, FaultInjectingSampler):
            cascade = FallbackCascade(
                sampler,
                backends=CASCADE_ORDER if fallback else ("qpu",),
                policy=RetryPolicy(max_attempts=retries + 1),
                sa_shot_cost_us=sa_shot_cost_us,
            )
            outcome = cascade.solve(
                model, graph, k,
                runtime_us=runtime_us,
                delta_t_us=delta_t_us,
                seed=seed,
                tracer=tracer,
            )
            cost = outcome.cost
            assignment = dict(outcome.assignment)
            if outcome.sampleset is not None:
                info.update(outcome.sampleset.info)
            info["backend_used"] = outcome.backend
            info["resilience"] = outcome.report.as_dict()
            info["total_runtime_us"] = outcome.report.charged_us
        else:
            shots = max(1, int(round(runtime_us / delta_t_us)))
            with tracer.span("qamkp.sample", backend="qpu", shots=shots):
                sampleset = sampler.sample(
                    model.bqm,
                    annealing_time_us=delta_t_us,
                    num_reads=shots,
                    seed=seed,
                )
            if "chain_break_fraction" in sampleset.info:
                tracer.observe(
                    "chain_break_fraction",
                    float(sampleset.info["chain_break_fraction"]),
                )
            sampleset = _validated(sampleset, model)
            best = sampleset.first
            cost = best.energy
            assignment = dict(best.assignment)
            info.update(sampleset.info)
    elif solver == "sa":
        sampler = SimulatedAnnealingSampler()
        shots = max(1, int(round(runtime_us / sa_shot_cost_us)))
        initial_states = None
        if warm is not None:
            # Start every read at the warm subset with its closed-form
            # optimal slack, expressed in the CSR variable order the
            # sampler anneals in.
            warm_assignment = model.optimal_slack(frozenset(warm))
            order = list(model.bqm.to_csr().order)
            row = np.array(
                [[warm_assignment[var] for var in order]], dtype=np.int8
            )
            initial_states = np.tile(row, (shots, 1))
        with tracer.span("qamkp.sample", backend="sa", shots=shots):
            sampleset = sampler.sample(
                model.bqm,
                num_reads=shots,
                num_sweeps=2,
                seed=seed,
                initial_states=initial_states,
                workers=sa_workers,
                tracer=tracer,
            )
        if warm is not None:
            info["warm_start"] = True
            info["warm_size"] = len(warm)
            tracer.add("warm_start_hits", 1)
        sampleset = _validated(sampleset, model)
        best = sampleset.first
        cost = best.energy
        assignment = dict(best.assignment)
        info.update(sampleset.info)
        info["total_runtime_us"] = runtime_us
    elif solver == "hybrid":
        # Portfolio stage (SA restarts + tabu + descent) ...
        sampler = HybridSampler()
        with tracer.span("qamkp.sample", backend="hybrid"):
            sampleset = sampler.sample(
                model.bqm, time_limit_us=runtime_us, seed=seed, tracer=tracer,
            )
        sampleset = _validated(sampleset, model)
        best = sampleset.first
        cost = best.energy
        assignment = dict(best.assignment)
        # ... plus the structure-aware stage the cloud hybrid's classical
        # workers perform: exploit the slack-block structure by solving
        # the collapsed problem exactly and completing slack in closed
        # form.  Keep whichever stage scored lower.
        from ..kplex import maximum_kplex

        structural_subset = maximum_kplex(graph, k).subset
        structural_assignment = model.optimal_slack(structural_subset)
        structural_cost = model.bqm.energy(structural_assignment)
        stage = "portfolio"
        if structural_cost < cost:
            cost = structural_cost
            assignment = structural_assignment
            stage = "structural"
        info.update(sampleset.info)
        info["winning_stage"] = stage
        runtime_us = float(info["total_runtime_us"])
    else:  # milp
        result = solve_qubo_milp(model.bqm, time_limit_us=runtime_us)
        if not result.found:
            # No incumbent within the limit: report the empty assignment.
            assignment = {v: 0 for v in model.bqm.variables}
            cost = model.bqm.energy(assignment)
            info["status"] = "no_solution"
        else:
            assignment = dict(result.assignment)
            cost = float(result.energy)
            info["status"] = result.status
        info["backend"] = "milp"

    subset = model.decode(assignment)
    feasible = is_kplex(graph, subset, k)
    repaired = subset if feasible else repair_to_kplex(graph, subset, k)
    return QAMKPResult(
        cost=float(cost),
        subset=subset,
        repaired=repaired,
        feasible=feasible,
        runtime_us=float(runtime_us),
        solver=solver,
        info=info,
    )


def cost_versus_runtime(
    graph: Graph,
    k: int,
    runtimes_us: list[float],
    solver: str = "qpu",
    penalty: float = 2.0,
    delta_t_us: float = 1.0,
    seed: int | None = None,
    qpu: SimulatedQPUSampler | None = None,
    tracer=None,
) -> list[QAMKPResult]:
    """The cost-vs-runtime curves of Figs. 13-14: one solve per budget.

    The QUBO (and, for the QPU, the embedding) is built once and shared
    so the sweep measures sampling budgets, not setup.  With a tracer,
    each budget's solve contributes its own ``qamkp`` root span.
    """
    model = build_mkp_qubo(graph, k, penalty)
    sampler = qpu or (SimulatedQPUSampler() if solver == "qpu" else None)
    out = []
    rng = np.random.default_rng(seed)
    for runtime in runtimes_us:
        out.append(
            qamkp(
                graph,
                k,
                penalty=penalty,
                runtime_us=runtime,
                delta_t_us=delta_t_us,
                solver=solver,
                qubo=model,
                qpu=sampler,
                seed=int(rng.integers(0, 2**31)) if seed is not None else None,
                tracer=tracer,
            )
        )
    return out
