"""Grover iteration schedules and success probabilities.

Closed-form facts about amplitude amplification used across the gate
algorithms and the analysis layer:

* optimal iteration count ``floor(pi/4 * sqrt(N / M))`` (Algorithm 1
  line 4 of the paper);
* exact success probability ``sin^2((2i + 1) * theta)`` with
  ``sin^2 theta = M / N``;
* the paper's error bound ``pi^2 / (4 I)^2`` after ``I`` iterations.
"""

from __future__ import annotations

import math

__all__ = [
    "optimal_iterations",
    "best_iterations",
    "success_probability",
    "error_probability",
    "paper_error_bound",
]


def optimal_iterations(num_states: int, num_marked: int) -> int:
    """``floor(pi/4 * sqrt(N/M))``, the canonical Grover schedule.

    Returns 0 only when ``M > (pi/4)^2 * N`` (about 0.617 N), not as
    soon as ``M > N/2``: ``optimal_iterations(16, 9) == 1``.  Where a
    majority is marked but the floor is still 1, that one round can
    overshoot; :func:`best_iterations` corrects for it.
    """
    if num_states <= 0:
        raise ValueError(f"num_states must be positive, got {num_states}")
    if not (0 < num_marked <= num_states):
        raise ValueError(
            f"num_marked must be in [1, {num_states}], got {num_marked}"
        )
    return int(math.floor(math.pi / 4.0 * math.sqrt(num_states / num_marked)))


def best_iterations(num_states: int, num_marked: int) -> int:
    """The iteration count maximising the success probability.

    The canonical ``floor(pi/4 * sqrt(N/M))`` schedule can *overshoot*
    when ``M`` is a large fraction of ``N`` (e.g. M slightly above N/2
    rotates past the target and measures worse than the uniform state).
    With ``M`` known, scanning the handful of candidate counts around
    the canonical one and keeping the argmax is free and strictly
    better; qTKP uses this schedule.
    """
    canonical = optimal_iterations(num_states, num_marked)
    best, best_p = 0, success_probability(num_states, num_marked, 0)
    for i in range(1, canonical + 2):
        p = success_probability(num_states, num_marked, i)
        if p > best_p:
            best, best_p = i, p
    return best


def success_probability(num_states: int, num_marked: int, iterations: int) -> float:
    """Probability of measuring a marked state after ``iterations`` steps."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if num_marked == 0:
        return 0.0
    theta = math.asin(math.sqrt(num_marked / num_states))
    return math.sin((2 * iterations + 1) * theta) ** 2


def error_probability(num_states: int, num_marked: int, iterations: int) -> float:
    """``1 - success_probability`` — the exact failure chance."""
    return 1.0 - success_probability(num_states, num_marked, iterations)


def paper_error_bound(iterations: int) -> float:
    """The paper's quoted bound ``pi^2 / (4 I)^2`` on the error probability.

    Only meaningful for ``I >= 1``; at the optimal iteration count it
    upper-bounds the true error for M << N.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    return (math.pi ** 2) / (4.0 * iterations) ** 2
