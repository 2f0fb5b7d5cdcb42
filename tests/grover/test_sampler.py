"""Exactness of the two-valued Grover sampler.

``GroverRun.measure`` / ``measure_once`` draw through
:class:`~repro.grover.simulator.TwoValuedCumsum`, which rebuilds the
float64 prefix sums that ``Generator.choice`` searches without the
``2^n`` probability vector.  Every test compares draw for draw, and
generator state for generator state, against ``rng.choice(2^n,
p=run.probabilities())``, so a NumPy release that changes ``choice``'s
cumsum/searchsorted draw or its ``random()`` stream fails here first.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grover import GroverRun, PhaseOracleGrover

#: A marked value whose tie binade an n = 12, M = 26 run walks through:
#: in [2^-3, 2^-2) it is a whole number of ulps plus one half.
TIED_MARKED = float.fromhex("0x1.10ed346d6812ap-5")
#: An unmarked value from an n = 19 gate-qmkp run, tied in [2^-21, 2^-20).
TIED_UNMARKED = float.fromhex("0x1.5bfd4c3b7ddb0p-26")


def choice_draws(rng, probs, shots):
    """``measure_once`` x 3 then ``measure(shots)``, the vector way."""
    once = [int(rng.choice(probs.size, p=probs)) for _ in range(3)]
    values, counts = np.unique(rng.choice(probs.size, size=shots, p=probs), return_counts=True)
    return once, dict(zip(values.tolist(), counts.tolist()))


def assert_draws_match(run, seed=0, shots=64):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = [run.measure_once(ours) for _ in range(3)], run.measure(shots, ours)
    assert drawn == choice_draws(theirs, run.probabilities(), shots)
    assert ours.bit_generator.state == theirs.bit_generator.state


class ScriptedGenerator(np.random.Generator):
    """A generator whose ``random()`` returns the given doubles in order."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self._values = list(values)

    def random(self, size=None, dtype=np.float64, out=None):
        count = 1 if size is None else int(np.prod(size))
        taken, self._values = self._values[:count], self._values[count:]
        return taken[0] if size is None else np.array(taken).reshape(size)


@st.composite
def grover_runs(draw, max_n=20):
    """A run of one of several marked-set shapes, any iteration count."""
    n = draw(st.integers(1, max_n))
    dim = 1 << n
    shape = draw(st.sampled_from(["empty", "one", "all", "sparse", "dense", "run"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "empty":
        marked = []
    elif shape == "one":
        marked = [int(rng.integers(dim))]
    elif shape == "all":
        marked = range(dim if n <= 16 else 1)
    elif shape == "sparse":
        marked = rng.choice(dim, size=min(dim, int(rng.integers(1, 64))), replace=False)
    elif shape == "dense":
        marked = rng.choice(dim, size=int(rng.integers(1, min(dim, 1 << 14) + 1)), replace=False)
    else:
        start = int(rng.integers(dim))
        marked = range(start, min(dim, start + int(rng.integers(1, 4096))))
    engine = PhaseOracleGrover(n, np.asarray(marked, dtype=np.int64))
    iterations = draw(st.integers(0, engine.optimal_iterations() + 2))
    depolarize = draw(st.sampled_from([0.0, 0.0, 0.02, 0.3]))
    return engine.run(iterations, depolarize=depolarize)


def boundary_uniforms(probs):
    """Every cdf value ``choice`` builds from ``probs``, and its two
    neighbouring doubles: each one a draw boundary."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    uniforms = np.concatenate(([0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)))
    return uniforms[uniforms < 1.0]


def assert_boundaries_match(sampler, probs):
    uniforms = boundary_uniforms(probs)
    ours = sampler.draw(ScriptedGenerator(uniforms), uniforms.size)
    theirs = ScriptedGenerator(uniforms).choice(probs.size, size=uniforms.size, p=probs)
    assert ours.tolist() == theirs.tolist()


def tie_hit(vector, value) -> bool:
    """Whether some addition of ``value`` in ``np.cumsum(vector)`` is a
    round-half-to-even tie."""
    before = np.cumsum(vector)[:-1][vector[1:] == value]
    units = value / np.spacing(before)
    return bool(np.any(units - np.floor(units) == 0.5))


class TestDrawsMatchChoice:
    @given(grover_runs(), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_random_runs(self, run, seed):
        assert_draws_match(run, seed)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("depolarize", [0.0, 0.1])
    def test_every_marked_set(self, n, depolarize):
        for bits in range(1 << (1 << n)):
            engine = PhaseOracleGrover(n, [i for i in range(1 << n) if bits >> i & 1])
            for iterations in range(4):
                assert_draws_match(engine.run(iterations, depolarize=depolarize), bits)

    @pytest.mark.parametrize("n", [17, 20])
    @pytest.mark.parametrize("shape", ["empty", "one", "all"])
    def test_wide_registers(self, n, shape):
        marked = {"empty": [], "one": [(1 << n) - 3], "all": range(1 << n)}[shape]
        engine = PhaseOracleGrover(n, np.asarray(marked, dtype=np.int64))
        assert_draws_match(engine.run(min(engine.optimal_iterations(), 3)), n)

    def test_unmarked_probability_exactly_zero(self):
        run = PhaseOracleGrover(2, [1]).run(1)  # N = 4, M = 1: one round is exact
        assert run.unmarked_amplitude == 0.0
        assert_draws_match(run)
        assert run.measure(100, np.random.default_rng(0)) == {1: 100}

    def test_zero_shots(self):
        run = PhaseOracleGrover(5, [3, 9]).run(2)
        ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
        assert run.measure(0, ours) == {}
        theirs.choice(32, size=0, p=run.probabilities())
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("tied", ["marked", "unmarked"])
    def test_tie_binades(self, tied):
        """Pinned values whose walk adds them on round-half-to-even ties."""
        n, size = 12, 1 << 12
        rng = np.random.default_rng(26)
        marked = np.sort(rng.choice(np.arange(64, size), size=26, replace=False))
        if tied == "marked":
            x = TIED_MARKED
            y = (1.0 - 26 * x) / (size - 26)
        else:
            y = TIED_UNMARKED
            x = (1.0 - (size - 26) * y) / 26
        engine = PhaseOracleGrover(n, marked)
        vector = engine.expand(x, y)
        assert tie_hit(vector, x if tied == "marked" else y)
        sampler = engine.cumsum(x, y)
        assert_boundaries_match(sampler, vector)
        ours, theirs = np.random.default_rng(1), np.random.default_rng(1)
        assert sampler.draw(ours, 500).tolist() == theirs.choice(size, size=500, p=vector).tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("tied", ["marked", "unmarked", "both"])
    @pytest.mark.parametrize("shift", range(4))
    def test_ties_in_long_binades(self, tied, shift):
        """A value ~2^-12 with five trailing zero bits ties in
        [2^-6, 2^-5), a binade that holds dozens of its steps, so the
        ties fall inside a vectorised pass, not a slot-by-slot one.  Gaps
        of 0 to 3 unmarked indices, in four phases, and an odd step for
        the other value there make the sum's parity before each tie
        vary."""
        size = 1 << 12
        marked = np.cumsum(np.resize(np.roll([1, 2, 3, 4], shift), 1000))
        count = marked.size
        ulp = 2.0**-58  # of [2^-6, 2^-5)

        def odd(value):
            return value + ulp * (round(value / ulp) % 2 == 0)

        x = y = 2.0**-12 + 2.0**-59
        if tied == "marked":
            y = odd((1.0 - count * x) / (size - count))
        elif tied == "unmarked":
            x = odd((1.0 - (size - count) * y) / count)
        engine = PhaseOracleGrover(12, marked)
        vector = engine.expand(x, y)
        assert tie_hit(vector, x) or tied == "unmarked"
        assert tie_hit(vector, y) or tied == "marked"
        assert_boundaries_match(engine.cumsum(x, y), vector)

    def test_real_runs_hit_ties(self):
        """Ties are routine, not corner cases: a run's unmarked value
        usually ties in the binade right above its own."""
        run = PhaseOracleGrover(10, np.arange(100, 1024, 37)).run()
        x, y = run._point_masses()
        assert tie_hit(run.probabilities(), y)
        assert_boundaries_match(run._sampler(), run.probabilities())
        assert_draws_match(run)

    @given(grover_runs(max_n=11))
    @settings(max_examples=25, deadline=None)
    def test_uniforms_on_cdf_values(self, run):
        """``choice`` searches ``side="right"``: a uniform equal to a cdf
        value draws the next index.  Feeding every cdf value and its
        neighbours pins every prefix sum."""
        probs = run.probabilities()
        assert_boundaries_match(run._sampler(), probs)
        uniforms = boundary_uniforms(probs)
        u = float(uniforms[len(uniforms) // 2])
        assert run.measure_once(ScriptedGenerator([u])) == ScriptedGenerator([u]).choice(
            probs.size, p=probs
        )


def choice_error(probs) -> str:
    with pytest.raises(ValueError) as error:
        np.random.default_rng(0).choice(probs.size, p=probs)
    return str(error.value)


def scaled_normaliser(engine, factor):
    """Make ``engine`` normalise by ``factor`` times its true total."""
    total = engine.vector_sum
    engine.vector_sum = lambda a, b: factor * total(a, b)
    return engine


class TestChoiceChecks:
    """The sampler refuses what ``choice`` refuses, with its message,
    and leaves the generator untouched."""

    @pytest.mark.parametrize(
        "spoil",
        [
            pytest.param(lambda run: setattr(run, "marked_amplitude", float("nan")), id="nan"),
            pytest.param(lambda run: setattr(run, "depolarization", 2.0), id="negative"),
            pytest.param(lambda run: scaled_normaliser(run.engine, 0.5), id="sums-to-2"),
            pytest.param(lambda run: scaled_normaliser(run.engine, 1 + 2e-8), id="off-by-2e-8"),
        ],
    )
    def test_invalid_distribution(self, spoil):
        run = PhaseOracleGrover(6, [3, 17, 40]).run(3)
        spoil(run)
        expected = choice_error(run.probabilities())
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as error:
            run.measure_once(rng)
        assert str(error.value) == expected
        with pytest.raises(ValueError) as error:
            run.measure(10, rng)
        assert str(error.value) == expected
        assert rng.bit_generator.state == state

    def test_inside_tolerance(self):
        run = PhaseOracleGrover(6, [3, 17, 40]).run(3)
        scaled_normaliser(run.engine, 1 + 1e-8)  # sqrt(eps) is ~1.5e-8
        assert_draws_match(run)


class TestNoVector:
    def test_measurement_never_expands(self):
        run = PhaseOracleGrover(16, np.arange(5, 1 << 16, 11)).run(2)
        refuse = mock.Mock(side_effect=AssertionError("2^n vector built"))
        with mock.patch.object(PhaseOracleGrover, "expand", refuse), \
                mock.patch.object(GroverRun, "probabilities", refuse):
            first = run.measure_once(np.random.default_rng(0))
            counts = run.measure(50, np.random.default_rng(1))
        assert not refuse.called
        assert 0 <= first < 1 << 16 and sum(counts.values()) == 50
