"""Byte-identity of the compiled kernel tier against the NumPy reference.

The contract that makes ``REPRO_KERNEL`` safe to flip in production:
every backend — NumPy reference, C extension — produces the *same
bytes* for the three hot loops (bit-parallel mask enumeration, CSR
Metropolis sweep, batched tabu descent), for any input, any chunking,
any replica batch shape, and in-process or fanned over a pool.
Hypothesis draws half-integer coefficients, for which every float64
field/energy is exact regardless of summation order, so
"byte-identical" is deterministic here, not probabilistic.

Kernel-level cases call ``resolve(name).<loop>`` directly; pipeline
cases (the public entry points, which take no backend argument) switch
``REPRO_KERNEL``.  A backend that cannot construct in this environment
(no C compiler) is skip-marked, never failed: the tier is an
accelerator, not a dependency.
"""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import BinaryQuadraticModel, SimulatedAnnealingSampler
from repro.graphs import Graph
from repro.perf import kernels
from repro.perf.anneal import (
    SweepPlan,
    build_sweep_plan,
    sa_shard_reads,
    sa_sweep,
    tabu_descend,
)
from repro.perf.bitparallel import kplex_masks
from repro.perf.kernels import (
    KERNEL_NAMES,
    KernelUnavailable,
    NumpyKernels,
    available_backends,
    pack_sweep_plan,
    resolve,
)

AVAILABLE = available_backends()

#: Every known tier, skip-marked when the environment can't build it.
ALL_BACKENDS = [
    pytest.param(
        name,
        marks=()
        if name in AVAILABLE
        else pytest.mark.skip(reason=f"kernel backend {name!r} unavailable"),
    )
    for name in KERNEL_NAMES
]
#: The compiled tiers only (equivalence against the reference).
COMPILED = [p for p in ALL_BACKENDS if p.values[0] != "numpy"]


@contextmanager
def kernel_env(name):
    """Select the process kernel tier for the pipeline entry points.

    A context manager rather than the ``monkeypatch`` fixture: inside
    ``@given`` tests a function-scoped fixture would be shared across
    examples.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_KERNEL", name)
        yield


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def bqms(draw, max_n=14):
    n = draw(st.integers(min_value=2, max_value=max_n))
    bqm = BinaryQuadraticModel()
    for v in range(n):
        bqm.add_linear(v, draw(st.integers(-6, 6)) / 2)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
        bqm.add_quadratic(u, v, draw(st.integers(-6, 6)) / 2)
    return bqm


def _sweep_inputs(bqm, reads, seed):
    csr = bqm.to_csr()
    rng = np.random.default_rng(seed)
    n = csr.h.size
    spins = np.ascontiguousarray(rng.choice([-1.0, 1.0], size=(n, reads)))
    uniforms = np.ascontiguousarray(rng.random((n, reads)))
    return csr, spins, uniforms


# ----------------------------------------------------------------------
# Enumeration kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPILED)
@settings(max_examples=40, deadline=None)
@given(graph=graphs(), k=st.integers(1, 3))
def test_kplex_masks_byte_identical(backend, graph, k):
    with kernel_env("numpy"):
        ref_masks, ref_sizes = kplex_masks(graph, k)
    with kernel_env(backend):
        got_masks, got_sizes = kplex_masks(graph, k)
    assert got_masks.tobytes() == ref_masks.tobytes()
    assert got_sizes.tobytes() == ref_sizes.tobytes()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_kplex_masks_chunk_size_invariant(backend):
    rng = np.random.default_rng(11)
    n = 10
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    graph = Graph(n, edges)
    reference = None
    for chunk in (8, 64, 256, 1 << n):
        with kernel_env(backend):
            masks, sizes = kplex_masks(graph, 2, chunk_masks=chunk)
        outcome = (masks.tobytes(), sizes.tobytes())
        if reference is None:
            reference = outcome
        else:
            assert outcome == reference


# ----------------------------------------------------------------------
# SA sweep kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPILED)
@settings(max_examples=30, deadline=None)
@given(bqm=bqms(), reads=st.integers(1, 7), seed=st.integers(0, 99))
def test_sa_sweep_byte_identical(backend, bqm, reads, seed):
    csr, spins, uniforms = _sweep_inputs(bqm, reads, seed)
    plan = build_sweep_plan(
        csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, 5
    )
    ref = spins.copy()
    with kernel_env("numpy"):
        ref_flips = sa_sweep(plan, ref, 0.7, uniforms)
    got = spins.copy()
    with kernel_env(backend):
        got_flips = sa_sweep(plan, got, 0.7, uniforms)
    assert got_flips == ref_flips
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("backend", COMPILED)
def test_sa_sweep_chunk_size_invariant(backend):
    rng = np.random.default_rng(3)
    bqm = BinaryQuadraticModel()
    for v in range(17):
        bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
    for _ in range(40):
        u, v = rng.choice(17, size=2, replace=False)
        bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
    csr, spins0, uniforms = _sweep_inputs(bqm, 5, 7)
    reference = None
    for chunk in (1, 3, 8, 17, 64):
        plan = build_sweep_plan(
            csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, chunk
        )
        spins = spins0.copy()
        flips = resolve(backend).sa_sweep(plan, spins, 0.9, uniforms)
        outcome = (flips, spins.tobytes())
        if reference is None:
            reference = outcome
        else:
            assert outcome == reference


@pytest.mark.parametrize("backend", COMPILED)
def test_memoized_and_repacked_plans_agree(backend):
    # SweepPlan carries a memoized whole-plan pack (one native call per
    # sweep); a plain-list plan is re-packed on every call.  Same bytes.
    rng = np.random.default_rng(5)
    bqm = BinaryQuadraticModel()
    for v in range(13):
        bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
    for _ in range(30):
        u, v = rng.choice(13, size=2, replace=False)
        bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
    csr, spins0, uniforms = _sweep_inputs(bqm, 4, 9)
    plan = build_sweep_plan(
        csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, 4
    )
    assert isinstance(plan, SweepPlan)
    compiled = resolve(backend)
    packed = spins0.copy()
    packed_flips = compiled.sa_sweep(plan, packed, 1.1, uniforms)
    unpacked = spins0.copy()
    unpacked_flips = compiled.sa_sweep(list(plan), unpacked, 1.1, uniforms)
    assert packed_flips == unpacked_flips
    assert packed.tobytes() == unpacked.tobytes()


def test_pack_is_memoized_on_the_plan():
    rng = np.random.default_rng(6)
    bqm = BinaryQuadraticModel()
    for v in range(9):
        bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
    for _ in range(12):
        u, v = rng.choice(9, size=2, replace=False)
        bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
    csr = bqm.to_csr()
    plan = build_sweep_plan(
        csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, 4
    )
    pack = pack_sweep_plan(plan)
    assert pack_sweep_plan(plan) is pack  # cached on the SweepPlan
    assert pack_sweep_plan(list(plan)) is not pack  # plain list: rebuilt
    # A plan whose chunks do not tile [0, n) cannot be packed.
    assert len(plan) >= 2
    with pytest.raises(ValueError):
        pack_sweep_plan(list(plan)[1:])
    with pytest.raises(ValueError):
        pack_sweep_plan(list(reversed(plan)))


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_empty_plan_makes_no_flips(backend):
    spins = np.empty((0, 3))
    uniforms = np.empty((0, 3))
    assert resolve(backend).sa_sweep(SweepPlan(), spins, 1.0, uniforms) == 0


# ----------------------------------------------------------------------
# Tabu kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPILED)
@settings(max_examples=25, deadline=None)
@given(bqm=bqms(max_n=11), replicas=st.integers(1, 4), seed=st.integers(0, 99))
def test_tabu_descend_byte_identical(backend, bqm, replicas, seed):
    csr = bqm.to_csr()
    n = csr.h.size
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, 2, size=(replicas, n)).astype(np.int8)
    e0 = np.asarray(
        bqm.energies(x0.astype(float), list(range(n))), dtype=np.float64
    )
    # x and energies advance in place: every call needs fresh copies.
    ref_flips: list = []
    with kernel_env("numpy"):
        ref_x, ref_e = tabu_descend(
            csr.h, csr.indptr, csr.indices, csr.data, x0.copy(), e0.copy(),
            25, 5, record_flips=ref_flips,
        )
    got_flips: list = []
    with kernel_env(backend):
        got_x, got_e = tabu_descend(
            csr.h, csr.indptr, csr.indices, csr.data, x0.copy(), e0.copy(),
            25, 5, record_flips=got_flips,
        )
    assert np.array_equal(np.asarray(got_flips), np.asarray(ref_flips))
    assert got_x.tobytes() == ref_x.tobytes()
    assert got_e.tobytes() == ref_e.tobytes()


# ----------------------------------------------------------------------
# Sampleset-level equivalence and selection plumbing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPILED)
def test_sa_sampleset_identical_across_backends(backend):
    rng = np.random.default_rng(8)
    bqm = BinaryQuadraticModel()
    for v in range(12):
        bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
    for _ in range(28):
        u, v = rng.choice(12, size=2, replace=False)
        bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
    sampler = SimulatedAnnealingSampler()

    def flatten(ss):
        return [
            (dict(s.assignment), s.energy, s.num_occurrences) for s in ss
        ]

    with kernel_env("numpy"):
        ref = sampler.sample(bqm, num_reads=9, num_sweeps=6, seed=42)
    with kernel_env(backend):
        got = sampler.sample(bqm, num_reads=9, num_sweeps=6, seed=42)
    assert flatten(got) == flatten(ref)


def test_pool_workers_inherit_the_kernel_tier():
    # Pool workers take the tier from the inherited environment, not
    # from their job arguments: fanned-out runs under a forced reference
    # and under ``auto`` must give the same bytes.
    rng = np.random.default_rng(12)
    n = 11
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    graph = Graph(n, edges)
    bqm = BinaryQuadraticModel()
    for v in range(10):
        bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
    for _ in range(22):
        u, v = rng.choice(10, size=2, replace=False)
        bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
    csr = bqm.to_csr()
    states = rng.integers(0, 2, size=(6, 10)).astype(np.int8)
    betas = np.array([0.3, 0.8, 1.5])
    uniforms = rng.random((betas.size, 10, 6))

    def run():
        masks, sizes = kplex_masks(graph, 2, chunk_masks=256, workers=2)
        out, fields, flips = sa_shard_reads(
            csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums,
            states, betas, uniforms, workers=2,
        )
        return [a.tobytes() for a in (masks, sizes, out, fields, flips)]

    with kernel_env("numpy"):
        reference = run()
    with kernel_env("auto"):
        assert run() == reference


def test_resolve_env_and_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    assert resolve(None).name == "numpy"
    assert isinstance(resolve("numpy"), NumpyKernels)
    # Explicit names win over the environment.
    monkeypatch.setenv("REPRO_KERNEL", "auto")
    for name in AVAILABLE:
        assert resolve(name).name == name
    with pytest.raises(ValueError):
        resolve("vectorized-fortran")


@contextmanager
def broken_cext():
    """A process in which the cext tier fails to build."""

    def refuse():
        raise KernelUnavailable("compiler exploded")

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(kernels._FACTORIES, "cext", refuse)
        mp.setattr(kernels, "_instances", {})
        mp.setattr(kernels, "_warned", set())
        yield mp


def test_unavailable_backend_falls_back_to_numpy():
    # A named request for a tier that cannot build is honoured with the
    # reference, and the fallback is visible: one RuntimeWarning per
    # process, carrying the KernelUnavailable reason.
    with broken_cext() as mp:
        mp.setenv("REPRO_KERNEL", "cext")
        with pytest.warns(RuntimeWarning, match="compiler exploded"):
            assert resolve().name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve().name == "numpy"  # warned once already
            assert resolve("cext").name == "numpy"
        assert available_backends() == ["numpy"]


def test_auto_fallback_is_quiet():
    # ``auto`` is a preference order, not a request: no warning.
    with broken_cext() as mp:
        mp.setenv("REPRO_KERNEL", "auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve().name == "numpy"
            assert resolve("auto").name == "numpy"
