"""Sparse incremental annealing kernels (CSR BQMs, delta-maintained sweeps).

The annealing stack's QUBOs are sparse by construction — couplings only
along complement-graph edges and vertex->slack penalty blocks, with
``O(n log n)`` total variables — yet the seed samplers ran every sweep
on dense ``O(n^2)`` matrices.  This module is the numeric core of the
replacement engine:

* :class:`CSRQuadratic` — the sparse view ``BinaryQuadraticModel.to_csr()``
  caches: the symmetric coupling matrix in CSR form (``indptr`` /
  ``indices`` / ``data``), the linear vector ``h``, the variable
  ``order``, and the upper-triangular COO pairs used for vectorised
  energy evaluation.

* :func:`local_fields` — ``fields[r, j] = h[j] + sum_i s[r, i] J_ij``
  for a whole replica batch, built once per run in ``O(reads * nnz)``.

* :func:`sa_sweep` — one Gauss-Seidel Metropolis sweep over the batch
  with **incrementally maintained fields**, walked in chunks from a
  :func:`build_sweep_plan` schedule: each chunk's local fields are
  built in bulk by one compiled sparse product against the current
  spins, and each accepted flip scatters only to the flipped column's
  intra-chunk CSR neighbours, so a sweep costs ``O(reads * nnz)``
  instead of ``n`` dense matvecs.  Acceptance decisions are computed
  exactly as the seed sampler did (same clip, same exponential, same
  uniform-draw consumption), so fixed-seed runs are flip-for-flip
  identical.

* :func:`tabu_descend` — ``num_restarts`` tabu trajectories advanced as
  one matrix, with per-replica delta tables, tabu clocks, and the
  aspiration criterion.  With one replica it reproduces the seed
  ``tabu_search`` trajectory flip-for-flip (first-minimum tie-break,
  same 1e-12 aspiration slack).

The kernels are pure NumPy over plain arrays — no imports from
``repro.annealing`` — so the annealing layer depends on ``repro.perf``
and not the other way around.  Tracing is the caller's job; the kernels
return exact sweep/flip counts for the run ledger to reconcile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as _sparse

__all__ = [
    "CSRQuadratic",
    "SweepPlan",
    "build_sweep_plan",
    "concat_ranges",
    "fields_energies",
    "fields_energies_t",
    "local_fields",
    "refresh_fields_t",
    "sa_sweep",
    "sa_shard_reads",
    "tabu_descend",
]


@dataclass(frozen=True)
class CSRQuadratic:
    """Sparse view of a binary quadratic model's coefficients.

    ``indptr`` / ``indices`` / ``data`` hold the *symmetrised* coupling
    matrix (every pair stored in both directions) so row ``i`` is the
    full neighbourhood of variable ``i`` — the slice samplers touch on
    a flip.  ``pair_rows`` / ``pair_cols`` / ``pair_vals`` keep the
    upper triangle once, for energy evaluation.
    """

    num_variables: int
    h: np.ndarray           # (n,) float64 linear biases
    indptr: np.ndarray      # (n + 1,) int64
    indices: np.ndarray     # (2 * num_pairs,) int64
    data: np.ndarray        # (2 * num_pairs,) float64
    pair_rows: np.ndarray   # (num_pairs,) int64, row < col
    pair_cols: np.ndarray   # (num_pairs,) int64
    pair_vals: np.ndarray   # (num_pairs,) float64
    order: tuple = field(default=())

    @classmethod
    def from_pairs(
        cls,
        num_variables: int,
        h: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        order: tuple = (),
    ) -> "CSRQuadratic":
        """Build from unique upper-triangular pairs (``rows < cols``)."""
        n = int(num_variables)
        h = np.asarray(h, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        sym_rows = np.concatenate([rows, cols])
        sym_cols = np.concatenate([cols, rows])
        sym_vals = np.concatenate([vals, vals])
        # Deterministic layout: rows ascending, columns ascending within
        # a row (lexsort's last key is primary).
        perm = np.lexsort((sym_cols, sym_rows))
        sym_rows = sym_rows[perm]
        indices = sym_cols[perm]
        data = sym_vals[perm]
        counts = np.bincount(sym_rows, minlength=n) if sym_rows.size else np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            num_variables=n,
            h=h,
            indptr=indptr,
            indices=indices,
            data=data,
            pair_rows=rows,
            pair_cols=cols,
            pair_vals=vals,
            order=tuple(order),
        )

    @property
    def num_pairs(self) -> int:
        return int(self.pair_vals.size)

    def neighbours(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(columns, couplings)`` of variable ``i``'s CSR row."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def abs_row_sums(self) -> np.ndarray:
        """Per-variable ``sum_j |J_ij|`` (the flip-energy radius)."""
        prefix = np.concatenate([[0.0], np.cumsum(np.abs(self.data))])
        return np.maximum(prefix[self.indptr[1:]] - prefix[self.indptr[:-1]], 0.0)

    @cached_property
    def row_sums(self) -> np.ndarray:
        """Per-variable signed ``sum_j J_ij`` (for field refreshes).

        Cached (the dataclass is frozen, so the inputs cannot change);
        samplers hit this once per ``sample`` call on a cached CSR.
        """
        n = self.num_variables
        if not self.data.size:
            return np.zeros(n)
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        return np.bincount(rows, weights=self.data, minlength=n)

    @cached_property
    def spmatrix(self):
        """SciPy CSR matrix of the symmetric couplings, or ``None``
        when there are none.

        Built (and validated) once per model so per-sweep field
        refreshes go straight to the compiled matmul.
        """
        if not self.data.size:
            return None
        n = self.num_variables
        return _sparse.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(n, n)
        )

    @cached_property
    def sweep_plan(self) -> list:
        """Cached :func:`build_sweep_plan` at the default chunk size."""
        return build_sweep_plan(
            self.h, self.indptr, self.indices, self.data, self.row_sums
        )

    def energies(self, states: np.ndarray, offset: float = 0.0) -> np.ndarray:
        """Vectorised energies of a ``(num_samples, n)`` 0/1 matrix.

        Row-independent reductions (``sum(axis=1)``, not BLAS matmul,
        whose summation order varies with the batch shape) so each row's
        energy is bitwise identical whether evaluated alone or in a
        batch — the guarantee ``BinaryQuadraticModel.energy`` relies on.
        """
        states = np.asarray(states, dtype=np.float64)
        out = (states * self.h).sum(axis=1) + offset
        if self.pair_vals.size:
            # ascontiguousarray: the fancy-indexed product can come out
            # F-ordered, and reducing a strided axis sums in a different
            # order than a contiguous row would.
            out += np.ascontiguousarray(
                states[:, self.pair_rows] * states[:, self.pair_cols] * self.pair_vals
            ).sum(axis=1)
        return out

    def dense(self) -> np.ndarray:
        """Strictly upper-triangular dense ``J`` (for tests / fallbacks)."""
        j = np.zeros((self.num_variables, self.num_variables))
        j[self.pair_rows, self.pair_cols] = self.pair_vals
        return j


def local_fields(
    h: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    states: np.ndarray,
) -> np.ndarray:
    """``fields[r, j] = h[j] + sum_i states[r, i] * J_sym[i, j]``.

    The one-off ``O(reads * nnz)`` setup for the incremental kernels;
    after this, every accepted flip keeps the invariant by adjusting
    only the flipped variable's neighbour columns.
    """
    states = np.asarray(states, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if not data.size:
        return np.tile(h, (states.shape[0], 1))
    n = indptr.size - 1
    j_sym = _sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    # J_sym is symmetric, so the row-wise product is one compiled
    # sparse @ dense multiply over the transposed batch.
    return h + (j_sym @ states.T).T


def refresh_fields_t(
    h: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    row_sums: np.ndarray,
    spins_t: np.ndarray,
    spmat=None,
) -> np.ndarray:
    """Local fields for a transposed ±1 replica batch, in bulk.

    With ``t = 1 - 2s`` the 0/1 field is
    ``h + J @ s = h + (row_sums - J @ t) / 2``, one sparse product over
    the whole batch.  Each replica column is reduced independently, so
    the result is byte-identical however the batch is sharded — and on
    the integer/half-integer models the equivalence tests pin, it is
    bitwise equal to incrementally maintained fields.

    ``spmat`` (optional) is a prebuilt SciPy CSR of the couplings
    (:attr:`CSRQuadratic.spmatrix`); passing it skips re-validating the
    matrix on every refresh.
    """
    if not data.size:
        return np.repeat(h[:, None], spins_t.shape[1], axis=1)
    if spmat is None:
        n = indptr.size - 1
        spmat = _sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    jt = spmat @ spins_t
    np.subtract(row_sums[:, None], jt, out=jt)
    jt *= 0.5
    jt += h[:, None]
    return jt


#: Variables per chunk in :func:`sa_sweep`.  Within a chunk, accepted
#: flips propagate through per-flip scatter updates; across chunks they
#: are picked up by the next chunk's compiled sparse field build.
DEFAULT_SWEEP_CHUNK = 16


class SweepPlan(list):
    """A sweep schedule (list of chunk tuples) that can carry a cached
    kernel-tier packing.

    Compiled backends flatten the per-chunk arrays into one packed
    layout so a whole sweep is a single native call; the packing is
    memoized here (``kernel_pack``) because the plan is immutable once
    built and reused for every sweep of a run.  Plain lists work
    everywhere a ``SweepPlan`` does — backends simply re-pack per call.
    """

    __slots__ = ("kernel_pack",)

    def __init__(self, *args):
        super().__init__(*args)
        self.kernel_pack = None


def build_sweep_plan(
    h: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    row_sums: np.ndarray,
    chunk: int = DEFAULT_SWEEP_CHUNK,
) -> list:
    """Chunk schedule for :func:`sa_sweep`.

    Splits the variable range into blocks of ``chunk``.  Each entry
    carries the block's CSR row slice (raw arrays, plus a prebuilt SciPy
    matrix when the block has couplings) for the bulk field build, plus
    the **intra-chunk forward** sub-structure — for each variable, its
    couplings to later variables of the same chunk, with chunk-local
    column ids — which is the only part a flip still has to scatter to
    by hand.  Column ids are sorted within a CSR row, so both cuts are
    ``searchsorted`` slices.
    """
    n = indptr.size - 1
    chunk = max(1, min(int(chunk), n)) if n else 1
    plan = SweepPlan()
    for start in range(0, n, chunk):
        end = min(start + chunk, n)
        lo, hi = int(indptr[start]), int(indptr[end])
        sub_indptr = indptr[start : end + 1] - indptr[start]
        sub_indices = indices[lo:hi]
        sub_data = data[lo:hi]
        jc = (
            _sparse.csr_matrix(
                (sub_data, sub_indices, sub_indptr), shape=(end - start, n)
            )
            if sub_data.size
            else None
        )
        iptr = [0]
        icols = []
        ivals = []
        for i in range(start, end):
            rlo, rhi = int(indptr[i]), int(indptr[i + 1])
            cols_row = indices[rlo:rhi]
            a = int(np.searchsorted(cols_row, i + 1))
            b = int(np.searchsorted(cols_row, end))
            icols.append(cols_row[a:b] - start)
            ivals.append(data[rlo:rhi][a:b])
            iptr.append(iptr[-1] + (b - a))
        plan.append(
            (
                start,
                end,
                jc,
                sub_indptr,
                sub_indices,
                sub_data,
                np.ascontiguousarray(h[start:end]),
                np.ascontiguousarray(row_sums[start:end]),
                iptr,
                np.concatenate(icols) if icols else np.empty(0, dtype=np.int64),
                np.concatenate(ivals) if ivals else np.empty(0),
            )
        )
    return plan


def sa_sweep(
    plan: list,
    spins_t: np.ndarray,
    beta: float,
    uniforms: np.ndarray,
) -> int:
    """One Metropolis sweep over all variables, batched across replicas.

    Dispatches to the process's kernel backend
    (:func:`repro.perf.kernels.resolve`, selected by ``REPRO_KERNEL``,
    default ``auto``) and falls back to the NumPy reference
    (:func:`_sa_sweep_numpy`, documented below) whenever the inputs are
    not in the compiled kernels' canonical layout.  All backends make
    identical flip decisions, so the updated ``spins_t`` is the same
    bit-for-bit whichever tier ran the sweep (the Metropolis ``exp``
    ulp caveat is documented in :mod:`repro.perf.cext`).
    """
    from .kernels import resolve

    backend = resolve()
    if (
        backend.name != "numpy"
        and spins_t.dtype == np.float64
        and spins_t.flags.c_contiguous
        and uniforms.dtype == np.float64
        and uniforms.flags.c_contiguous
        and spins_t.shape == uniforms.shape
    ):
        return backend.sa_sweep(plan, spins_t, float(beta), uniforms)
    return _sa_sweep_numpy(plan, spins_t, beta, uniforms)


def _sa_sweep_numpy(
    plan: list,
    spins_t: np.ndarray,
    beta: float,
    uniforms: np.ndarray,
) -> int:
    """One Metropolis sweep over all variables, batched across replicas.

    ``spins_t`` is the **transposed** ``(n, reads)`` replica matrix in
    the ±1 view ``t = 1 - 2s`` (so the flip energy is a single product
    ``t * field`` and a flip is a sign change), updated in place.  The
    transposed layout makes every per-variable access a contiguous row.

    The sweep walks the chunks of ``plan`` in variable order.  At each
    chunk boundary the block's local fields are built in bulk from the
    *current* spins — ``h + (row_sums - J_block @ t) / 2``, one compiled
    sparse product — so flips from earlier chunks are already priced in.
    Within a chunk, an accepted flip scatters to its **intra-chunk
    forward** neighbours only (already-visited fields are never read
    again, later chunks get rebuilt anyway): when few replicas
    accepted, the update narrows to just those columns (a sub-block add
    of the exact same addends); otherwise it is one row-gathered outer
    product in which non-accepted replicas contribute an exact ``0.0``.
    Neither choice can change any later acceptance decision, so
    decisions stay flip-for-flip identical to the seed sampler.

    The acceptance decision is the seed's: it computed
    ``(delta <= 0) | (u < exp(-beta * clip(delta, 0, 700)))``, but the
    first disjunct is redundant — ``delta <= 0`` clips to ``0``,
    ``exp(0) == 1.0`` exactly, and uniform draws live in ``[0, 1)`` —
    so the kernel evaluates only the second, with raw ufuncs into
    scratch buffers allocated once per sweep: the inner loop performs
    no allocations at all.

    ``uniforms`` is the ``(n, reads)`` slab of uniform draws for this
    sweep — row ``i`` is exactly the vector the seed sampler drew for
    variable ``i``, which is what makes fixed-seed runs byte-identical.
    Returns the number of accepted flips.
    """
    num_reads = spins_t.shape[1]
    delta = np.empty(num_reads)
    boltz = np.empty(num_reads)
    ds = np.empty(num_reads)
    flipped = np.empty(num_reads)
    accept = np.empty(num_reads, dtype=bool)
    max_deg = max(
        (iptr[-1] and max(b - a for a, b in zip(iptr, iptr[1:])))
        for *_, iptr, _ic, _iv in plan
    ) if plan else 0
    scratch = np.empty((max_deg, num_reads))
    narrow = num_reads // 8
    neg_beta = -float(beta)
    flips = 0
    for start, end, jc, sub_indptr, sub_indices, sub_data, h_c, rs_c, iptr, icols, ivals in plan:
        if jc is not None:
            jt = jc @ spins_t
        else:
            jt = np.zeros((end - start, num_reads))
        np.subtract(rs_c[:, None], jt, out=jt)
        jt *= 0.5
        jt += h_c[:, None]
        fields_c = jt
        for li in range(end - start):
            t = spins_t[start + li]
            np.multiply(t, fields_c[li], out=delta)
            np.maximum(delta, 0.0, out=boltz)
            np.minimum(boltz, 700.0, out=boltz)
            boltz *= neg_beta
            np.exp(boltz, out=boltz)
            np.less(uniforms[start + li], boltz, out=accept)
            accepted = np.count_nonzero(accept)
            if accepted:
                flips += accepted
                lo, hi = iptr[li], iptr[li + 1]
                if accepted <= narrow:
                    sel = np.nonzero(accept)[0]
                    t_sel = t[sel]
                    if hi > lo:
                        fields_c[np.ix_(icols[lo:hi], sel)] += (
                            ivals[lo:hi, None] * t_sel
                        )
                    t[sel] = -t_sel                  # accepted spins change sign
                else:
                    np.multiply(t, accept, out=ds)   # ±1 where accepted, else 0.0
                    if hi > lo:
                        upd = scratch[: hi - lo]
                        np.multiply(ivals[lo:hi, None], ds, out=upd)
                        fields_c[icols[lo:hi]] += upd
                    np.multiply(ds, -2.0, out=flipped)
                    t += flipped
    return int(flips)


def fields_energies(
    states: np.ndarray,
    fields: np.ndarray,
    h: np.ndarray,
    offset: float,
) -> np.ndarray:
    """Replica energies straight from the maintained local fields.

    With ``fields[r, j] = h[j] + sum_i s[r, i] J_ij`` the pair term of
    the energy is ``sum_j s_j (fields_j - h_j) / 2`` (every coupling is
    counted from both endpoints), so

        ``E_r = offset + sum_j s[r, j] * (h[j] + (fields[r, j] - h[j]) / 2)``

    costs ``O(reads * n)`` — no per-pair gather at all.  All reductions
    are contiguous per-row ``sum(axis=1)``, so each replica's energy is
    independent of the batch it is evaluated in (sharded and unsharded
    runs agree byte-for-byte).
    """
    g = fields - h
    g *= 0.5
    g += h
    g *= states
    return g.sum(axis=1) + offset


def fields_energies_t(
    spins_t: np.ndarray,
    fields_t: np.ndarray,
    h: np.ndarray,
    offset: float,
) -> np.ndarray:
    """Replica energies from the transposed ±1 batch, in place.

    Same quantity as :func:`fields_energies`, evaluated without ever
    transposing back: with ``s = (1 - t) / 2`` and
    ``g = h + (fields - h) / 2``,

        ``E_r = offset + (sum_j g[j, r] - sum_j t[j, r] g[j, r]) / 2``.

    Both reductions run down axis 0 of the ``(n, reads)`` matrices,
    column by column, so each replica's energy is independent of the
    batch — and on the exact (integer / half-integer coefficient)
    models the equivalence tests pin, bitwise equal to the row-layout
    evaluation.  ``fields_t`` is consumed as scratch.
    """
    g = fields_t
    g -= h[:, None]
    g *= 0.5
    g += h[:, None]
    total = g.sum(axis=0)
    total -= np.einsum("ij,ij->j", spins_t, g)
    total *= 0.5
    total += offset
    return total


def _sa_shard_worker(
    args: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray]:
    # The kernel tier comes from the inherited environment
    # (``REPRO_KERNEL``), exactly as in the parent process.
    h, indptr, indices, data, row_sums, states, betas, uniforms = args
    n = indptr.size - 1
    spmat = (
        _sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        if data.size
        else None
    )
    plan = build_sweep_plan(h, indptr, indices, data, row_sums)
    spins_t = np.ascontiguousarray(states.T, dtype=np.float64)
    spins_t *= -2.0
    spins_t += 1.0                                   # ±1 view: t = 1 - 2s
    flips = np.zeros(len(betas), dtype=np.int64)
    for t, beta in enumerate(betas):
        flips[t] = sa_sweep(plan, spins_t, float(beta), uniforms[t])
    fields_t = refresh_fields_t(h, indptr, indices, data, row_sums, spins_t, spmat)
    out = spins_t.T.astype(np.float64, order="C")
    out -= 1.0
    out *= -0.5                                      # back to 0/1, exactly
    return (
        out.astype(np.int8, order="C"),
        np.ascontiguousarray(fields_t.T),
        flips,
    )


def sa_shard_reads(
    h: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    row_sums: np.ndarray,
    states: np.ndarray,
    betas: np.ndarray,
    uniforms: np.ndarray,
    workers: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fan the replica batch over a process pool, shard by reads.

    ``uniforms`` is the full ``(num_sweeps, n, reads)`` draw tensor —
    pre-drawn by the caller so every replica consumes exactly the
    uniforms it would in a single-process run, keeping sharded results
    byte-identical to unsharded ones.  Returns ``(states, fields,
    flips)``: the final int8 states, the final per-replica local fields
    (so the caller can price energies without re-deriving them), and
    the per-sweep accepted-flip totals across all shards.
    """
    import multiprocessing

    num_reads = states.shape[0]
    shards = np.array_split(np.arange(num_reads), min(workers, num_reads))
    jobs = [
        (
            h, indptr, indices, data, row_sums,
            states[sel].copy(),
            betas,
            np.ascontiguousarray(uniforms[:, :, sel]),
        )
        for sel in shards
        if sel.size
    ]
    with multiprocessing.Pool(len(jobs)) as pool:
        parts = pool.map(_sa_shard_worker, jobs)
    out = np.concatenate([p[0] for p in parts], axis=0)
    fields = np.concatenate([p[1] for p in parts], axis=0)
    flips = np.sum([p[2] for p in parts], axis=0).astype(np.int64)
    return out, fields, flips


def concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(start, start + len)`` per group.

    The ragged-gather helper behind the batched tabu kernel: each
    replica flips a different variable, so the neighbour slices to
    update have different offsets and lengths.
    """
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    group_ends = np.cumsum(lens)
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(group_ends - lens, lens)
        + np.repeat(starts, lens)
    )


def tabu_descend(
    h: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    energies: np.ndarray,
    iterations: int,
    tenure: int,
    record_flips: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched single-flip tabu search over ``(num_restarts, n)`` states.

    Dispatches to the process's kernel backend exactly like
    :func:`sa_sweep`; the
    tabu loop has no transcendentals, so every backend reproduces the
    reference flip-for-flip and byte-for-byte.  Falls back to the NumPy
    reference (:func:`_tabu_descend_numpy`, documented below) when the
    inputs are not in the compiled kernels' canonical layout.
    """
    from .kernels import resolve

    backend = resolve()
    energies_arr = np.asarray(energies, dtype=np.float64)
    if (
        backend.name != "numpy"
        and x.dtype == np.int8
        and x.flags.c_contiguous
        and x.ndim == 2
        and x.shape[0] >= 1
        and x.shape[1] >= 1
        and energies_arr.flags.c_contiguous
    ):
        return backend.tabu_descend(
            h, indptr, indices, data, x, energies_arr, iterations, tenure,
            record_flips=record_flips,
        )
    return _tabu_descend_numpy(
        h, indptr, indices, data, x, energies, iterations, tenure,
        record_flips=record_flips,
    )


def _tabu_descend_numpy(
    h: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    energies: np.ndarray,
    iterations: int,
    tenure: int,
    record_flips: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched single-flip tabu search over ``(num_restarts, n)`` states.

    Per-replica state: a delta table (energy change per single flip), a
    tabu clock, and the incumbent.  Each step every replica flips its
    best allowed variable — tabu moves are admissible only under the
    aspiration criterion (they would beat the incumbent by more than
    1e-12), and a replica whose moves are all tabu without aspiration
    has its whole row freed, exactly like the seed's single-trajectory
    loop.  ``x`` (int8) and ``energies`` are advanced in place;
    ``record_flips`` (a list, when given) receives the chosen variable
    index per replica for every step — the flip-for-flip evidence the
    equivalence tests compare.

    Returns ``(best_x, best_energies)`` per replica.
    """
    num_restarts, n = x.shape
    fields = local_fields(h, indptr, indices, data, x)
    delta = (1.0 - 2.0 * x) * fields
    energy = np.asarray(energies, dtype=np.float64)
    best_energy = energy.copy()
    best_x = x.copy()
    tabu_until = np.zeros((num_restarts, n), dtype=np.int64)
    replicas = np.arange(num_restarts)
    for step in range(1, iterations + 1):
        allowed = (tabu_until < step) | (
            energy[:, None] + delta < best_energy[:, None] - 1e-12
        )
        stuck = ~allowed.any(axis=1)
        if stuck.any():
            allowed[stuck] = True
        scores = np.where(allowed, delta, np.inf)
        chosen = np.argmin(scores, axis=1)
        if record_flips is not None:
            record_flips.append(chosen.copy())
        sign = 1.0 - 2.0 * x[replicas, chosen]
        x[replicas, chosen] ^= 1
        moved = delta[replicas, chosen]
        energy += moved
        delta[replicas, chosen] = -moved
        starts = indptr[chosen]
        lens = indptr[chosen + 1] - starts
        flat = concat_ranges(starts, lens)
        if flat.size:
            rows = np.repeat(replicas, lens)
            cols = indices[flat]
            # Flat 1-D scatter (indices are unique): much cheaper than a
            # paired two-axis fancy add.
            delta.ravel()[rows * n + cols] += (
                (1.0 - 2.0 * x[rows, cols]) * data[flat] * np.repeat(sign, lens)
            )
        tabu_until[replicas, chosen] = step + tenure
        improved = energy < best_energy - 1e-12
        if improved.any():
            best_energy[improved] = energy[improved]
            best_x[improved] = x[improved]
    return best_x, best_energy
