"""Grover search simulation on the vertex register.

Two execution backends share one interface:

* :class:`PhaseOracleGrover` — the workhorse.  Because the oracle's
  ``U_check / sign-flip / U_check^dag`` sandwich returns every ancilla
  to |0>, its net effect on the ``n`` vertex qubits is exactly a phase
  flip on marked basis states.  Starting from the uniform state, the
  sign flip and the inversion about the mean treat every marked
  amplitude alike and every unmarked one alike, so the ``2^n``
  amplitudes only ever take two values.  The engine therefore keeps
  two scalars and runs the recurrence ``a <- 2m + a``, ``b <- 2m - b``
  on them.  The mean ``m`` is the one step that depends on all ``2^n``
  entries; :class:`TwoValuedSum` reproduces NumPy's float64 pairwise
  summation of the two-valued vector exactly, so every amplitude, the
  per-iteration history and the measurement distribution are
  bit-for-bit those of the ``2^n``-vector simulation (the ancilla
  register factors out as |0...0>, which the test suite verifies
  against dense simulation on small instances).  Measurement is exact
  too: :class:`TwoValuedCumsum` reproduces the float64 prefix sums
  that ``Generator.choice`` searches, binade by binade, so a draw
  returns ``rng.choice(2^n, p=...)``'s index and leaves the generator
  in the same state without a ``2^n`` probability vector.

* :func:`grover_circuit` — the literal Fig. 11 circuit (state
  preparation, oracle placeholder, diffusion), dense-simulable for
  small ``n``, used for validation and for gate accounting.

The simulator records the success probability after every iteration
and, on request, amplitude snapshots — the data behind the paper's
Fig. 12 bar charts.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NoReturn

import numpy as np

from ..quantum import QuantumCircuit
from .diffusion import diffusion_circuit
from .iterations import optimal_iterations, success_probability

__all__ = ["GroverRun", "PhaseOracleGrover", "TwoValuedCumsum", "TwoValuedSum", "grover_circuit"]

#: NumPy's pairwise summation (``pairwise_sum`` in its loops source):
#: blocks of at most ``_BLOCK`` elements are summed with ``_LANES``
#: strided accumulators, longer runs split in two at a multiple of
#: ``_LANES``, and runs shorter than ``_LANES`` are summed in order.
_LANES = 8
_BLOCK = 128

#: A :class:`TwoValuedSum` whose scalar program would exceed this many
#: additions walks its blocks with NumPy instead.  On a 2-vCPU x86 VM a
#: scalar addition costs ~0.1 us and a vectorised walk ~50 us at n = 19.
_MAX_PROGRAM_STEPS = 400


class _Program:
    """A straight-line sequence of float64 additions with shared sub-sums.

    Registers 0, 1 and 2 hold ``x``, ``y`` and ``0.0``; step ``(i, j)``
    appends ``reg[i] + reg[j]``.  An addition of two registers already
    added is not repeated, so a sum of many equal parts stays short.
    """

    X, Y, ZERO = 0, 1, 2

    def __init__(self) -> None:
        self.steps: list[tuple[int, int]] = []
        self._register: dict[tuple[int, int], int] = {}
        self.result = self.ZERO

    def add(self, i: int, j: int) -> int:
        if (i, j) not in self._register:
            self.steps.append((i, j))
            self._register[i, j] = len(self.steps) + 2
        return self._register[i, j]

    def __call__(self, x: float, y: float = 0.0) -> float:
        registers = [x, y, 0.0]
        append = registers.append
        for i, j in self.steps:
            append(registers[i] + registers[j])
        return registers[self.result]


def _uniform_sum_program(count: int) -> _Program:
    """``np.add.reduce`` of ``count`` copies of ``x``, as a :class:`_Program`.

    Follows NumPy's pairwise recursion (see :class:`TwoValuedSum`);
    repeated sub-sums are shared, so it has O(log count) steps.
    """
    program = _Program()
    subtotal: dict[int, int] = {}

    def pairwise(n: int) -> int:
        if n not in subtotal:
            if n < _LANES:
                total = program.ZERO
                for _ in range(n):
                    total = program.add(total, program.X)
            elif n <= _BLOCK:
                lane = program.X
                for _ in range(n // _LANES - 1):
                    lane = program.add(lane, program.X)
                pair = program.add(lane, lane)
                quad = program.add(pair, pair)
                total = program.add(quad, quad)
                for _ in range(n % _LANES):
                    total = program.add(total, program.X)
            else:
                half = n // 2 - (n // 2) % _LANES
                total = program.add(pairwise(half), pairwise(n - half))
            subtotal[n] = total
        return subtotal[n]

    program.result = program.add(program.ZERO, pairwise(count))
    return program


class TwoValuedSum:
    """``np.add.reduce`` of a ``2^n`` vector that holds ``x`` at ``marked``
    and ``y`` everywhere else, bit for bit, without building the vector.

    For ``2^n >= 8`` NumPy splits the vector into a perfect binary tree
    of blocks of ``min(2^n, 128)`` elements.  Inside a block, lane ``j``
    sums elements ``j, j+8, j+16, ...`` in order and the eight lanes
    combine as ``((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))``.  A lane's sum
    depends only on which of its elements are marked, so each distinct
    lane pattern is summed once per call; blocks without marked indices
    share one row.  The block values then go up the tree one level per
    halving.  Vectors shorter than 8 are summed in order.  The
    reduction finally adds its identity ``0.0``, as NumPy does.

    The structure depends only on ``n`` and the marked set and is
    precomputed here.  When few blocks hold marked indices it is
    compiled into a scalar :class:`_Program` (untouched subtrees share
    one value per level); otherwise each call walks it with NumPy in
    O(lane patterns + touched blocks + 2^n / 128).
    """

    def __init__(self, num_qubits: int, marked: np.ndarray) -> None:
        size = 1 << num_qubits
        marked = np.asarray(marked, dtype=np.int64)
        if size < _LANES:
            program = _Program()
            total = program.ZERO
            for is_marked in np.isin(np.arange(size), marked):
                total = program.add(total, program.X if is_marked else program.Y)
            program.result = program.add(program.ZERO, total)
            self._program: _Program | None = program
            return
        block = min(size, _BLOCK)
        block_of, offset = np.divmod(marked, block)
        lanes, lane_of = np.unique(
            block_of * _LANES + offset % _LANES, return_inverse=True
        )
        # bit s of a lane's pattern: its s-th summand is marked
        patterns = np.bincount(
            lane_of, weights=np.left_shift(1, offset // _LANES), minlength=lanes.size
        ).astype(np.int64)
        kinds, kind_of = np.unique(np.concatenate(([0], patterns)), return_inverse=True)
        # [summand step, pattern] -> the summand's register: X if marked, else Y
        self._steps = np.where(
            (kinds[np.newaxis, :] >> np.arange(block // _LANES)[:, np.newaxis]) & 1,
            _Program.X, _Program.Y,
        ).astype(np.intp)
        touched, row_of = np.unique(lanes // _LANES, return_inverse=True)
        # one row of lane patterns per touched block, then an unmarked row
        self._block_lanes = np.full((touched.size + 1, _LANES), kind_of[0], dtype=np.intp)
        self._block_lanes[row_of, lanes % _LANES] = kind_of[1:]
        self._touched = touched
        self._block_row = np.full(size // block, touched.size, dtype=np.intp)
        self._block_row[touched] = np.arange(touched.size)
        levels = (size // block).bit_length() - 1
        estimate = self._steps.size + self._block_lanes.size + touched.size * levels
        self._program = self._compile() if estimate <= _MAX_PROGRAM_STEPS else None

    def _compile(self) -> _Program:
        """The vectorised walk of :meth:`__call__` as a scalar program."""
        program = _Program()
        lane_sums = []
        for summands in self._steps.T.tolist():
            total = summands[0]
            for summand in summands[1:]:
                total = program.add(total, summand)
            lane_sums.append(total)
        rows = []
        for row in self._block_lanes.tolist():
            r = [lane_sums[kind] for kind in row]
            rows.append(program.add(
                program.add(program.add(r[0], r[1]), program.add(r[2], r[3])),
                program.add(program.add(r[4], r[5]), program.add(r[6], r[7])),
            ))
        untouched = rows.pop()
        level = dict(zip(self._touched.tolist(), rows))
        for _ in range(self._block_row.size.bit_length() - 1):
            level = {
                i: program.add(level.get(2 * i, untouched), level.get(2 * i + 1, untouched))
                for i in sorted({i >> 1 for i in level})
            }
            untouched = program.add(untouched, untouched)
        program.result = program.add(program.ZERO, level.get(0, untouched))
        return program

    def __call__(self, x: float, y: float) -> float:
        if self._program is not None:
            return self._program(x, y)
        summands = np.array((x, y)).take(self._steps)
        lanes = summands[0]
        for step in summands[1:]:
            lanes += step
        r = lanes.take(self._block_lanes)
        r = r[:, 0::2] + r[:, 1::2]
        r = r[:, 0::2] + r[:, 1::2]
        level = (r[:, 0] + r[:, 1]).take(self._block_row)
        while level.size > 1:
            level = level[0::2] + level[1::2]
        return 0.0 + float(level[0])


#: ``Generator.choice`` rejects a distribution whose total is off 1 by
#: more than ``sqrt(eps)``: 2^-26 for float64.
_CHOICE_TOLERANCE_BITS = 26
_MIN_NORMAL = float(np.finfo(np.float64).tiny)
_SUBNORMAL_ULP = math.ldexp(1.0, -1074)


def _choice_error(p: list[float]) -> NoReturn:
    """Raise the ``ValueError`` ``Generator.choice`` raises for ``p``
    (its wording differs across NumPy releases)."""
    np.random.default_rng(0).choice(len(p), p=p)
    raise AssertionError(f"Generator.choice accepted {p}")  # pragma: no cover


def _steps(units: float, top: int) -> tuple[int, int]:
    """How many ulps adding ``units`` ulps moves a sum of even / odd ulp
    count.

    The two differ only on a tie (``units`` is a whole number plus one
    half): round-half-to-even lands on an even count from either
    parity.  A value of at least the binade's width always leaves it;
    ``top`` ulps says so.
    """
    if units >= top:
        return top, top
    whole = int(units)
    if units - whole == 0.5:
        return whole + (whole & 1), whole + 1 - (whole & 1)
    if units - whole > 0.5:
        whole += 1
    return whole, whole


class _PrefixSums:
    """``np.cumsum`` of a two-valued ``2^n`` vector, kept as the prefix
    sum at each marked index and a table of binades.

    Slot ``t`` is the gap of unmarked indices after ``bounds[t]``, then
    ``bounds[t + 1]``: ``bounds`` holds -1, the marked indices and
    ``2^n``.  ``end[t]`` is the sum up to ``bounds[t]``: 0 for -1, and
    the last index's for ``2^n``.  Row ``b`` of ``binades`` holds
    ``start, before, ulp, step, odd_step, cross``: the binade's first
    index and the sum ahead of it, its ulp, what an unmarked index adds
    to a sum of even and of odd ulp count (:func:`_steps`), and the
    index whose sum is the next row's ``before`` (``2^n`` for the last).
    """

    def __init__(self, bounds: np.ndarray, end: np.ndarray, binades: np.ndarray) -> None:
        self.bounds, self.end, self.binades = bounds, end, binades
        #: the last prefix sum, ``choice``'s ``cdf[-1]``
        self.total = float(end[-1])

    def draw(self, rng: np.random.Generator, size: int | None = None):
        """``rng.choice(2^n, size, p=vector)``, draw for draw.

        ``choice`` takes one ``rng.random`` double ``u`` per draw and
        returns ``cdf.searchsorted(u, side="right")`` with ``cdf =
        fl(c / total)``: the first index whose prefix sum ``c`` exceeds
        the largest ``x`` with ``fl(x / total) <= u`` (division is
        monotone).  That index is the marked index of the first slot
        whose ``end`` exceeds ``x``, the crossing index of the binade
        holding ``x``, or one of the unmarked indices before both, where
        the sums rise by a fixed step: one floor division, exact since
        ``x - lead`` and the step are whole ulp counts below 2^52.
        """
        u = rng.random(size)
        x = u * self.total
        while np.any(over := x / self.total > u):
            x = np.where(over, np.nextafter(x, -np.inf), x)
        while np.any(fits := (up := np.nextafter(x, np.inf)) / self.total <= u):
            x = np.where(fits, up, x)
        b = self.binades[:, 1].searchsorted(x, side="right") - 1
        start, before, ulp, step, odd_step, cross = self.binades[b].T
        t = self.end.searchsorted(x, side="right")  # slot t - 1
        first = np.maximum(self.bounds[t - 1] + 1, start)
        # the sum ahead of ``first``: the binade's or the slot's, the later
        before = np.maximum(before, self.end[t - 1])
        lead = before + step + (before / ulp) % 2 * (odd_step - step)
        with np.errstate(divide="ignore", invalid="ignore"):  # a 0-ulp step
            inner = first + 1 + np.floor((x - lead) / step)
        # below ``lead``, ``inner`` is at most ``first``
        last = np.minimum(self.bounds[t], cross)
        return np.maximum(first, np.fmin(inner, last)).astype(np.int64)


class TwoValuedCumsum:
    """``np.cumsum`` of a ``2^n`` vector that holds ``x`` at ``marked``
    and ``y`` everywhere else, bit for bit, without building the vector.

    NumPy adds in index order.  While the running sum stays inside one
    binade ``[2^e, 2^(e+1))`` every addition of ``x`` (or ``y``) moves
    it by a fixed whole number of ulps, except on a tie, where the step
    depends on the sum's ulp-count parity (see :func:`_steps`) and
    leaves the count even.  So inside a binade the prefix sums are
    integer cumulative sums over the marked indices in it and the gaps
    of unmarked indices between them; parity is tracked through gap
    lengths.  The step that leaves the binade is one plain float
    addition.  A binade with few marked indices is walked one at a time,
    a larger one in vectorised passes.

    The split is deliberate: this per-engine object precomputes only
    ``[-1, marked..., 2^n]``, which every run of the engine shares,
    while each call walks one run's ``(x, y)`` into a
    :class:`_PrefixSums` (one float per marked index and one row per
    binade) that the run keeps for its draws.  It also makes
    ``Generator.choice``'s checks on ``p`` (see :meth:`check`).
    """

    def __init__(self, num_qubits: int, marked: np.ndarray) -> None:
        self.size = 1 << num_qubits
        self.num_marked = int(marked.size)
        # slot t: the gap of unmarked indices after _bounds[t], then
        # _bounds[t + 1]; the final slot is the tail gap, up to ``size``
        self._bounds = np.concatenate(([-1], marked, [self.size]))

    def check(self, x: float, y: float) -> None:
        """Raise ``choice``'s ``ValueError`` for a NaN total, a negative
        entry, or a total off 1 by more than ``sqrt(eps)``.

        ``choice`` totals ``p`` by Kahan summation; this totals it
        exactly.  For the distributions a run yields, normalised by
        their own pairwise sum, the exact total is within ~(n + 4) ulps
        of 1 and Kahan's error is within 2 ulps of it, so both land
        eight orders of magnitude inside ``sqrt(eps)``: the verdict can
        only differ for a total engineered to ~1e-16 of ``1 +- sqrt(eps)``.
        Entries here are finite or NaN (a run's are bounded by
        ``|1 - d| + |d|``); for an infinite one ``choice`` may name NaN
        where this names the total.
        """
        counts = ((x, self.num_marked), (y, self.size - self.num_marked))
        present = [value for value, count in counts if count]
        if any(math.isnan(value) for value in present):
            _choice_error([math.nan])
        if any(value < 0 for value in present):
            _choice_error([-1.0, 2.0])
        if not all(map(math.isfinite, present)):
            _choice_error([2.0])
        # the exact total over a common power-of-two denominator
        ratios = [(value.as_integer_ratio(), count) for value, count in counts if count]
        scale = max(den for (_, den), _ in ratios)
        total = sum(count * num * (scale // den) for (num, den), count in ratios)
        if abs(total - scale) << _CHOICE_TOLERANCE_BITS > scale:
            _choice_error([2.0])

    def __call__(self, x: float, y: float) -> _PrefixSums:
        self.check(x, y)
        bounds, size = self._bounds, self.size
        final = bounds.size - 2  # the slot of the tail gap
        end = np.empty(final + 2)
        end[0] = 0.0
        binades = []
        s, i, t = 0.0, 0, 0  # the prefix sum before index i; slot t holds i
        while True:
            # the binade holding s: its ulp and its top in ulps (zero and
            # the subnormals form one binade of 2^52 ulps)
            if s < _MIN_NORMAL:
                ulp, top = _SUBNORMAL_ULP, 1 << 52
            else:
                ulp, top = math.ldexp(1.0, math.frexp(s)[1] - 53), 1 << 53
            # value / ulp is exact: a power-of-two scaling
            x0, x1 = _steps(x / ulp, top)
            y0, y1 = _steps(y / ulp, top)
            if binades:
                binades[-1][-1] = i - 1  # the index that left the last one
            binades.append([i, s, ulp, y0 * ulp, y1 * ulp, size])
            if i == size:
                break  # the last index left a binade: this row ends the table
            units = int(s / ulp)  # the sum in ulps
            budget = _SCALAR_SLOTS
            while True:
                g = int(bounds[t + 1]) - i
                if g:
                    lead = y1 if units & 1 else y0
                    if units + lead + (g - 1) * y0 >= top:
                        # a step of the gap leaves the binade
                        inside = 0 if units + lead >= top else 1 + (top - 1 - units - lead) // y0
                        if inside:
                            units += lead + (inside - 1) * y0
                        index, on_marked = i + inside, False
                        break
                    units += lead + (g - 1) * y0
                if t == final:
                    s, i = units * ulp, size + 1
                    break
                step = x1 if units & 1 else x0
                if units + step >= top:
                    index, on_marked = i + g, True
                    break
                units += step
                end[t + 1] = units * ulp
                i, t = i + g + 1, t + 1
                budget -= 1
                if t == final:
                    continue
                # the slots the binade still holds, at the mean slot's ulps
                per_slot = max(x0 + y0 * (size - i - final + t) / (final - t), 1)
                if budget and top - units < _SCALAR_SLOTS * per_slot:
                    continue
                # then whole slots, a pass at a time
                count = 8 + int(1.25 * (top - units) / per_slot)
                while True:
                    stop = min(final, t + count)
                    # each slot's increment, then the sums, worked out in
                    # place in ``end``: whole ulp counts below 2^53 are
                    # exact in float64, and above ``top`` the sums are
                    # only compared with it
                    after = end[t + 1:stop + 1]
                    np.subtract(bounds[t + 1:stop + 1], bounds[t:stop], out=after)
                    after -= 1  # the gaps
                    if x0 == x1 and y0 == y1:
                        after *= y0 * ulp
                        after += x0 * ulp
                    else:
                        gap = after.astype(np.int64)
                        leads, marked = _tied_steps(gap, units & 1, x0, x1, y0, y1)
                        after[:] = (leads + np.maximum(gap - 1, 0) * float(y0) + marked) * ulp
                    after[0] += units * ulp
                    np.cumsum(after, out=after)
                    h = int(after.searchsorted(top * ulp))  # the first slot that leaves
                    if h:
                        units, i, t = int(after[h - 1] / ulp), int(bounds[t + h]) + 1, t + h
                    if h < after.size or t == final:
                        break
                    count *= 2
                budget = _SCALAR_SLOTS
            if i > size:
                break  # the final slot ended inside the binade
            s = units * ulp + (x if on_marked else y)
            if on_marked:
                end[t + 1] = s
                t += 1
            i = index + 1
        end[-1] = s  # the final slot ends on the last index
        return _PrefixSums(bounds, end, np.array(binades, dtype=float))


#: A binade expected to hold fewer slots than this takes them one at a
#: time (at most this many in a row); a vectorised pass costs about as
#: much as this many scalar slots.  On a 2-vCPU x86 VM, sending every
#: slot but a binade's crossing one through vectorised passes made the
#: 33 first draws of a gate-qmkp pass ~15% slower (one at n = 19,
#: M = 17893: ~1.18 ms against ~1.05 ms); 4, 12 and 24 measured alike.
#: gate-qmkp's end-to-end solves/s told none of them apart.
_SCALAR_SLOTS = 12


def _tied_steps(gap, parity, x0, x1, y0, y1) -> tuple[np.ndarray, np.ndarray]:
    """Per slot, the ulps of its gap's first step and of its marked step
    in a binade where ``x`` or ``y`` ties; ``parity`` is the sum's at
    the first slot.  A tied step leaves the sum even; so does every
    later step of a gap of ``y`` that ties."""
    starts = np.zeros(gap.size, dtype=np.int64)
    starts[0] = parity
    if x0 == x1:
        # the gaps reset parity and each marked step adds x0, so a
        # slot starts at x0 * (slots since the last gap)
        slot = np.arange(gap.size)
        last = np.maximum.accumulate(np.where(gap > 0, slot, -1))
        starts[1:] = np.where(last >= 0, x0 * (slot - last + 1), parity + x0 * (slot + 1))[:-1] & 1
    leads = np.where(gap > 0, y0 + starts * (y1 - y0), 0)
    before = np.where(gap > 0, starts + leads + (np.maximum(gap - 1, 0) & 1) * (y0 & 1), starts) & 1
    return leads, x0 + before * (x1 - x0)


@dataclass
class GroverRun:
    """Everything produced by one Grover execution.

    Attributes
    ----------
    num_qubits, marked:
        The search-space size and marked set.
    iterations:
        Number of oracle+diffusion rounds applied.
    marked_amplitude, unmarked_amplitude:
        The final real amplitude of every marked / unmarked basis
        state (the register only ever holds these two values).
    engine:
        The :class:`PhaseOracleGrover` that ran; it expands amplitude
        pairs to ``2^n`` vectors.
    history:
        ``history[i]`` is the success probability after ``i``
        iterations (entry 0 is the uniform superposition).
    snapshots:
        ``{iteration: (marked_amplitude, unmarked_amplitude)}`` after
        requested iterations, for Fig. 12-style plots
        (:attr:`amplitude_snapshots` expands them to vectors).
    depolarization:
        Accumulated depolarizing weight (0 = noiseless).  With weight
        ``d`` the measurement distribution is ``(1-d) * |amp|^2 + d/N``
        — the register's state after a depolarizing channel — so the
        success probability is dampened toward ``M/N`` exactly as NISQ
        noise dampens it.
    """

    num_qubits: int
    marked: frozenset[int]
    iterations: int
    marked_amplitude: float
    unmarked_amplitude: float
    engine: PhaseOracleGrover = field(repr=False, compare=False)
    history: list[float] = field(default_factory=list)
    snapshots: dict[int, tuple[float, float]] = field(default_factory=dict)
    depolarization: float = 0.0

    #: The measurement distribution's prefix sums (:class:`_PrefixSums`:
    #: one per marked index, a row per binade, and ``choice``'s
    #: ``cdf[-1]``), built on first measurement; qTKP's retry loop
    #: measures the same run repeatedly, so they are walked once, not
    #: per draw.
    _cumsum: _PrefixSums | None = field(default=None, repr=False, compare=False)
    #: The ``2^n`` distribution vector, built only when
    #: :meth:`probabilities` is called (plots and tests; measurement
    #: never builds it).
    _probabilities: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def amplitudes(self) -> np.ndarray:
        """Final real amplitude vector over the ``2^n`` basis states."""
        return self.engine.expand(self.marked_amplitude, self.unmarked_amplitude)

    @property
    def amplitude_snapshots(self) -> dict[int, np.ndarray]:
        """The requested snapshots as amplitude vectors."""
        return {i: self.engine.expand(*pair) for i, pair in self.snapshots.items()}

    @property
    def success_probability(self) -> float:
        """Probability that measurement yields a marked state."""
        if not self.marked:
            return 0.0
        clean = self.history[-1]
        if not self.depolarization:
            return clean
        uniform = len(self.marked) / (1 << self.num_qubits)
        return (1.0 - self.depolarization) * clean + self.depolarization * uniform

    @property
    def error_probability(self) -> float:
        return 1.0 - self.success_probability

    def _point_masses(self) -> tuple[float, float]:
        """The probability of each marked and of each unmarked state."""
        a = self.marked_amplitude * self.marked_amplitude
        b = self.unmarked_amplitude * self.unmarked_amplitude
        total = self.engine.vector_sum(a, b)
        a, b = a / total, b / total
        if self.depolarization:
            keep = 1.0 - self.depolarization
            spread = self.depolarization / (1 << self.num_qubits)
            a, b = keep * a + spread, keep * b + spread
        return a, b

    def probabilities(self) -> np.ndarray:
        """The normalized measurement distribution (memoized)."""
        if self._probabilities is None:
            self._probabilities = self.engine.expand(*self._point_masses())
        return self._probabilities

    def _sampler(self) -> _PrefixSums:
        if self._cumsum is None:
            self._cumsum = self.engine.cumsum(*self._point_masses())
        return self._cumsum

    def measure(self, shots: int, rng: np.random.Generator | None = None) -> dict[int, int]:
        """Sample ``shots`` measurements; returns basis index -> count.

        Draw for draw ``rng.choice(2^n, size=shots, p=probabilities())``,
        without building the vector.
        """
        rng = rng or np.random.default_rng()
        draws = self._sampler().draw(rng, shots)
        values, counts = np.unique(draws, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def measure_once(self, rng: np.random.Generator | None = None) -> int:
        """A single measurement outcome, ``rng.choice(2^n, p=probabilities())``."""
        rng = rng or np.random.default_rng()
        return int(self._sampler().draw(rng))


class PhaseOracleGrover:
    """Exact Grover simulation given a marked-state oracle.

    Parameters
    ----------
    num_qubits:
        Search register width ``n`` (``2^n`` basis states).
    oracle:
        One of three oracle forms:

        * a predicate ``mask -> bool``, evaluated over all ``2^n``
          masks up front (the slow, always-available form);
        * an iterable of marked basis indices;
        * a NumPy integer array of marked indices — the fast path for
          precomputed marked sets (:mod:`repro.perf`), which skips the
          per-element Python conversion of the iterable form.

        All three forms with the same marked set produce bit-identical
        runs.
    """

    #: Refuse absurd widths.  No run or measurement builds a ``2^n``
    #: vector, but :class:`TwoValuedSum`'s ``_block_row`` table and its
    #: NumPy walk are O(2^n / 128) per engine, so without the cap a wide
    #: register raises ``MemoryError`` there.
    MAX_QUBITS = 26

    def __init__(
        self,
        num_qubits: int,
        oracle: Iterable[int] | Callable[[int], bool] | np.ndarray,
    ) -> None:
        if not (1 <= num_qubits <= self.MAX_QUBITS):
            raise ValueError(
                f"num_qubits must be in [1, {self.MAX_QUBITS}], got {num_qubits}"
            )
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if isinstance(oracle, np.ndarray):
            if oracle.size and not np.issubdtype(oracle.dtype, np.integer):
                raise ValueError(
                    f"marked array must have an integer dtype, got {oracle.dtype}"
                )
            arr = np.unique(oracle.astype(np.int64))
            if arr.size and (int(arr[0]) < 0 or int(arr[-1]) >= dim):
                raise ValueError("marked index out of range")
            marked = arr.tolist()
        else:
            if callable(oracle):
                marked = [i for i in range(dim) if oracle(i)]
            else:
                marked = sorted(set(int(i) for i in oracle))
                if marked and (marked[0] < 0 or marked[-1] >= dim):
                    raise ValueError("marked index out of range")
            arr = np.array(marked, dtype=np.int64)
        self.marked = frozenset(marked)
        #: the marked indices, sorted
        self._marked_array = arr

    @property
    def num_marked(self) -> int:
        return len(self.marked)

    def optimal_iterations(self) -> int:
        """Canonical iteration count for this instance (0 if M = 0)."""
        if not self.marked:
            return 0
        return optimal_iterations(1 << self.num_qubits, len(self.marked))

    @cached_property
    def vector_sum(self) -> TwoValuedSum:
        """``np.add.reduce`` of a register holding one value on the
        marked states and another on the rest (built on first use)."""
        return TwoValuedSum(self.num_qubits, self._marked_array)

    @cached_property
    def cumsum(self) -> TwoValuedCumsum:
        """``np.cumsum`` of such a register without the vector (built on
        first use); measurement draws through it."""
        return TwoValuedCumsum(self.num_qubits, self._marked_array)

    @cached_property
    def _marked_sum(self) -> _Program:
        return _uniform_sum_program(self.num_marked)

    def expand(self, marked_value: float, unmarked_value: float) -> np.ndarray:
        """The ``2^n`` vector holding ``marked_value`` on the marked states."""
        vector = np.full(1 << self.num_qubits, unmarked_value)
        vector[self._marked_array] = marked_value
        return vector

    def run(
        self,
        iterations: int | None = None,
        snapshot_at: Iterable[int] = (),
        depolarize: float = 0.0,
    ) -> GroverRun:
        """Execute Grover for ``iterations`` rounds (optimal if None).

        ``depolarize`` is a per-iteration depolarizing rate: each round
        leaves the register untouched with probability ``1 - p`` and
        scrambles it to the maximally mixed state with probability
        ``p``.  The accumulated weight ``1 - (1-p)^iterations`` lands
        on :attr:`GroverRun.depolarization` and dampens the measurement
        distribution; the amplitude trace itself (the noiseless branch)
        is unchanged, so ``depolarize=0.0`` is byte-identical to the
        noiseless path.

        Each round costs O(1) scalar work plus one :attr:`vector_sum`
        call; measuring the run builds no ``2^n`` vector either, only
        reading its amplitudes or :meth:`GroverRun.probabilities` does.
        """
        if iterations is None:
            iterations = self.optimal_iterations()
        if iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        if not 0.0 <= depolarize < 1.0:
            raise ValueError(f"depolarize must be in [0, 1), got {depolarize}")
        dim = 1 << self.num_qubits
        a = b = float(1.0 / np.sqrt(dim))
        snapshots = {int(i) for i in snapshot_at}
        run = GroverRun(self.num_qubits, self.marked, iterations, a, b, self)
        if depolarize:
            run.depolarization = 1.0 - (1.0 - depolarize) ** iterations
        if 0 in snapshots:
            run.snapshots[0] = (a, b)
        run.history.append(self._success(a))
        for i in range(1, iterations + 1):
            flipped = -a                                     # oracle sign flip
            twice_mean = 2.0 * (self.vector_sum(flipped, b) / dim)
            a, b = twice_mean - flipped, twice_mean - b      # inversion about mean
            run.history.append(self._success(a))
            if i in snapshots:
                run.snapshots[i] = (a, b)
        run.marked_amplitude, run.unmarked_amplitude = a, b
        return run

    def theoretical_success(self, iterations: int) -> float:
        """Closed-form ``sin^2((2i+1) theta)`` for cross-checking."""
        return success_probability(1 << self.num_qubits, len(self.marked), iterations)

    def _success(self, amplitude: float) -> float:
        """Summed probability of the marked states, ``np.sum`` of M
        copies of ``amplitude * amplitude`` (``**2`` would round
        differently on some inputs)."""
        if not self.marked:
            return 0.0
        return self._marked_sum(amplitude * amplitude)


def grover_circuit(num_qubits: int, oracle_circuit: QuantumCircuit, iterations: int) -> QuantumCircuit:
    """The literal Fig. 11 layout: H^n then ``iterations`` (oracle, diffusion).

    ``oracle_circuit`` must act as a phase oracle on the first
    ``num_qubits`` qubits (any ancillas must be returned to |0>); it is
    inlined verbatim each round.  Intended for small-n validation and
    gate counting, not production search.
    """
    qc = QuantumCircuit(oracle_circuit.num_qubits)
    qc.mirror_registers(oracle_circuit)
    for q in range(num_qubits):
        qc.h(q)
    diff = diffusion_circuit(num_qubits)
    for _ in range(iterations):
        qc.extend(oracle_circuit)
        qc.extend(diff)
    return qc
