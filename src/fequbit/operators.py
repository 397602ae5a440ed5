"""PINEM and free-space-propagation unitaries on the energy ladder.

The laser interaction is exp(A) with A anti-Hermitian and banded: coupling
g_h on the -h / +h diagonals (entry (l+h, l) = -g_h, entry (l, l+h) =
conj(g_h)). On the infinite ladder A has constant diagonals, so it is a
Fourier multiplier and its harmonics commute: exp(A) is the product of one
convolution per harmonic. Harmonic h has the Jacobi-Anger kernel

    f_k = exp(i k arg(-g_h)) J_k(2|g_h|)

placed on every h-th level, its orders cut by ``ladder.bessel_row``, and
``apply_pinem`` composes a pulse's harmonics into one kernel. For a
purely imaginary g_h, the only kind the compiler emits, arg(-g_h) = +-pi/2
and the factor is exactly (+-i)^k, so ``pinem_kernel`` writes that kernel
with no floating-point phase; any other coupling takes exp(i k arg(-g_h))
in floating point. ``pinem_kernels`` gives the same bits for many couplings
at once, the Bessel rows of the purely imaginary ones built together;
``compiler.compile_circuit`` builds its pulses' kernels that way and hands
each pulse its own. ``apply_pinem`` is the one function that applies a
pulse to a state, with the pulse's kernel where it carries one and
``pinem_kernel`` otherwise, as one convolution with the composed kernel;
under an adaptive policy it places the support of that convolution, with
guard cells, on the result's window in one step.
``eigenphases`` works on the truncated generator, where the truncation is
the point; its spectrum has a closed form (a tridiagonal Toeplitz matrix),
so no eigensolver runs.

Free-space propagation is diagonal: level l picks up
exp(+i 2 pi (z / z_D) l^2). The + sign is a package-wide convention chosen
so that a quarter dispersion length multiplies odd levels by +i (pinned by
tests; the gate algebra in the qubit module depends on it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ladder import (DEFAULT_EDGE_MARGIN, DEFAULT_POLICY, LEAKAGE_TOL, LadderState,
                     TruncationPolicy, _aligned, _as_index, _bessel_half, _bessel_half_block,
                     _start_order, bessel_row, check_edge_leakage)

MATEXP_DENSE_MAX_DIM = 1024
"""Selects nothing; kept only because perfbench/layers.py reads it to label its
apply_pinem_matexp timings. ROADMAP item 6 deletes it with that reader."""

CHEBYSHEV_TAIL_TOL = 1e-13
"""Amplitude error bound of every Bessel series the operators truncate."""

_KERNEL_BUDGET = CHEBYSHEV_TAIL_TOL ** 2 / 8.0

KERNEL_BLOCK_CELLS = 1 << 14
"""Most cells of Bessel recurrence that ``pinem_kernels`` holds at once: a
block of couplings whose highest start order is n has at most this // (n + 1)
of them, so its scratch memory does not grow with the number of couplings."""

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


@dataclass(frozen=True)
class PinemPulse:
    """One laser interaction: complex coupling per harmonic of the drive.

    ``couplings`` maps harmonic index h >= 1 to the complex coupling on the
    +-h diagonals; the h = 1 entry is the fundamental g. Single-harmonic
    pulses are the default and the only kind the qubit compiler emits. A
    harmonic index that is no integer, such as 1.5, raises ValueError.
    """

    couplings: tuple[tuple[int, complex], ...]
    _kernel = None  # not a field: compile_circuit sets a read-only kernel of the h = 1 entry

    def __post_init__(self):
        items = tuple(sorted(((_as_index(h, "harmonic index"), complex(g))
                              for h, g in self.couplings),
                             key=lambda item: item[0]))
        if not items:
            raise ValueError("pulse needs at least one harmonic entry")
        if items[0][0] < 1:
            raise ValueError("harmonic indices must be >= 1")
        if len({h for h, _ in items}) != len(items):
            raise ValueError("duplicate harmonic index")
        object.__setattr__(self, "couplings", items)

    @classmethod
    def single(cls, g: complex) -> "PinemPulse":
        pulse = object.__new__(cls)  # one h = 1 entry: nothing to sort or check
        object.__setattr__(pulse, "couplings", ((1, complex(g)),))
        return pulse

    @classmethod
    def multi(cls, couplings: dict) -> "PinemPulse":
        return cls(tuple(couplings.items()))

    @property
    def g(self) -> complex:
        for h, g in self.couplings:
            if h == 1:
                return g
        return 0.0 + 0.0j

    @property
    def is_single_harmonic(self) -> bool:
        return all(h == 1 or g == 0 for h, g in self.couplings)


@dataclass(frozen=True)
class FspPhase:
    """Propagation distance, either as quarter-units of z_D or a free fraction.

    Only integer quarter-units keep the comb qubit encoding closed; the
    free-form fraction exists for dispersion studies outside the qubit
    algebra. A fraction that is not finite, or ``quarter_units`` that are no
    integer, such as 1.5, raise ValueError.
    """

    quarter_units: int | None = None
    fraction: float | None = None

    def __post_init__(self):
        if (self.quarter_units is None) == (self.fraction is None):
            raise ValueError("set exactly one of quarter_units / fraction")
        if self.quarter_units is not None:
            units = _as_index(self.quarter_units, "quarter_units")
            if units < 0:
                raise ValueError("quarter_units must be >= 0")
            object.__setattr__(self, "quarter_units", units)
        if self.fraction is not None and not np.isfinite(self.fraction):
            raise ValueError(f"fraction {self.fraction!r} is not finite")

    @classmethod
    def quarter(cls, k: int) -> "FspPhase":
        return cls(quarter_units=k)

    @property
    def is_quarter(self) -> bool:
        return self.quarter_units is not None


def pinem_kernel(g: complex) -> np.ndarray:
    """Closed-form convolution kernel f_k for a single-harmonic pulse.

    Index k runs from -K to +K, where K is the first cut whose dropped tail
    meets the squared budget tol^2 / 8 (tol = CHEBYSHEV_TAIL_TOL). By
    Cauchy-Schwarz, convolving a normalized state then errs by at most the l2
    norm of the dropped tail, tol / sqrt(8), in any one amplitude. The phase
    factor scales with k; the tests against the dense exponential of the
    generator pin this convention.

    A purely imaginary g, the only kind the compiler emits, has arg(-g) =
    +-pi/2, so the factor is exactly s^k with s = -i sign(Im g), and
    f_{-k} = s^{-k} (-1)^k J_k = f_k. That kernel is built from the orders
    0..K of ``ladder._bessel_half``: +-J_k as the real part at even k and as
    the imaginary part at odd k, every other part exactly 0.0. Any other g
    takes the factor exp(i k arg(-g)) in floating point.
    """
    g = complex(g)
    if g.real == 0.0:
        j = _bessel_half(2.0 * abs(g), _KERNEL_BUDGET)
        cut = len(j) - 1
        # s^k is (-1)^(k/2) at even k and s (-1)^((k-1)/2) at odd k
        even, odd = j[::2], j[1::2]
        even[1::2] = [-v for v in even[1::2]]
        first = int(g.imag < 0.0)  # s = i leaves J_1 positive, s = -i negates it
        odd[first::2] = [-v for v in odd[first::2]]
        parts = [0.0] * (4 * cut + 2)  # (re, im) of f_-K .. f_K
        parts[2 * cut::4] = parts[2 * cut::-4] = even
        if cut:  # at cut 0 the slice below would wrap round to the last part
            parts[2 * cut + 3::4] = parts[2 * cut - 1::-4] = odd
        return np.array(parts, dtype=np.float64).view(np.complex128)
    row = bessel_row(2.0 * abs(g), _KERNEL_BUDGET)
    k = np.arange(row.size) - row.size // 2
    return np.exp(1j * np.angle(-g) * k) * row


def pinem_kernels(gs) -> list[np.ndarray]:
    """``[pinem_kernel(g) for g in gs]``, bit for bit, as read-only arrays;
    equal couplings share one array.

    The distinct purely imaginary couplings are built together: their start
    orders come from ``ladder._start_order``, one call each, and their Bessel
    rows from ``ladder._bessel_half_block``, in blocks of at most
    ``KERNEL_BLOCK_CELLS`` recurrence cells, highest start orders first. Each
    block lays out its kernels as ``pinem_kernel`` does, -+J_k on the real
    part at even k and on the imaginary part at odd k, on one array whose
    rows the kernels are slices of. The other couplings, those whose row is
    the one value 1 - x^2/4, and those ``_bessel_half_block`` does not mark
    ok go through ``pinem_kernel``; a coupling whose 2|g| is not finite
    raises ValueError there.
    """
    distinct = list(dict.fromkeys(map(complex, gs)))
    couplings = np.array(distinct, dtype=np.complex128)
    with np.errstate(over="ignore"):  # pinem_kernel rejects an infinite 2|g|
        x = 2.0 * np.abs(couplings.imag)  # 2|g| where the real part is 0
        batch = (couplings.real == 0.0) & np.isfinite(x) & (0.5 * x * x > _KERNEL_BUDGET)
    kernels, scalar = {}, [g for g, b in zip(distinct, batch.tolist()) if not b]
    rows = np.flatnonzero(batch)
    n = np.array([_start_order(v, _KERNEL_BUDGET) for v in x[rows].tolist()], dtype=np.intp)
    order = np.argsort(-n, kind="stable")
    rows, n = rows[order], n[order]
    start = 0
    while start < rows.size:
        stop = start + max(1, KERNEL_BLOCK_CELLS // (int(n[start]) + 1))
        block = rows[start:stop]
        j, cut, ok = _bessel_half_block(x[block], n[start:stop], _KERNEL_BUDGET)
        top = int(cut[ok].max(initial=0))
        j = j[:top + 1]
        j[2::4] *= -1.0  # s^k = (-1)^(k/2) at even k
        s = np.where(couplings.imag[block] < 0.0, 1.0, -1.0)  # s^1 = -i sign(Im g) = i s
        j[1::4] *= s
        j[3::4] *= -s
        f = np.zeros((block.size, 2 * top + 1), dtype=np.complex128)
        parts = f.view(np.float64).reshape(block.size, 2 * top + 1, 2)
        half = j.T  # row i: f_k = f_-k of coupling block[i], k = 0 .. top
        parts[:, top::2, 0] = parts[:, top::-2, 0] = half[:, ::2]
        if top:  # at top 0 the slices below would wrap round to the last part
            parts[:, top + 1::2, 1] = parts[:, top - 1::-2, 1] = half[:, 1::2]
        f.flags.writeable = False
        for i, (index, k, good) in enumerate(zip(block.tolist(), cut.tolist(), ok.tolist())):
            if good:
                kernels[distinct[index]] = f[i, top - k:top + k + 1]
            else:
                scalar.append(distinct[index])
        start = stop
    for g in scalar:
        kernels[g] = kernel = pinem_kernel(g)
        kernel.flags.writeable = False
    return [kernels[g] for g in map(complex, gs)]


def apply_pinem(state: LadderState, pulse: PinemPulse,
                policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Apply a laser interaction as one convolution with one Bessel kernel.

    Harmonic h contributes ``pinem_kernel(g_h)`` placed on every h-th level;
    a pulse from ``compiler.compile_circuit`` carries that kernel already,
    and no kernel is ever stored on a pulse here. The nonzero harmonics'
    kernels are composed with ``np.convolve`` in harmonic order, and the
    state is convolved once with the result. Cutting harmonic h's kernel at
    K moves the state by at most 2 sum_{k>K} |J_k(2|g_h|)| in l2 norm, the
    l1 norm of the dropped tail, so a multi-harmonic pulse moves it by at
    most the sum of those over its harmonics (up to products of tails). At
    the kernel's budget that l1 tail stays within CHEBYSHEV_TAIL_TOL up to
    2|g_h| = 1000 (at most 0.80 tol, measured against scipy's jv), but
    passes it above 2|g_h| ~ 2000: 1.015 tol at 2000 and 1.172 tol at 5000.
    ``pinem_kernel``'s per-amplitude bound, tol / sqrt(8), is the cut's own
    rule and holds at any coupling.

    With two or more nonzero harmonics, the composed kernel drops from each
    end the longest run of taps whose summed |tap| is at most
    CHEBYSHEV_TAIL_TOL / 2, found by ``_tail_run`` as the state's trim below
    finds its runs. Those tails are products of the harmonics' cut tails,
    with outermost taps near 1e-40 at |g| = 4, 2, 1 on h = 1, 2, 3. By
    Young's inequality, a kernel that moves by at most tol in l1 moves a
    normalized state by at most CHEBYSHEV_TAIL_TOL in l2, on top of the
    bound above. Measured, the trim drops 0.49-0.79 tol on the perfbench
    ``pulses`` workload's 3-harmonic pulses, whose 237 taps fall to 115-127,
    and 0.34-0.996 tol on random-phase pulses at |g| = |g_1| (1, 1/2, 1/4)
    with |g_1| = 1, 10 and 50, whose 141, 361 and 959 taps fall to 67-73,
    178-210 and 565-651. A single-harmonic kernel is not trimmed: its cut
    already meets the budget, and a trim would change the bits of every
    compiled pulse.

    Adaptive policies put the result on its support plus ``DEFAULT_EDGE_MARGIN``
    guard cells per side. The support drops, from each end of the
    convolution, the longest run of cells whose summed |amplitude| is at most
    CHEBYSHEV_TAIL_TOL / 2; ``_tail_run`` scans only the ends for it and
    finds the run a sum over the whole convolution would. A guard holds the
    dropped cells it overlaps and zeros past the convolution. The trim moves
    the state by at most CHEBYSHEV_TAIL_TOL in l1 (hence in l2 norm and in
    each comb sum) and leaves at most (tol / 2)^2 probability in each guard,
    so a later edge check never trips on a trimmed edge. A state whose l1
    norm is at most tol has no support and keeps the whole convolution plus
    the guards. Fixed policies keep the window and raise TruncationError if
    the result carries weight near its edge. A pulse whose couplings are all
    zero returns the state unchanged.
    """
    harmonics = [(h, g) for h, g in pulse.couplings if g != 0]
    if not harmonics:
        return state
    kernel, centre = None, 0
    for h, g in harmonics:
        factor = pinem_kernel(g) if pulse._kernel is None else pulse._kernel
        k_half = (factor.size - 1) // 2
        if h > 1:  # the kernel steps over every h-th level
            dilated = np.zeros(2 * h * k_half + 1, dtype=np.complex128)
            dilated[::h] = factor
            factor = dilated
        kernel = factor if kernel is None else np.convolve(kernel, factor)
        centre += h * k_half
    half_tol = CHEBYSHEV_TAIL_TOL / 2.0
    if len(harmonics) > 1:  # the composed tails are products of cut tails
        lo = _tail_run(kernel, half_tol, from_end=False)
        kernel = kernel[lo:kernel.size - _tail_run(kernel, half_tol, from_end=True)]
        centre -= lo
    amps = np.convolve(state.amplitudes, kernel)
    amps_l_min = state.l_min - centre
    if policy.mode == "fixed":
        result = LadderState._adopt(state.l_min,
                                    _aligned(amps, amps_l_min, state.l_min, state.dim))
        check_edge_leakage(result, DEFAULT_EDGE_MARGIN, LEAKAGE_TOL)
        return result
    lo = _tail_run(amps, half_tol, from_end=False)
    hi = _tail_run(amps, half_tol, from_end=True)
    if lo + hi >= amps.size:  # l1 norm <= tol, e.g. an all-zero state: no support
        lo = hi = 0
    l_min = amps_l_min + lo - DEFAULT_EDGE_MARGIN
    dim = amps.size - lo - hi + 2 * DEFAULT_EDGE_MARGIN
    return LadderState._adopt(l_min, _aligned(amps, amps_l_min, l_min, dim))


def _tail_run(amps: np.ndarray, limit: float, from_end: bool) -> int:
    """Length of the longest run at one end of ``amps`` whose summed |amplitude|
    is at most ``limit``.

    Scans 64 cells from that end, doubling until the running sum passes
    ``limit`` or the scan covers the array. A running sum adds in order, so
    the run equals the one a running sum over the whole array gives.
    """
    n = 64
    while True:
        mass = np.abs(amps[-n:])[::-1] if from_end else np.abs(amps[:n])
        running = np.add.accumulate(mass)
        if running[-1] > limit or n >= amps.size:
            return int(running.searchsorted(limit, side="right"))
        n *= 2


def apply_pinem_bessel(state: LadderState, pulse: PinemPulse,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Former name of ``apply_pinem``. Only perfbench reads it; ROADMAP item 6
    deletes it and renames perfbench's calls."""
    return apply_pinem(state, pulse, policy)


def apply_pinem_matexp(state: LadderState, pulse: PinemPulse,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Former name of ``apply_pinem``. Only perfbench reads it; ROADMAP item 6
    deletes it and renames perfbench's calls."""
    return apply_pinem(state, pulse, policy)


def apply_fsp(state: LadderState, phase: FspPhase) -> LadderState:
    """Dispersive drift: multiply level l by exp(+i 2 pi (z/z_D) l^2).

    Integer quarter-units are evaluated in exact unit-root arithmetic
    (even levels untouched, odd levels times i^k), so composition and
    full-revival identities hold to the last bit.
    """
    if phase.is_quarter:
        # l^2 mod 4 is the parity of l; the first odd level is at index (l_min + 1) % 2
        amps = state.amplitudes.copy()
        amps[(state.l_min + 1) % 2::2] *= _I_POW[phase.quarter_units % 4]
        return LadderState._adopt(state.l_min, amps)
    l = state.indices
    factors = np.exp(2j * np.pi * np.mod(phase.fraction * l.astype(np.float64) ** 2, 1.0))
    return LadderState._adopt(state.l_min, state.amplitudes * factors)


def eigenphases(pulse: PinemPulse, dim: int) -> np.ndarray:
    """Eigenvalue arguments of exp(generator), ascending in (-pi, pi].

    For a single-harmonic pulse, i*generator is Hermitian tridiagonal with a
    zero diagonal and off-diagonals -i g (below) and i conj(g) (above). The
    diagonal unitary gauge D = diag(exp(i theta l)) with theta = arg(g) - pi/2
    turns both off-diagonals of D^dagger (i*generator) D into the real |g| and
    keeps the eigenvalues. On the truncated window that is a tridiagonal
    Toeplitz matrix, zero on the diagonal and |g| beside it, whose
    eigenvalues are exactly

        lambda_j = 2 |g| cos(pi j / (dim + 1)),   j = 1 .. dim

    (Noschese, Pasquini & Reichel, Numer. Linear Algebra Appl. 20, 302,
    2013). It is exact on the window, not an asymptote: the eigenvectors are
    the sine vectors v_k = sin(pi j k / (dim + 1)), k = 1 .. dim, which vanish
    at k = 0 and k = dim + 1, the first cells past each end, so the
    eigenvalue equation holds in the edge rows with nothing cut off. The
    eigenphases are -lambda_j wrapped into (-pi, pi]; they are
    unit-modulus by construction and cost O(dim) time and memory. A coupling
    whose 2|g| is not finite raises ValueError.
    """
    if not pulse.is_single_harmonic:
        raise ValueError("eigenphases is defined for single-harmonic pulses")
    if dim < 3:
        raise ValueError("dim must be >= 3")
    if dim % 2 == 0:
        raise ValueError("dim must be odd (symmetric window)")
    two_g = 2.0 * abs(pulse.g)
    if not np.isfinite(two_g):
        raise ValueError(f"2|g| = {two_g!r} is not finite")
    lam = two_g * np.cos(np.pi * np.arange(1, dim + 1) / (dim + 1))
    phases = np.mod(-lam + np.pi, 2.0 * np.pi) - np.pi
    phases[phases == -np.pi] = np.pi
    return np.sort(phases)
