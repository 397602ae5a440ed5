"""PINEM and free-space-propagation unitaries on the energy ladder.

The laser interaction is exp(A) with A anti-Hermitian and banded: coupling
g_h on the -h / +h diagonals (entry (l+h, l) = -g_h, entry (l, l+h) =
conj(g_h)). On the infinite ladder A has constant diagonals, so it is a
Fourier multiplier and its harmonics commute: exp(A) is the product of one
convolution per harmonic. Harmonic h has the Jacobi-Anger kernel

    f_k = exp(i k arg(-g_h)) J_k(2|g_h|)

placed on every h-th level, evaluated and cut by ``ladder.bessel_row``.
``apply_pinem`` is the one function that applies a pulse to a state; under
an adaptive policy the result keeps the whole support of the convolutions,
with guard cells, and is trimmed back to its support (``_checked_result``).
``eigenphases`` and ``commutator_norm`` work on the truncated generator,
where the truncation is the point: the first as a real symmetric
tridiagonal eigenproblem, the second by dense ``expm``.

Free-space propagation is diagonal: level l picks up
exp(+i 2 pi (z / z_D) l^2). The + sign is a package-wide convention chosen
so that a quarter dispersion length multiplies odd levels by +i (pinned by
tests; the gate algebra in the qubit module depends on it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ladder import DEFAULT_POLICY, LadderState, TruncationPolicy, bessel_row, check_edge_leakage

MATEXP_DENSE_MAX_DIM = 1024
"""Selects nothing; kept only because perfbench/layers.py reads it to label its
apply_pinem_matexp timings."""

CHEBYSHEV_TAIL_TOL = 1e-13
"""Amplitude error bound of every Bessel series the operators truncate."""

_CHEBYSHEV_BUDGET = CHEBYSHEV_TAIL_TOL ** 2 / 32.0
"""Used by no operator; kept only because a tail-count test imports it."""
_KERNEL_BUDGET = CHEBYSHEV_TAIL_TOL ** 2 / 8.0

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


@dataclass(frozen=True)
class PinemPulse:
    """One laser interaction: complex coupling per harmonic of the drive.

    ``couplings`` maps harmonic index h >= 1 to the complex coupling on the
    +-h diagonals; the h = 1 entry is the fundamental g. Single-harmonic
    pulses are the default and the only kind the qubit compiler emits.
    """

    couplings: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        items = tuple(sorted(((int(h), complex(g)) for h, g in self.couplings),
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
        return cls(((1, complex(g)),))

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

    @property
    def strength(self) -> float:
        """Sum of h * |g_h|; bounds how far the support can spread."""
        return sum(h * abs(g) for h, g in self.couplings)


@dataclass(frozen=True)
class FspPhase:
    """Propagation distance, either as quarter-units of z_D or a free fraction.

    Only integer quarter-units keep the comb qubit encoding closed; the
    free-form fraction exists for dispersion studies outside the qubit
    algebra.
    """

    quarter_units: int | None = None
    fraction: float | None = None

    def __post_init__(self):
        if (self.quarter_units is None) == (self.fraction is None):
            raise ValueError("set exactly one of quarter_units / fraction")
        if self.quarter_units is not None and self.quarter_units < 0:
            raise ValueError("quarter_units must be >= 0")

    @classmethod
    def quarter(cls, k: int) -> "FspPhase":
        return cls(quarter_units=int(k))

    @classmethod
    def of_fraction(cls, r: float) -> "FspPhase":
        return cls(fraction=float(r))

    @property
    def is_quarter(self) -> bool:
        return self.quarter_units is not None


def pinem_generator(pulse: PinemPulse, dim: int) -> np.ndarray:
    """Anti-Hermitian generator of the laser interaction on a dim-level window."""
    if dim < 3:
        raise ValueError("dim must be >= 3")
    a = np.zeros((dim, dim), dtype=np.complex128)
    for h, g in pulse.couplings:
        if h >= dim:
            continue
        idx = np.arange(dim - h)
        a[idx + h, idx] = -g
        a[idx, idx + h] = np.conj(g)
    return a


def _aligned(amps: np.ndarray, l_min: int, target_l_min: int, target_dim: int) -> np.ndarray:
    """Crop/zero-pad a raw amplitude array onto a target window."""
    out = np.zeros(target_dim, dtype=np.complex128)
    src_lo = max(l_min, target_l_min)
    src_hi = min(l_min + amps.size, target_l_min + target_dim)
    if src_lo < src_hi:
        out[src_lo - target_l_min:src_hi - target_l_min] = amps[src_lo - l_min:src_hi - l_min]
    return out


def _checked_result(result: LadderState, policy: TruncationPolicy) -> LadderState:
    """Edge-check a pulse result on a fixed window; trim it on an adaptive one.

    An adaptive result ends in ``policy.edge_margin`` zero guard cells, so
    it has nothing to edge-check. The trim drops, from each end, the longest
    run of cells whose summed |amplitude| is at most CHEBYSHEV_TAIL_TOL / 2,
    but keeps ``policy.edge_margin`` of them as a guard. That moves the state
    by at most CHEBYSHEV_TAIL_TOL in l1 (hence in l2 norm and in each comb
    sum), and leaves at most (tol / 2)^2 probability in the guard, so a later
    edge check never trips on a trimmed edge.
    """
    if policy.mode == "fixed":
        check_edge_leakage(result, policy.edge_margin, policy.leakage_tol)
        return result
    mass = np.abs(result.amplitudes)
    half_tol = CHEBYSHEV_TAIL_TOL / 2.0
    lo = int(np.searchsorted(np.cumsum(mass), half_tol, side="right"))
    hi = int(np.searchsorted(np.cumsum(mass[::-1]), half_tol, side="right"))
    if lo + hi >= result.dim:  # l1 norm <= tol, e.g. an all-zero state: no support
        return result
    lo = max(lo - policy.edge_margin, 0)
    hi = max(hi - policy.edge_margin, 0)
    return LadderState(result.l_min + lo, result.amplitudes[lo:result.dim - hi])


def pinem_kernel(g: complex) -> np.ndarray:
    """Closed-form convolution kernel f_k for a single-harmonic pulse.

    Index k runs from -K to +K, where K is the first cut whose dropped tail
    meets the squared budget tol^2 / 8 (tol = CHEBYSHEV_TAIL_TOL). By
    Cauchy-Schwarz, convolving a normalized state then errs by at most the l2
    norm of the dropped tail, tol / sqrt(8), in any one amplitude. The phase
    factor scales with k; the tests against the dense exponential of the
    generator pin this convention.
    """
    g = complex(g)
    row = bessel_row(2.0 * abs(g), _KERNEL_BUDGET)
    k = np.arange(row.size) - row.size // 2
    return np.exp(1j * np.angle(-g) * k) * row


def apply_pinem(state: LadderState, pulse: PinemPulse,
                policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Apply a laser interaction as one Bessel-kernel convolution per harmonic.

    Harmonic h convolves with ``pinem_kernel(g_h)`` placed on every h-th
    level. Cutting that kernel at K moves the state by at most
    2 sum_{k>K} |J_k(2|g_h|)| in l2 norm, the l1 norm of the dropped tail, so
    a multi-harmonic pulse moves it by at most the sum of those over its
    harmonics (up to products of tails). Adaptive policies put the result on
    the support of the convolutions plus ``policy.edge_margin`` zero guard
    cells per side, so nothing is cropped, and trim it back to its support:
    their l2 error is the kernel tails plus at most CHEBYSHEV_TAIL_TOL from
    the trim. Fixed policies keep the window and raise TruncationError if the
    result carries weight near its edge. A pulse whose couplings are all zero
    returns the state unchanged.
    """
    harmonics = [(h, g) for h, g in pulse.couplings if g != 0]
    if not harmonics:
        return state
    amps, amps_l_min = state.amplitudes, state.l_min
    for h, g in harmonics:
        kernel = pinem_kernel(g)
        k_half = (kernel.size - 1) // 2
        dilated = np.zeros(2 * h * k_half + 1, dtype=np.complex128)
        dilated[::h] = kernel
        amps = np.convolve(amps, dilated)
        amps_l_min -= h * k_half
    if policy.mode == "adaptive":
        l_min, dim = amps_l_min - policy.edge_margin, amps.size + 2 * policy.edge_margin
    else:
        l_min, dim = state.l_min, state.dim
    return _checked_result(LadderState(l_min, _aligned(amps, amps_l_min, l_min, dim)), policy)


def apply_pinem_bessel(state: LadderState, pulse: PinemPulse,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Former name of ``apply_pinem``, kept for existing callers."""
    return apply_pinem(state, pulse, policy)


def apply_pinem_matexp(state: LadderState, pulse: PinemPulse,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Former name of ``apply_pinem``, kept for existing callers."""
    return apply_pinem(state, pulse, policy)


def apply_fsp(state: LadderState, phase: FspPhase) -> LadderState:
    """Dispersive drift: multiply level l by exp(+i 2 pi (z/z_D) l^2).

    Integer quarter-units are evaluated in exact unit-root arithmetic
    (even levels untouched, odd levels times i^k), so composition and
    full-revival identities hold to the last bit.
    """
    l = state.indices
    if phase.is_quarter:
        k = phase.quarter_units
        exponents = (k * (l % 2)) % 4  # l^2 mod 4 is the parity of l
        factors = np.array(_I_POW, dtype=np.complex128)[exponents]
    else:
        factors = np.exp(2j * np.pi * np.mod(phase.fraction * l.astype(np.float64) ** 2, 1.0))
    return LadderState(state.l_min, state.amplitudes * factors)


def eigenphases(pulse: PinemPulse, dim: int) -> np.ndarray:
    """Eigenvalue arguments of exp(generator), ascending in (-pi, pi].

    For a single-harmonic pulse, i*generator is Hermitian tridiagonal with a
    zero diagonal and off-diagonals -i g (below) and i conj(g) (above). The
    diagonal unitary gauge D = diag(exp(i theta l)) with theta = arg(g) - pi/2
    turns both off-diagonals of D^dagger (i*generator) D into the real |g| and
    keeps the eigenvalues. So they are those of the real symmetric tridiagonal
    matrix with zero diagonal and |g| off it: an O(dim^2)-time,
    O(dim)-memory solve that builds no (dim, dim) array. Exponentiating those
    real eigenvalues keeps the spectrum unit-modulus by construction.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    if not pulse.is_single_harmonic:
        raise ValueError("eigenphases is defined for single-harmonic pulses")
    if dim < 3:
        raise ValueError("dim must be >= 3")
    if dim % 2 == 0:
        raise ValueError("dim must be odd (symmetric window)")
    lam = eigvalsh_tridiagonal(np.zeros(dim), np.full(dim - 1, abs(pulse.g)))
    phases = np.mod(-lam + np.pi, 2.0 * np.pi) - np.pi
    phases[phases == -np.pi] = np.pi
    return np.sort(phases)


def commutator_norm(p1: PinemPulse, p2: PinemPulse, dim: int, interior: int) -> float:
    """Operator norm of [U(p1), U(p2)] on the interior block of the window.

    On the infinite ladder all these unitaries commute (they are Fourier
    multipliers); truncation breaks that only near the edges, so the norm is
    taken after discarding ``interior`` rows/columns at each end.
    """
    from scipy.linalg import expm

    if interior < 0 or 2 * interior >= dim:
        raise ValueError("interior margin must satisfy 0 <= interior < dim/2")
    u1 = expm(pinem_generator(p1, dim))
    u2 = expm(pinem_generator(p2, dim))
    c = u1 @ u2 - u2 @ u1
    block = c[interior:dim - interior, interior:dim - interior]
    return float(np.linalg.norm(block, 2))
