"""PINEM and free-space-propagation unitaries on the energy ladder.

The laser interaction is exp(A) with A anti-Hermitian and banded: coupling
g_h on the -h / +h diagonals (entry (l+h, l) = -g_h, entry (l, l+h) =
conj(g_h)). Because A has constant diagonals it is a convolution operator,
so exp(A) is too; for a single harmonic the kernel is known in closed form,

    f_k = exp(i k arg(-g)) J_k(2|g|),

which the Bessel path convolves with. Every other pulse goes through one
propagator, a Chebyshev expansion of exp(A) with coefficients J_k(R); both
paths cut their Bessel series with ``ladder.bessel_tail_half_width``.
Free-space propagation is diagonal: level l picks up
exp(+i 2 pi (z / z_D) l^2). The + sign is a package-wide convention chosen
so that a quarter dispersion length multiplies odd levels by +i (pinned by
tests; the gate algebra in the qubit module depends on it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, expm
from scipy.special import jv

from .ladder import (DEFAULT_POLICY, LadderState, TruncationPolicy, bessel_tail_half_width,
                     check_edge_leakage)

MATEXP_DENSE_MAX_DIM = 1024
"""Selects no path (the Chebyshev apply runs at every size); perfbench/layers.py
still reads it to label its apply_pinem_matexp timings."""

CHEBYSHEV_TAIL_TOL = 1e-13
"""Amplitude error bound of every Bessel series the operators truncate."""

_TAIL_BUDGET = CHEBYSHEV_TAIL_TOL ** 2 / 8.0

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

    @property
    def spectral_radius(self) -> float:
        """Gershgorin bound 2 sum |g_h| on the Hermitian generator i*A."""
        return 2.0 * sum(abs(g) for _, g in self.couplings)


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


def _chebyshev_exp_apply(pulse: PinemPulse, psi: np.ndarray) -> np.ndarray:
    """exp(A) psi via a Chebyshev expansion of exp(-i x) over the spectrum.

    The generator is A = -iH with H Hermitian and ||H|| <= R (Gershgorin), so
    exp(A) = J_0(R) I + 2 sum_k (-i)^k J_k(R) T_k(H/R); stopping at k = K
    errs by at most 2 sum_{j>K} |J_j(R)|. K meets the squared tail budget
    tol^2 / 8 (tol = CHEBYSHEV_TAIL_TOL), so |J_{K+1}| <= tol / 4; past the
    turnover |J_{j+1} / J_j| <= 1/2, hence 2 sum_{j>K} |J_j| <= tol. (At R in
    the thousands the ratio at K nears 2/3; at R = 5000 the error is 1.2 tol.)
    """
    r = pulse.spectral_radius
    if r == 0.0:
        return psi.copy()
    n_terms = max(bessel_tail_half_width(r, _TAIL_BUDGET) + 1, 2)
    bess = jv(np.arange(n_terms), r)

    # scaled Hermitian matvec y = (H/R) x, H = i * generator
    ops = [(h, -1j * g / r, 1j * np.conj(g) / r) for h, g in pulse.couplings]

    def matvec(x):
        y = np.zeros_like(x)
        for h, lo, up in ops:
            y[h:] += lo * x[:-h]
            y[:-h] += up * x[h:]
        return y

    w_prev = psi.astype(np.complex128)
    w_cur = matvec(w_prev)
    acc = bess[0] * w_prev + (2.0 * (-1j) * bess[1]) * w_cur
    coef = -1.0 + 0.0j
    for k in range(2, n_terms):
        w_prev, w_cur = w_cur, 2.0 * matvec(w_cur) - w_prev
        acc += (2.0 * coef * bess[k]) * w_cur
        coef *= -1j
    return acc


def apply_pinem_matexp(state: LadderState, pulse: PinemPulse,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Apply exp(generator) of the truncated window to the state.

    Adaptive policies enlarge the window by the pulse half-width before
    applying; fixed policies keep it. The exponential is applied by its
    Chebyshev expansion at every window size, to within CHEBYSHEV_TAIL_TOL
    in amplitude. Raises TruncationError if the result carries weight near
    the window edge.
    """
    pad = policy.half_width_for(pulse.strength) if policy.mode == "adaptive" else 0
    l_min = state.l_min - pad
    psi = _aligned(state.amplitudes, state.l_min, l_min, state.dim + 2 * pad)
    result = LadderState(l_min, _chebyshev_exp_apply(pulse, psi))
    check_edge_leakage(result, policy.edge_margin, policy.leakage_tol)
    return result


def pinem_kernel(g: complex, half_width: int | None = None) -> np.ndarray:
    """Closed-form convolution kernel f_k for a single-harmonic pulse.

    Index k runs from -half_width to +half_width; by default the kernel is
    cut where its dropped tail meets the CHEBYSHEV_TAIL_TOL budget. The phase
    factor scales with k; the Chebyshev path pins this convention.
    """
    g = complex(g)
    if half_width is None:
        k_half = bessel_tail_half_width(2.0 * abs(g), _TAIL_BUDGET)
    else:
        k_half = int(half_width)
    k = np.arange(-k_half, k_half + 1)
    return np.exp(1j * np.angle(-g) * k) * jv(k, 2.0 * abs(g))


def apply_pinem_bessel(state: LadderState, pulse: PinemPulse,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Apply a single-harmonic laser interaction as a Bessel-kernel convolution.

    Multi-harmonic pulses have no single Jacobi-Anger kernel here and fall
    back to ``apply_pinem_matexp``.
    """
    if not pulse.is_single_harmonic:
        return apply_pinem_matexp(state, pulse, policy)
    g = pulse.g
    if g == 0:
        return state
    kernel = pinem_kernel(g)
    k_half = (kernel.size - 1) // 2
    conv = np.convolve(state.amplitudes, kernel)
    conv_l_min = state.l_min - k_half
    if policy.mode == "adaptive":
        pad = policy.half_width_for(abs(g))
        l_min, dim = state.l_min - pad, state.dim + 2 * pad
    else:
        l_min, dim = state.l_min, state.dim
    result = LadderState(l_min, _aligned(conv, conv_l_min, l_min, dim))
    check_edge_leakage(result, policy.edge_margin, policy.leakage_tol)
    return result


def apply_pinem(state: LadderState, pulse: PinemPulse,
                policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Laser interaction via the cheapest valid path for the pulse."""
    if pulse.is_single_harmonic:
        return apply_pinem_bessel(state, pulse, policy)
    return apply_pinem_matexp(state, pulse, policy)


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

    Diagonalizes the Hermitian i*generator and exponentiates the (real)
    eigenvalues, so the spectrum is unit-modulus by construction.
    """
    if not pulse.is_single_harmonic:
        raise ValueError("eigenphases is defined for single-harmonic pulses")
    if dim % 2 == 0:
        raise ValueError("dim must be odd (symmetric window)")
    h = 1j * pinem_generator(pulse, dim)
    lam = eigh(h, eigvals_only=True)
    phases = np.mod(-lam + np.pi, 2.0 * np.pi) - np.pi
    phases[phases == -np.pi] = np.pi
    return np.sort(phases)


def commutator_norm(p1: PinemPulse, p2: PinemPulse, dim: int, interior: int) -> float:
    """Operator norm of [U(p1), U(p2)] on the interior block of the window.

    On the infinite ladder all these unitaries commute (they are Fourier
    multipliers); truncation breaks that only near the edges, so the norm is
    taken after discarding ``interior`` rows/columns at each end.
    """
    if interior < 0 or 2 * interior >= dim:
        raise ValueError("interior margin must satisfy 0 <= interior < dim/2")
    u1 = expm(pinem_generator(p1, dim))
    u2 = expm(pinem_generator(p2, dim))
    c = u1 @ u2 - u2 @ u1
    block = c[interior:dim - interior, interior:dim - interior]
    return float(np.linalg.norm(block, 2))
