"""Independent oracles used by the tests.

Nothing here may call into fequbit's own computational paths: Bessel values
come from a direct power-series summation (arbitrary-precision to survive
the alternating-series cancellation), unitaries from QR, pulse unitaries
from the dense generator, expected projections from plain Python loops.
"""

import math

import mpmath as mp
import numpy as np
from scipy.linalg import expm


def bessel_series(k: int, x: float) -> float:
    """J_k(x) for integer k from the defining power series.

    Summed in arbitrary precision: the series alternates and its largest term
    grows like e^x, so float64 would lose ~0.43*x digits to cancellation.
    """
    if k < 0:
        val = bessel_series(-k, x)
        return -val if k % 2 else val
    if x < 0:
        val = bessel_series(k, -x)
        return -val if k % 2 else val
    dps = 35 + int(0.45 * x)
    with mp.workdps(dps):
        xh = mp.mpf(x) / 2
        q = -(xh * xh)
        term = xh**k / mp.factorial(k)
        total = term
        m = 1
        growth_end = float(xh * xh)
        while True:
            term = term * q / (m * (m + k))
            total += term
            if m * (m + k) > growth_end and abs(term) < mp.mpf(10) ** (5 - dps):
                break
            m += 1
        return float(total)


def pinem_amplitudes_oracle(g: complex, k_values) -> np.ndarray:
    """Closed-form amplitudes e^{i k arg(-g)} J_k(2|g|) from the series oracle."""
    chi = math.atan2((-g).imag, (-g).real)
    return np.array([np.exp(1j * chi * k) * bessel_series(int(k), 2.0 * abs(g))
                     for k in k_values])


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random U(2) via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))


def even_odd_sums_oracle(state) -> tuple[complex, complex]:
    """Brute-force even/odd ladder sums with a plain Python loop."""
    even = 0.0 + 0.0j
    odd = 0.0 + 0.0j
    for l, amp in zip(state.indices, state.amplitudes):
        if l % 2 == 0:
            even += complex(amp)
        else:
            odd += complex(amp)
    return even, odd


def residue_sums_oracle(state, p: int) -> np.ndarray:
    """Brute-force residue-class sums mod p."""
    out = np.zeros(p, dtype=np.complex128)
    for l, amp in zip(state.indices, state.amplitudes):
        out[int(l) % p] += complex(amp)
    return out


def residue_sums_add_at(state, p: int) -> np.ndarray:
    """Residue-class sums mod p by np.add.at over the absolute indices: each
    class is summed in index order, starting from +0."""
    out = np.zeros(p, dtype=np.complex128)
    np.add.at(out, state.indices % p, state.amplitudes)
    return out


def adaptive_trim_oracle(amps: np.ndarray, l_min: int, edge_margin: int,
                         tol: float) -> tuple[int, np.ndarray]:
    """(l_min, amplitudes) of a raw convolution cut to its support plus guards.

    From each end the longest run whose summed |amplitude| is at most tol / 2
    is dropped, found with np.abs of the whole array and one np.cumsum from
    each end; an array whose runs meet keeps every cell. ``edge_margin``
    guard cells are kept per side: a zero-filled window, then the array's
    cells copied in.
    """
    mass = np.abs(amps)
    lo = int(np.searchsorted(np.cumsum(mass), tol / 2, side="right"))
    hi = int(np.searchsorted(np.cumsum(mass[::-1]), tol / 2, side="right"))
    if lo + hi >= amps.size:
        lo = hi = 0
    out_l_min = l_min + lo - edge_margin
    out = np.zeros(amps.size - lo - hi + 2 * edge_margin, dtype=np.complex128)
    src_lo = max(l_min, out_l_min)
    src_hi = min(l_min + amps.size, out_l_min + out.size)
    out[src_lo - out_l_min:src_hi - out_l_min] = amps[src_lo - l_min:src_hi - l_min]
    return out_l_min, out


def pinem_generator(pulse, dim: int) -> np.ndarray:
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


def commutator_norm(p1, p2, dim: int, interior: int) -> float:
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
