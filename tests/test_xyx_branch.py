"""The XYX branch the compiler picks spreads the electron no more than the
plain ZYZ read-off, scored on each schedule's own kappa-symbol by quadrature.

A pulse of coupling g acts on each comb pair (E, O)(kappa) as
Rx(theta cos kappa) with theta = -2 Im g, and a drift of k quarter units as
diag(1, i^k). The spread of a schedule is the kappa-mean of
||d/dkappa U(kappa)||_F^2, taken here by central differences on a uniform
grid, without the compiler's closed form.
"""

import math

import numpy as np

from fequbit import FspPhase, Gate, PinemPulse, compile_gate, derive_beam
from oracles import haar_unitary

BEAM = derive_beam(200e3, 800e-9)
N_KAPPA = 256
STEP = 1e-5  # central-difference step in kappa: 4e-10 relative error here
SPREAD_RTOL = 1e-8


def rx(t: np.ndarray) -> np.ndarray:
    c, s = np.cos(t), 1j * np.sin(t)
    return np.stack([np.stack([c, s], -1), np.stack([s, c], -1)], -2)


def ry(t: np.ndarray) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2) + 0j


def schedule_symbol(schedule, kappa: np.ndarray) -> np.ndarray:
    """U(kappa), shape (len(kappa), 2, 2), from the schedule's elements."""
    out = np.broadcast_to(np.eye(2, dtype=complex), (kappa.size, 2, 2))
    for el in schedule.elements:
        if isinstance(el, PinemPulse):
            step = rx(-2.0 * el.g.imag * np.cos(kappa))
        else:
            assert isinstance(el, FspPhase)
            step = np.diag([1.0, 1j ** el.quarter_units])
        out = step @ out
    return out


def readoff_symbol(a: float, b: float, c: float, kappa: np.ndarray) -> np.ndarray:
    """U(kappa) of the schedule Rx(c), Ry(b), Rx(a), first applied first."""
    t = np.cos(kappa)
    return rx(a * t) @ ry(b * t) @ rx(c * t)


def spread(symbol) -> float:
    """kappa-mean of ||dU/dkappa||_F^2, central differences, uniform grid."""
    kappa = 2.0 * np.pi * np.arange(N_KAPPA) / N_KAPPA
    du = (symbol(kappa + STEP) - symbol(kappa - STEP)) / (2.0 * STEP)
    return float(np.mean(np.sum(np.abs(du) ** 2, axis=(1, 2))))


def zyz_readoff(u: np.ndarray) -> tuple[float, float, float]:
    """(a, b, c) with u = phase Rx(a) Ry(b) Rx(c), b in [-pi/2, 0] and a, c in
    (-pi, pi]: the first row (x, y) = (cos b e^{i(a+c)}, -sin b e^{i(a-c)})
    of H V H, V = u / sqrt(det u), taken with four-entry sums."""
    v = (u / np.sqrt(np.linalg.det(u))).ravel()
    x = (v[0] + v[1] + v[2] + v[3]) / 2
    y = (v[0] - v[1] + v[2] - v[3]) / 2
    s, t = np.angle(x), np.angle(y)

    def wrap(angle):
        angle = math.remainder(angle, 2.0 * math.pi)
        return math.pi if angle == -math.pi else angle

    return wrap((s + t) / 2), -math.atan2(abs(y), abs(x)), wrap((s - t) / 2)


def test_compiled_branch_spreads_no_more_than_the_readoff():
    rng = np.random.default_rng(3107)
    compiled_total = readoff_total = 0.0
    for _ in range(200):
        u = haar_unitary(rng)
        schedule = compile_gate(Gate("U", entries=tuple(u.ravel())), BEAM)
        assert np.max(np.abs(schedule.qubit_matrix() - u)) < 1e-9
        a, b, c = zyz_readoff(u)
        realized = readoff_symbol(a, b, c, np.zeros(1))[0]
        overlap = abs(np.trace(realized.conj().T @ u)) / 2.0
        assert abs(overlap - 1.0) < 1e-12  # the read-off is the same gate
        compiled = spread(lambda kappa: schedule_symbol(schedule, kappa))
        readoff = spread(lambda kappa: readoff_symbol(a, b, c, kappa))
        assert compiled <= readoff * (1.0 + SPREAD_RTOL) + 1e-12
        compiled_total += compiled
        readoff_total += readoff
    assert compiled_total < 0.5 * readoff_total  # 0.36 at this seed
