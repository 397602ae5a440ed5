"""Comb-state qubit encoding on the energy ladder.

The qubit amplitudes are the plain sums of even- and odd-indexed ladder
amplitudes (rows of ones, deliberately unnormalized: the conserved quantity
is |alpha|^2 + |beta|^2, not a unit norm). A laser pulse acts on the pair as
an x-rotation by theta = -2 Im g, and a quarter-length drift as diag(1, i);
``qubit_gate`` is the one place that states those rules, and
``closure_check`` measures how far a simulated operation is from them. They
are exact on the infinite ladder and hold here up to window truncation,
which the leakage precondition keeps small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ladder import (
    DEFAULT_EDGE_MARGIN,
    DEFAULT_POLICY,
    LEAKAGE_TOL,
    LadderState,
    TruncationPolicy,
    check_edge_leakage,
)
from .operators import _I_POW, FspPhase, PinemPulse, apply_fsp, apply_pinem


@dataclass(frozen=True)
class QubitState:
    """Pair (alpha, beta) of even/odd comb amplitudes."""

    alpha: complex
    beta: complex

    @property
    def weight(self) -> float:
        return abs(self.alpha) ** 2 + abs(self.beta) ** 2

    def as_vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=np.complex128)

    def bloch_vector(self) -> tuple[float, float, float]:
        """Bloch coordinates of the normalized pair; weight must be nonzero."""
        w = self.weight
        if w == 0.0:
            raise ValueError("zero-weight qubit state has no Bloch vector")
        cross = self.alpha.conjugate() * self.beta
        return (
            2.0 * cross.real / w,
            2.0 * cross.imag / w,
            (abs(self.alpha) ** 2 - abs(self.beta) ** 2) / w,
        )

    def to_json(self) -> dict:
        return {
            "alpha": [self.alpha.real, self.alpha.imag],
            "beta": [self.beta.real, self.beta.imag],
        }


def project_period_p(state: LadderState, p: int,
                     edge_margin: int = DEFAULT_EDGE_MARGIN,
                     leakage_tol: float = LEAKAGE_TOL) -> np.ndarray:
    """Residue-class amplitude sums: component r = sum over l = r (mod p).

    p = 2 is the qubit projection, p = 4 the two-qubit read, p = 3 a qutrit.
    Indices are absolute ladder indices, so asymmetric windows project
    consistently. Each sum adds its cells in index order. Pass edge_margin=0
    to skip the interior-support check.
    """
    if p < 2:
        raise ValueError("period p must be >= 2")
    check_edge_leakage(state, edge_margin, leakage_tol)
    components = np.zeros(p, dtype=np.complex128)
    for r in range(min(p, state.dim)):
        components[(state.l_min + r) % p] = np.add.accumulate(state.amplitudes[r::p])[-1]
    # a running sum adds in index order, as a sum from zero does; + 0j turns the
    # -0.0 parts it can end on into the +0.0 that sum gives
    return components + 0j


def project_qubit(state: LadderState,
                  edge_margin: int = DEFAULT_EDGE_MARGIN,
                  leakage_tol: float = LEAKAGE_TOL) -> QubitState:
    """Even/odd comb projection of a ladder state."""
    alpha, beta = project_period_p(state, 2, edge_margin, leakage_tol)
    return QubitState(complex(alpha), complex(beta))


def pinem_rotation(theta: float) -> np.ndarray:
    """The 2x2 gate [[cos t, i sin t], [i sin t, cos t]] a pulse induces."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=np.complex128)


_DRIFT_GATES = np.array([np.diag([1.0 + 0.0j, phase]) for phase in _I_POW])
"""diag(1, i^k) for k = 0..3, shared by every call, hence read-only."""
_DRIFT_GATES.flags.writeable = False


def qubit_gate(operation: PinemPulse | FspPhase) -> np.ndarray:
    """The 2x2 gate one pulse or one drift induces on the comb qubit.

    A pulse rotates about x by theta = -2 Im g summed over its odd harmonics;
    an even harmonic keeps each comb on itself and only multiplies both by
    exp(-2i Im g_h). k quarter-length drifts give diag(1, i^k), a shared
    read-only array. A fractional drift leaves the encoding and raises
    ValueError.
    """
    if isinstance(operation, FspPhase):
        if not operation.is_quarter:
            raise ValueError("fractional drift is not legal on the qubit encoding")
        return _DRIFT_GATES[operation.quarter_units % 4]
    theta_odd = theta_even = 0.0
    for h, g in operation.couplings:
        if h % 2:
            theta_odd -= 2.0 * g.imag
        else:
            theta_even -= 2.0 * g.imag
    gate = pinem_rotation(theta_odd)
    return gate if theta_even == 0.0 else np.exp(1j * theta_even) * gate


def closure_check(state: LadderState, operation: PinemPulse | FspPhase,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Intertwining defect || T(U psi) - u_q T(psi) || for one operation.

    Zero means the comb encoding commutes with the dynamics, i.e. the
    operation is a faithful qubit gate, ``qubit_gate(operation)``, which
    raises ValueError for a fractional drift. ``policy`` sizes the pulse
    result only; both projections are edge-checked with
    ``project_period_p``'s defaults, ``DEFAULT_EDGE_MARGIN`` cells and
    ``LEAKAGE_TOL``.
    """
    gate = qubit_gate(operation)
    if isinstance(operation, FspPhase):
        evolved = apply_fsp(state, operation)
    else:
        evolved = apply_pinem(state, operation, policy)
    before = project_period_p(state, 2)
    after = project_period_p(evolved, 2)
    return float(np.linalg.norm(after - gate @ before))
