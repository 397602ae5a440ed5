"""Comb-state qubit encoding on the energy ladder.

The qubit amplitudes are the plain sums of even- and odd-indexed ladder
amplitudes (rows of ones, deliberately unnormalized: the conserved quantity
is |alpha|^2 + |beta|^2, not a unit norm). A laser pulse acts on the pair as
an x-rotation by theta = -2 Im g, and a quarter-length drift as diag(1, i);
those identities are exact on the infinite ladder and hold here up to window
truncation, which the leakage precondition keeps small.
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

    @classmethod
    def from_json(cls, obj: dict) -> "QubitState":
        return cls(complex(*obj["alpha"]), complex(*obj["beta"]))


def project_period_p(state: LadderState, p: int,
                     edge_margin: int = DEFAULT_EDGE_MARGIN,
                     leakage_tol: float = LEAKAGE_TOL) -> np.ndarray:
    """Residue-class amplitude sums: component r = sum over l = r (mod p).

    p = 2 is the qubit projection, p = 4 the two-qubit read, p = 3 a qutrit.
    Indices are absolute ladder indices, so asymmetric windows project
    consistently. Pass edge_margin=0 to skip the interior-support check.
    """
    if p < 2:
        raise ValueError("period p must be >= 2")
    check_edge_leakage(state, edge_margin, leakage_tol)
    components = np.zeros(p, dtype=np.complex128)
    np.add.at(components, state.indices % p, state.amplitudes)
    return components


def project_qubit(state: LadderState,
                  edge_margin: int = DEFAULT_EDGE_MARGIN,
                  leakage_tol: float = LEAKAGE_TOL) -> QubitState:
    """Even/odd comb projection of a ladder state."""
    alpha, beta = project_period_p(state, 2, edge_margin, leakage_tol)
    return QubitState(complex(alpha), complex(beta))


def period_components_to_json(components: np.ndarray) -> list:
    """Wire format for a period-p projection: array of [re, im] pairs."""
    return [[float(c.real), float(c.imag)] for c in components]


def period_components_from_json(obj) -> np.ndarray:
    return np.array([complex(re, im) for re, im in obj], dtype=np.complex128)


def pinem_rotation(theta: float) -> np.ndarray:
    """The 2x2 gate [[cos t, i sin t], [i sin t, cos t]] a pulse induces."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=np.complex128)


def qubit_gate_of_pinem(g: complex) -> np.ndarray:
    """Qubit-space action of a single-harmonic pulse: x-rotation by -2 Im g."""
    return pinem_rotation(-2.0 * complex(g).imag)


def qubit_gate_of_fsp(quarter_units: int) -> np.ndarray:
    """Qubit-space action of k quarter-length drifts: diag(1, i^k)."""
    if quarter_units < 0:
        raise ValueError("quarter_units must be >= 0")
    return np.diag([1.0 + 0.0j, _I_POW[quarter_units % 4]])


def _pulse_qubit_gate(pulse: PinemPulse) -> np.ndarray:
    # odd harmonics rotate, even harmonics only add a common phase
    theta_odd = sum(-2.0 * g.imag for h, g in pulse.couplings if h % 2 == 1)
    theta_even = sum(-2.0 * g.imag for h, g in pulse.couplings if h % 2 == 0)
    return np.exp(1j * theta_even) * pinem_rotation(theta_odd)


def closure_check(state: LadderState, operation: PinemPulse | FspPhase,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Intertwining defect || T(U psi) - u_q T(psi) || for one operation.

    Zero means the comb encoding commutes with the dynamics, i.e. the
    operation is a faithful qubit gate. Drifts must be integer quarter-units;
    anything else leaves the encoding. Both projections are edge-checked with
    the policy's ``edge_margin`` and ``leakage_tol``.
    """
    if isinstance(operation, FspPhase):
        if not operation.is_quarter:
            raise ValueError("fractional drift is not legal on the qubit encoding")
        evolved = apply_fsp(state, operation)
        gate = qubit_gate_of_fsp(operation.quarter_units)
    else:
        evolved = apply_pinem(state, operation, policy)
        gate = _pulse_qubit_gate(operation)
    before = project_period_p(state, 2, policy.edge_margin, policy.leakage_tol)
    after = project_period_p(evolved, 2, policy.edge_margin, policy.leakage_tol)
    return float(np.linalg.norm(after - gate @ before))
