"""Energy-ladder states, truncation policy, and electron-beam parameters.

The electron wavefunction lives on a discrete ladder of energy levels
E_0 + l*hbar*omega indexed by the net photon exchange l. States here are
complex amplitude vectors over a finite window of that infinite ladder;
the truncation policy decides whether that window stays fixed or follows
the support of each laser interaction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import jv

from .constants import (
    COMPTON_ANGULAR_FREQUENCY,
    ELECTRON_REST_ENERGY_EV,
    ELEMENTARY_CHARGE,
    HBAR,
    SPEED_OF_LIGHT,
)
from .errors import ConfigurationError, TruncationError, WindowError

NORM_TOL = 1e-10
"""Allowed deviation of the norm of any state produced by this package."""

LEAKAGE_TOL = 1e-12
"""Max probability tolerated near the window edge before results are rejected."""

DEFAULT_EDGE_MARGIN = 4
"""Cells at each window end counted as "edge" by the leakage check."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Window-sizing rule for ladder states.

    ``fixed(L)`` always uses the symmetric window [-L, L] and never grows it;
    a pulse result that carries more than ``leakage_tol`` probability within
    ``edge_margin`` cells of its edge is rejected. ``adaptive`` lets every
    pulse result take the whole support of its Bessel kernels, each cut by
    its own tail budget (``operators.pinem_kernel``), plus ``edge_margin``
    zero guard cells per side. The result is then trimmed back to its
    support: each end drops the cells holding at most
    ``operators.CHEBYSHEV_TAIL_TOL / 2`` in summed |amplitude|, less
    ``edge_margin`` guard cells, so one trim moves the state by at most
    CHEBYSHEV_TAIL_TOL in l1 norm. ``margin_abs`` sizes the adaptive start
    window (``basis_state``); ``margin_rel`` sizes nothing in the package.
    Fits read the policy too (``tomography.reconstruct_state``): fixed(L)
    fits [-L, L] within the data window, adaptive fits the whole data window.
    """

    mode: str = "adaptive"
    half_width: int | None = None
    margin_abs: int = 8
    margin_rel: float = 7.0
    edge_margin: int = DEFAULT_EDGE_MARGIN
    leakage_tol: float = LEAKAGE_TOL

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown truncation mode {self.mode!r}")
        if self.mode == "fixed" and (self.half_width is None or self.half_width < 1):
            raise ValueError("fixed mode needs a positive half_width")
        if self.edge_margin < 0:
            raise ValueError("edge_margin must be >= 0")

    @classmethod
    def fixed(cls, half_width: int, **kwargs) -> "TruncationPolicy":
        return cls(mode="fixed", half_width=half_width, **kwargs)

    @classmethod
    def adaptive(cls, margin_abs: int = 8, margin_rel: float = 7.0, **kwargs) -> "TruncationPolicy":
        return cls(mode="adaptive", margin_abs=margin_abs, margin_rel=margin_rel, **kwargs)

    def half_width_for(self, strength: float) -> int:
        """Heuristic half-width for a window around a pulse of the given strength.

        ``ceil(2s) + margin_abs + ceil(margin_rel * (2s)**(1/3))`` for strength
        ``s``; the fixed half-width in fixed mode. It is no bound on a pulse's
        spread (at s = 250 it gives 564 while the kernel runs to 576): pulses
        size their windows from their own kernels. The package calls it only
        in ``basis_state``, at s = 0, where it is ``margin_abs``.
        """
        if self.mode == "fixed":
            return self.half_width
        x = 2.0 * abs(strength)
        if x == 0.0:
            return self.margin_abs
        return math.ceil(x) + self.margin_abs + math.ceil(self.margin_rel * x ** (1.0 / 3.0))


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class LadderState:
    """Complex amplitudes psi_l on a window of the integer energy ladder.

    ``l_min`` is the lowest retained index; ``amplitudes[i]`` is the amplitude
    at level ``l_min + i``. The array is made read-only so states can be
    shared freely.
    """

    l_min: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d array")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def l_max(self) -> int:
        return self.l_min + self.dim - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_min + self.dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def amplitude(self, l: int) -> complex:
        if not self.l_min <= l <= self.l_max:
            raise WindowError(f"level {l} outside window [{self.l_min}, {self.l_max}]")
        return complex(self.amplitudes[l - self.l_min])

    def padded(self, l_min: int, l_max: int) -> "LadderState":
        """Zero-pad onto the window [l_min, l_max] (must contain the current one)."""
        if l_min > self.l_min or l_max < self.l_max:
            raise WindowError("padded window must contain the current window")
        out = np.zeros(l_max - l_min + 1, dtype=np.complex128)
        off = self.l_min - l_min
        out[off:off + self.dim] = self.amplitudes
        return LadderState(l_min, out)

    def trimmed(self, tol: float = 1e-18) -> "LadderState":
        """Drop probability-free window edges (per-cell probability <= tol)."""
        keep = np.flatnonzero(np.abs(self.amplitudes) ** 2 > tol)
        if keep.size == 0:
            center = min(max(-self.l_min, 0), self.dim - 1)
            return LadderState(self.l_min + center, self.amplitudes[center:center + 1])
        return LadderState(self.l_min + int(keep[0]),
                           self.amplitudes[keep[0]:keep[-1] + 1])

    def to_json(self) -> dict:
        return {
            "l_min": self.l_min,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LadderState":
        """Inverse of ``to_json``. ``l_min`` must be an integer with
        |l_min| <= 2**62, so that level indices stay within int64."""
        l_min = obj["l_min"]
        if not isinstance(l_min, int) or isinstance(l_min, bool) or abs(l_min) > 2 ** 62:
            raise ValueError(f"l_min must be an integer within +-2**62, got {l_min!r}")
        amps = np.array([complex(re, im) for re, im in obj["amplitudes"]], dtype=np.complex128)
        return cls(l_min, amps)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=None)

    @classmethod
    def load(cls, path) -> "LadderState":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def basis_state(l: int, window: TruncationPolicy | int = DEFAULT_POLICY) -> LadderState:
    """Single-level state |l> on a symmetric window.

    ``window`` is either a half-width or a policy (whose zero-strength
    half-width is used). The window must contain ``l``.
    """
    if isinstance(window, TruncationPolicy):
        half = window.half_width_for(0.0)
    else:
        half = int(window)
    if half < 1:
        raise ValueError("window half-width must be >= 1")
    if abs(l) > half:
        raise WindowError(f"level {l} outside window [-{half}, {half}]")
    amps = np.zeros(2 * half + 1, dtype=np.complex128)
    amps[l + half] = 1.0
    return LadderState(-half, amps)


def occupied_levels(state: LadderState, coverage: float = 1.0 - 1e-6) -> int:
    """Size of the smallest symmetric window [-K, K] holding ``coverage``.

    Counts 2K + 1 levels even when part of that window lies outside the
    state's own (then probability-free) storage window.
    """
    p = state.probabilities()
    if p.sum() < coverage:
        raise ValueError("state window holds less probability than requested")
    radii = np.abs(state.indices)
    by_radius = np.bincount(radii, weights=p)
    cumulative = np.cumsum(by_radius)
    k = int(np.searchsorted(cumulative, coverage))
    return 2 * k + 1


def support_leakage(state: LadderState, edge_margin: int) -> float:
    """Total probability within ``edge_margin`` cells of either window end."""
    if edge_margin < 0:
        raise ValueError("edge_margin must be >= 0")
    if 2 * edge_margin >= state.dim:
        raise ValueError("edge_margin must be smaller than the window half-width")
    if edge_margin == 0:
        return 0.0
    p = state.probabilities()
    return float(np.sum(p[:edge_margin]) + np.sum(p[-edge_margin:]))


def check_edge_leakage(state: LadderState, edge_margin: int, leakage_tol: float) -> None:
    """Raise TruncationError if more than ``leakage_tol`` probability lies
    within ``edge_margin`` cells (fewer on narrow windows) of either end."""
    margin = min(edge_margin, (state.dim - 1) // 2)
    leak = support_leakage(state, margin)
    if leak > leakage_tol:
        raise TruncationError(
            f"probability {leak:.3e} within {margin} cells of the window edge "
            f"exceeds {leakage_tol:.1e}; enlarge the window")


def bessel_row(x: float, budget: float) -> np.ndarray:
    """J_k(x) for k = -K..K, with K the smallest cut where 2 sum_{k>K} J_k(x)^2 <= budget.

    That sum is the probability a Bessel kernel cut to -K..K drops. The
    search runs to n > x, past the turnover where J_k(x) falls ever faster,
    and is extended until J_n(x)^2 <= 1e-6 * budget, so the terms beyond n
    are negligible. The negative orders are J_{-k} = (-1)^k J_k of the
    values the search evaluated, which is bitwise what ``jv`` returns for
    them. This is the one place a Bessel row is evaluated and cut.
    """
    x = abs(float(x))
    n = math.ceil(x) + 16
    while jv(n, x) ** 2 > 1e-6 * budget:
        n += n - math.ceil(x)  # double the margin past the turnover
    j = jv(np.arange(n + 1), x)
    p = j ** 2
    beyond = 2.0 * (np.cumsum(p[::-1])[::-1] - p)  # beyond[k] = 2 sum_{k<j<=n} p_j
    right = j[:int(np.argmax(beyond <= budget)) + 1]
    left = right[:0:-1].copy()
    left[-1::-2] *= -1.0  # the odd orders -1, -3, ...
    return np.concatenate([left, right])


def bessel_tail_half_width(x: float, budget: float) -> int:
    """Smallest K >= 0 with 2 * sum_{k>K} J_k(x)^2 <= budget (see ``bessel_row``)."""
    return bessel_row(x, budget).size // 2


@dataclass(frozen=True)
class BeamParameters:
    """Electron-beam and laser parameters with all derived kinematics.

    Energies in eV, lengths in m, angular frequencies in rad/s. ``delta_e_ev``
    is carried as metadata only (the dynamics here is pure-state); it is
    gate-checked against the photon energy at construction.
    """

    kinetic_energy_ev: float
    laser_wavelength_m: float
    delta_e_ev: float
    beta: float
    gamma: float
    v: float
    omega: float
    omega_c: float
    z_d: float

    @property
    def photon_energy_ev(self) -> float:
        return HBAR * self.omega / ELEMENTARY_CHARGE

    @property
    def quarter_length_m(self) -> float:
        return self.z_d / 4.0

    def to_json(self) -> dict:
        return {
            "kinetic_energy_ev": self.kinetic_energy_ev,
            "laser_wavelength_m": self.laser_wavelength_m,
            "delta_e_ev": self.delta_e_ev,
            "beta": self.beta,
            "gamma": self.gamma,
            "v": self.v,
            "omega": self.omega,
            "omega_c": self.omega_c,
            "z_d": self.z_d,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BeamParameters":
        return cls(**{k: float(obj[k]) for k in (
            "kinetic_energy_ev", "laser_wavelength_m", "delta_e_ev",
            "beta", "gamma", "v", "omega", "omega_c", "z_d")})


def derive_beam(kinetic_energy_ev: float, laser_wavelength_m: float,
                delta_e_ev: float = 0.0) -> BeamParameters:
    """Relativistic kinematics and the dispersion length for a beam + laser pair.

    z_D = 2 beta^2 gamma^3 (omega_C / omega) (v / omega); after propagating
    z_D every level's quadratic phase is a full multiple of 2 pi.
    """
    if kinetic_energy_ev <= 0:
        raise ConfigurationError("kinetic energy must be positive")
    if laser_wavelength_m <= 0:
        raise ConfigurationError("laser wavelength must be positive")
    if delta_e_ev < 0:
        raise ConfigurationError("energy spread must be >= 0")
    gamma = 1.0 + kinetic_energy_ev / ELECTRON_REST_ENERGY_EV
    beta = math.sqrt(1.0 - 1.0 / gamma**2)
    v = beta * SPEED_OF_LIGHT
    omega = 2.0 * math.pi * SPEED_OF_LIGHT / laser_wavelength_m
    omega_c = COMPTON_ANGULAR_FREQUENCY
    photon_ev = HBAR * omega / ELEMENTARY_CHARGE
    if delta_e_ev >= photon_ev:
        raise ConfigurationError(
            f"energy spread {delta_e_ev} eV >= photon energy {photon_ev:.6g} eV; "
            "the ladder levels would overlap")
    z_d = 2.0 * beta**2 * gamma**3 * (omega_c / omega) * (v / omega)
    return BeamParameters(
        kinetic_energy_ev=kinetic_energy_ev,
        laser_wavelength_m=laser_wavelength_m,
        delta_e_ev=delta_e_ev,
        beta=beta,
        gamma=gamma,
        v=v,
        omega=omega,
        omega_c=omega_c,
        z_d=z_d,
    )


def field_to_g(field_amplitude: float, calibration: complex | None) -> complex:
    """Linear map from laser field amplitude (V/m) to the coupling g.

    The true proportionality depends on the nearfield geometry and is not
    modeled here; the caller supplies a measured calibration constant
    (coupling per V/m).
    """
    if calibration is None:
        raise ConfigurationError("no field-to-coupling calibration configured")
    return complex(calibration) * float(field_amplitude)
