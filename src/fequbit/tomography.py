"""Measurement chain: energy spectra, probe-phase spectrograms, reconstruction.

Populations |psi_l|^2 come straight from energy-loss spectroscopy; phases do
not. Scanning the phase of a second, known probe pulse and recording a
spectrum per phase gives interference data that pins the phases too. The
reconstruction here is a multi-start nonlinear least-squares fit of the
complex amplitudes against that forward model, with the global phase fixed
afterwards by making the largest amplitude real-positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares
from scipy.special import jv

from .ladder import LadderState, TruncationPolicy, bessel_tail_half_width
from .qubit import QubitState, project_qubit

DEFAULT_PROBE_MAGNITUDE = 1.0
DEFAULT_N_PHASES = 32
DEFAULT_RESTARTS = 16
DEFAULT_FAIL_THRESHOLD = 0.05


@dataclass(frozen=True)
class Spectrum:
    """Level populations on a ladder window; sums to one."""

    l_min: int
    probabilities: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64).copy()
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a non-empty 1-d array")
        if p.min() < 0.0:
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_min + self.probabilities.size)

    def to_json(self) -> dict:
        return {"l_min": self.l_min, "probabilities": list(map(float, self.probabilities))}

    @classmethod
    def from_json(cls, obj: dict) -> "Spectrum":
        return cls(int(obj["l_min"]), np.asarray(obj["probabilities"], dtype=np.float64))


def eels_spectrum(state: LadderState) -> Spectrum:
    """Population spectrum p_l = |psi_l|^2 of a normalized state."""
    p = state.probabilities()
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"state norm^2 = {p.sum()!r}; spectra need normalized states")
    return Spectrum(state.l_min, p)


@dataclass(frozen=True)
class Spectrogram:
    """One population spectrum per probe scan phase (columns), shared window."""

    scan_phases: np.ndarray = field(repr=False)
    l_min: int = 0
    data: np.ndarray = field(default=None, repr=False)  # (n_levels, n_phases)
    probe_magnitude: float = DEFAULT_PROBE_MAGNITUDE

    def __post_init__(self):
        phases = np.asarray(self.scan_phases, dtype=np.float64).copy()
        data = np.asarray(self.data, dtype=np.float64).copy()
        if data.ndim != 2 or data.shape[1] != phases.size:
            raise ValueError("data must be (n_levels, n_phases)")
        phases.flags.writeable = False
        data.flags.writeable = False
        object.__setattr__(self, "scan_phases", phases)
        object.__setattr__(self, "data", data)

    @property
    def n_levels(self) -> int:
        return self.data.shape[0]

    @property
    def n_phases(self) -> int:
        return self.data.shape[1]

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_min + self.n_levels)

    def column(self, j: int) -> Spectrum:
        return Spectrum(self.l_min, self.data[:, j])

    def to_csv(self, path) -> None:
        """Header row: probe magnitude then scan phases; data rows labeled by l."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("l," + ",".join(repr(float(p)) for p in self.scan_phases) + "\n")
            fh.write("probe," + ",".join([repr(float(self.probe_magnitude))]
                                         * self.n_phases) + "\n")
            for row, l in enumerate(self.indices):
                fh.write(f"{l}," + ",".join(repr(float(v)) for v in self.data[row]) + "\n")

    @classmethod
    def from_csv(cls, path) -> "Spectrogram":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        phases = np.array([float(tok) for tok in lines[0].split(",")[1:]])
        probe = float(lines[1].split(",")[1])
        levels, rows = [], []
        for ln in lines[2:]:
            toks = ln.split(",")
            levels.append(int(toks[0]))
            rows.append([float(t) for t in toks[1:]])
        if not levels or levels != list(range(levels[0], levels[0] + len(levels))):
            raise ValueError(f"{path}: level rows must be contiguous and ascending")
        if any(len(row) != phases.size for row in rows):
            raise ValueError(f"{path}: every level row needs {phases.size} values")
        return cls(phases, levels[0], np.asarray(rows), probe)


def _probe_kernels(probe_magnitude: float, scan_phases: np.ndarray) -> tuple[np.ndarray, int]:
    """Stack of convolution kernels, one per scan phase chi (probe g = m e^{i chi})."""
    # the truncated kernel drops at most 1e-24 probability per column
    k_half = bessel_tail_half_width(2.0 * probe_magnitude, 1e-24)
    k = np.arange(-k_half, k_half + 1)
    bess = jv(k, 2.0 * probe_magnitude)
    # arg(-g) = chi + pi for g = m e^{i chi}
    kernels = np.exp(1j * np.outer(scan_phases + np.pi, k)) * bess
    return kernels, k_half


def spectrogram(state: LadderState, probe_magnitude: float = DEFAULT_PROBE_MAGNITUDE,
                n_phases: int = DEFAULT_N_PHASES) -> Spectrogram:
    """Forward model: probe-pulse-then-spectrum for each phase on a uniform grid."""
    if probe_magnitude <= 0:
        raise ValueError("probe magnitude must be > 0")
    if n_phases < 8:
        raise ValueError("need at least 8 scan phases")
    phases = 2.0 * np.pi * np.arange(n_phases) / n_phases
    kernels, k_half = _probe_kernels(probe_magnitude, phases)
    data = np.empty((state.dim + 2 * k_half, n_phases), dtype=np.float64)
    for j in range(n_phases):
        mixed = np.convolve(state.amplitudes, kernels[j])
        data[:, j] = np.abs(mixed) ** 2
    return Spectrogram(phases, state.l_min - k_half, data, probe_magnitude)


def add_shot_noise(sg: Spectrogram, counts_per_column: float, seed: int = 0) -> Spectrogram:
    """Poisson counting noise, independent per (level, phase), renormalized per column."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(sg.data * counts_per_column).astype(np.float64)
    totals = counts.sum(axis=0)
    totals[totals == 0.0] = 1.0
    return Spectrogram(sg.scan_phases, sg.l_min, counts / totals, sg.probe_magnitude)


@dataclass(frozen=True)
class ReconstructionResult:
    state: LadderState
    residual: float
    ok: bool
    restarts: int
    best_restart: int
    seed: int

    def to_json(self) -> dict:
        return {
            "state": self.state.to_json(),
            "residual": self.residual,
            "ok": self.ok,
            "restarts": self.restarts,
            "best_restart": self.best_restart,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ReconstructionResult":
        # the minimal report schema is state/residual/restarts/seed; the rest
        # is diagnostic and may be absent in externally produced files
        residual = float(obj["residual"])
        return cls(LadderState.from_json(obj["state"]), residual,
                   bool(obj.get("ok", residual <= DEFAULT_FAIL_THRESHOLD)),
                   int(obj["restarts"]), int(obj.get("best_restart", 0)),
                   int(obj["seed"]))


def _fit_window(sg: Spectrogram, window: TruncationPolicy | None) -> tuple[int, int]:
    if window is None:
        return sg.l_min, sg.n_levels
    half = window.half_width_for(0.0) if window.mode == "adaptive" else window.half_width
    lo = max(sg.l_min, -half)
    hi = min(sg.l_min + sg.n_levels - 1, half)
    if lo > hi:
        raise ValueError("reconstruction window does not overlap the data window")
    return lo, hi - lo + 1


def reconstruct_state(sg: Spectrogram, window: TruncationPolicy | None = None,
                      n_restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                      fail_threshold: float = DEFAULT_FAIL_THRESHOLD
                      ) -> ReconstructionResult:
    """Least-squares fit of complex amplitudes to a spectrogram.

    Multi-start local optimization with an analytic Jacobian; deterministic
    for a given seed (ties in cost go to the earlier restart). Up to
    ``n_restarts`` starts run, stopping early once the cost floor is hit or
    two starts agree on the best cost (same basin found twice). The result is
    flagged not-ok when the best residual (Frobenius mismatch between
    predicted and observed spectrograms) exceeds ``fail_threshold``; the best
    candidate is still returned.
    """
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    fit_l_min, n_par = _fit_window(sg, window)
    kernels, k_half = _probe_kernels(sg.probe_magnitude, sg.scan_phases)
    n_phases, n_rows = sg.n_phases, sg.n_levels

    # dense per-phase linear maps C[j] : fit amplitudes -> mixed amplitudes on data rows
    conv_maps = np.zeros((n_phases, n_rows, n_par), dtype=np.complex128)
    for col in range(n_par):
        src_l = fit_l_min + col
        lo = src_l - k_half - sg.l_min
        for j in range(n_phases):
            row0, row1 = max(lo, 0), min(lo + kernels.shape[1], n_rows)
            conv_maps[j, row0:row1, col] = kernels[j, row0 - lo:row1 - lo]

    observed = sg.data.T  # (n_phases, n_rows)

    def residuals(x):
        psi = x[:n_par] + 1j * x[n_par:]
        mixed = conv_maps @ psi
        return (np.abs(mixed) ** 2 - observed).ravel()

    def jacobian(x):
        psi = x[:n_par] + 1j * x[n_par:]
        mixed = conv_maps @ psi
        weighted = np.conj(mixed)[:, :, None] * conv_maps
        j_re = 2.0 * weighted.real.reshape(-1, n_par)
        j_im = -2.0 * weighted.imag.reshape(-1, n_par)
        return np.hstack([j_re, j_im])

    mean_pop = observed.mean(axis=0)
    start_mag = np.sqrt(np.clip(
        mean_pop[fit_l_min - sg.l_min:fit_l_min - sg.l_min + n_par], 0.0, None))
    rng = np.random.default_rng(seed)
    n_entries = n_phases * n_rows
    early_cost = 1e-24 * n_entries

    best = None
    best_index = 0
    used = 0
    agreeing = 0
    for restart in range(n_restarts):
        if restart == 0:
            psi0 = start_mag.astype(np.complex128)
        else:
            psi0 = start_mag * np.exp(2j * np.pi * rng.random(n_par))
        x0 = np.concatenate([psi0.real, psi0.imag])
        fit = least_squares(residuals, x0, jac=jacobian, method="trf",
                            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=300)
        used += 1
        if best is None:
            best, agreeing = fit, 1
        elif fit.cost < best.cost:
            if fit.cost > best.cost * (1.0 - 1e-3):
                agreeing += 1
            else:
                agreeing = 1
            best, best_index = fit, restart
        elif fit.cost < best.cost * (1.0 + 1e-3):
            agreeing += 1
        if best.cost <= early_cost or agreeing >= 2:
            break

    psi = best.x[:n_par] + 1j * best.x[n_par:]
    anchor = int(np.argmax(np.abs(psi)))
    if abs(psi[anchor]) > 0:
        psi = psi * np.exp(-1j * np.angle(psi[anchor]))
    residual = math.sqrt(2.0 * best.cost)
    return ReconstructionResult(
        state=LadderState(fit_l_min, psi),
        residual=residual,
        ok=residual <= fail_threshold,
        restarts=used,
        best_restart=best_index,
        seed=seed,
    )


def readout_qubit(sg: Spectrogram, window: TruncationPolicy | None = None,
                  n_restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                  fail_threshold: float = DEFAULT_FAIL_THRESHOLD
                  ) -> tuple[QubitState, float]:
    """Reconstruct, then project: the comb qubit as a measurement result.

    The overall phase of (alpha, beta) inherits the reconstruction's fixed
    gauge and is not physical.
    """
    result = reconstruct_state(sg, window, n_restarts, seed, fail_threshold)
    # fit-window edges bound the support; the interior-leakage check is moot here
    return project_qubit(result.state, edge_margin=0), result.residual


def reconstruction_report(result: ReconstructionResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh)
