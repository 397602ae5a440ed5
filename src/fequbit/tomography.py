"""Measurement chain: energy spectra, probe-phase spectrograms, reconstruction.

Populations |psi_l|^2 come straight from energy-loss spectroscopy; phases do
not. Scanning the phase chi of a second, known probe pulse of magnitude m_p
and recording a spectrum per phase gives interference data that pins the
phases too. The probe is one real Bessel row J_k(2 m_p), cut once by its
tail budget; a scan phase only gauges the state by e^{-i(chi + pi) m} before
the convolution with that row. The forward model convolves each gauged
state with the row; the seed and the fit use the row as one Toeplitz matrix
from fit levels to data rows. Over evenly spaced phases, the phase-Fourier
transform of the data splits by diagonal of rho = psi psi^dagger:
D_l[d] = (-1)^d sum_m J_{l-m}(2 m_p) J_{l-m-d}(2 m_p) rho_{m,m+d}, as in the
SQUIRRELS reconstruction of attosecond electron pulse trains (Priebe et al.,
Nature Photonics 11, 793, 2017). Solving diagonals 0, 1 and 2 seeds a
nonlinear least-squares fit of the complex amplitudes against the forward
model; the seed is exact on noiseless data, and the fit stops once its cost,
at the shot-noise floor on noisy data, no longer drops. Random restarts run
only when that fit fails. The global phase is fixed afterwards by making the
largest amplitude real-positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import WindowError
from .ladder import LadderState, TruncationPolicy, bessel_row
from .qubit import QubitState, project_qubit

DEFAULT_PROBE_MAGNITUDE = 1.0
DEFAULT_N_PHASES = 32
DEFAULT_RESTARTS = 16
DEFAULT_FAIL_THRESHOLD = 0.05

_FIT_TOL = 1e-8
"""xtol, ftol and gtol of the fit (the stop rule is in ``reconstruct_state``).
A looser 1e-6 raised 1 - F by up to 5e-5 on noisy 9-level states."""


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


def _probe_row(probe_magnitude: float) -> np.ndarray:
    """J_k(2 m_p) for k = -K..K, the one cut of the probe's Bessel kernel.

    K is the smallest cut that drops at most 1e-24 probability per column.
    For the probe g = m_p e^{i chi} the kernel is e^{ik(chi + pi)} J_k(2 m_p),
    so each scan phase only gauges the state (``_gauge``) before it is
    convolved with this real row.
    """
    return bessel_row(2.0 * probe_magnitude, 1e-24)


def _gauge(scan_phases, n: int) -> np.ndarray:
    """e^{-i(chi_j + pi) m} for m = 0..n-1, one row per scan phase (one row
    alone for a single phase).

    sum_m e^{i(chi + pi)(l - m)} J_{l-m} psi_m is e^{i(chi + pi) l} times the
    convolution of the row with the gauged psi; the phase of level l drops
    out of |.|^2, and so does any shift of m.
    """
    return np.exp(-1j * np.multiply.outer(np.add(scan_phases, np.pi), np.arange(n)))


def spectrogram(state: LadderState, probe_magnitude: float = DEFAULT_PROBE_MAGNITUDE,
                n_phases: int = DEFAULT_N_PHASES) -> Spectrogram:
    """Forward model: probe-pulse-then-spectrum for each phase on a uniform grid."""
    if probe_magnitude <= 0:
        raise ValueError("probe magnitude must be > 0")
    if n_phases < 8:
        raise ValueError("need at least 8 scan phases")
    phases = 2.0 * np.pi * np.arange(n_phases) / n_phases
    row = _probe_row(probe_magnitude)
    k_half = row.size // 2
    data = np.empty((state.dim + 2 * k_half, n_phases), dtype=np.float64)
    for j, chi in enumerate(phases):
        data[:, j] = np.abs(np.convolve(_gauge(chi, state.dim) * state.amplitudes, row)) ** 2
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
    """(l_min, n_levels) of the fit: the whole data window for None or an
    adaptive policy, [-h, h] within the data window for fixed(h)."""
    if window is None or window.mode == "adaptive":
        return sg.l_min, sg.n_levels
    lo = max(sg.l_min, -window.half_width)
    hi = min(sg.l_min + sg.n_levels - 1, window.half_width)
    if lo > hi:
        raise WindowError("reconstruction window does not overlap the data window")
    return lo, hi - lo + 1


def _probe_matrix(sg: Spectrogram, fit_l_min: int, n_par: int) -> np.ndarray:
    """The probe row as a Toeplitz map from fit levels m to data rows l:
    entry (l, m) is J_{l-m}(2 m_p) within the row's cut and zero outside."""
    row = _probe_row(sg.probe_magnitude)
    k_half = row.size // 2
    lag = sg.indices[:, None] - np.arange(fit_l_min, fit_l_min + n_par)[None, :]
    return np.where(np.abs(lag) <= k_half, row[np.clip(lag + k_half, 0, row.size - 1)], 0.0)


def _fourier_seed(sg: Spectrogram, fit_l_min: int, n_par: int) -> np.ndarray:
    """Start amplitudes on the fit window from the phase-Fourier diagonals of the data.

    Level l at scan phase chi holds p_l(chi) = sum_{m,n} rho_{m,n}
    e^{i(chi + pi)(n - m)} J_{l-m}(2 m_p) J_{l-n}(2 m_p) with rho = psi psi^dagger,
    so D_l[d] = (1/N) sum_j p_l(chi_j) e^{-i d chi_j} = (-1)^d sum_m
    J_{l-m} J_{l-m-d} rho_{m,m+d} keeps diagonal d of rho alone when the N
    phases are evenly spaced and N is at least the state's width plus 2.
    D is formed from the recorded phases, not by an FFT over columns, so a
    spectrogram read with its own phase order gives the same seed. Diagonals
    0, 1 and 2 are solved by least squares against their real kernels;
    |psi_m| = sqrt(max(rho_mm, 0)), and each phase follows from the stronger
    of the links rho_{m-1,m}, rho_{m-2,m}, so a comb with empty odd levels
    still gets its phases. Noiseless, this is the state up to a global phase.
    """
    bess = _probe_matrix(sg, fit_l_min, n_par)  # J_{l-m}, (n_rows, n_par)
    diagonals = sg.data @ np.exp(-1j * np.outer(sg.scan_phases, np.arange(3))) / sg.n_phases
    pop, link1, link2 = (
        np.linalg.lstsq((-1) ** d * bess[:, :n_par - d] * bess[:, d:], diagonals[:, d],
                        rcond=None)[0]
        for d in range(3))

    # rho_{m-d,m} = psi_{m-d} conj(psi_m), so arg psi_m = arg psi_{m-d} - arg rho_{m-d,m}
    phase = np.zeros(n_par)
    for m in range(1, n_par):
        if m >= 2 and abs(link2[m - 2]) > abs(link1[m - 1]):
            phase[m] = phase[m - 2] - np.angle(link2[m - 2])
        else:
            phase[m] = phase[m - 1] - np.angle(link1[m - 1])
    return np.sqrt(np.clip(pop.real, 0.0, None)) * np.exp(1j * phase)


def reconstruct_state(sg: Spectrogram, window: TruncationPolicy | None = None,
                      n_restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                      fail_threshold: float = DEFAULT_FAIL_THRESHOLD
                      ) -> ReconstructionResult:
    """Least-squares fit of complex amplitudes to a spectrogram.

    Local optimization with an analytic Jacobian, started from the
    Fourier-diagonal seed: the phase-Fourier components D_l[d] of the data
    equal (-1)^d sum_m J_{l-m}(2 m_p) J_{l-m-d}(2 m_p) rho_{m,m+d} for evenly
    spaced phases, and solving d = 0, 1, 2 gives |psi_m| and the phase links
    (see ``_fourier_seed``). On noiseless data that seed is the answer and the
    fit ends on ``gtol``/``xtol`` at once. On noisy data the fit stops once a
    step lowers the cost by less than ``_FIT_TOL`` of it; at the optimum that
    cost is the shot-noise chi^2 / 2 ~ n_phases / (2 counts), so the residual
    ends near sqrt(n_phases / counts) and no steps are spent below that floor.
    Only when the first fit fails do random-phase starts with the seed's
    magnitudes follow, at most ``n_restarts`` starts in all: the
    loop stops at the first start whose residual (Frobenius mismatch between
    predicted and observed spectrograms) is <= ``fail_threshold``, and the
    lowest-cost start is kept (ties go to the earlier start), so the result
    is deterministic for a given seed. It is flagged not-ok when even that
    best residual exceeds ``fail_threshold``; the best candidate is still
    returned.

    The fit window follows ``window``: None or an adaptive policy fits every
    level of the data window, a fixed(h) policy fits [-h, h] within it and
    raises WindowError when the two do not overlap.
    """
    from scipy.optimize import least_squares

    if n_restarts < 1:
        raise ValueError("need at least one restart")
    fit_l_min, n_par = _fit_window(sg, window)
    bess = _probe_matrix(sg, fit_l_min, n_par)
    gauge = _gauge(sg.scan_phases, n_par)
    observed = sg.data.T  # (n_phases, n_rows)

    def mixed(x):
        # probed amplitudes on the data rows, one row per scan phase
        return (gauge * (x[:n_par] + 1j * x[n_par:])) @ bess.T

    def residuals(x):
        return (np.abs(mixed(x)) ** 2 - observed).ravel()

    def jacobian(x):
        # d|mixed|^2 / d(re, im) psi_m = 2 (re, -im) of conj(mixed) e^{-i(chi+pi)m} J_{l-m}
        weighted = np.conj(mixed(x))[:, :, None] * gauge[:, None, :]
        jac = np.empty(weighted.shape[:2] + (2, n_par))
        np.multiply(weighted.real, 2.0 * bess, out=jac[:, :, 0])
        np.multiply(weighted.imag, -2.0 * bess, out=jac[:, :, 1])
        return jac.reshape(-1, 2 * n_par)

    seed_psi = _fourier_seed(sg, fit_l_min, n_par)
    rng = np.random.default_rng(seed)

    best, best_index = None, 0
    for restart in range(n_restarts):
        if restart == 0:
            psi0 = seed_psi
        else:
            psi0 = np.abs(seed_psi) * np.exp(2j * np.pi * rng.random(n_par))
        x0 = np.concatenate([psi0.real, psi0.imag])
        fit = least_squares(residuals, x0, jac=jacobian, method="trf",
                            xtol=_FIT_TOL, ftol=_FIT_TOL, gtol=_FIT_TOL, max_nfev=300)
        if best is None or fit.cost < best.cost:
            best, best_index = fit, restart
        residual = math.sqrt(2.0 * best.cost)
        if residual <= fail_threshold:
            break

    psi = best.x[:n_par] + 1j * best.x[n_par:]
    anchor = int(np.argmax(np.abs(psi)))
    if abs(psi[anchor]) > 0:
        psi = psi * np.exp(-1j * np.angle(psi[anchor]))
    return ReconstructionResult(
        state=LadderState(fit_l_min, psi),
        residual=residual,
        ok=residual <= fail_threshold,
        restarts=restart + 1,
        best_restart=best_index,
        seed=seed,
    )


def readout_qubit(sg: Spectrogram, window: TruncationPolicy | None = None,
                  n_restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                  fail_threshold: float = DEFAULT_FAIL_THRESHOLD
                  ) -> tuple[QubitState, float]:
    """Reconstruct, then project: the comb qubit as a measurement result.

    The overall phase of (alpha, beta) inherits the reconstruction's fixed
    gauge and is not physical. ``window`` sets the fit window as in
    ``reconstruct_state``: the whole data window unless it is fixed(h).
    """
    result = reconstruct_state(sg, window, n_restarts, seed, fail_threshold)
    # fit-window edges bound the support; the interior-leakage check is moot here
    return project_qubit(result.state, edge_margin=0), result.residual
