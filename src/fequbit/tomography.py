"""Measurement chain: energy spectra, probe-phase spectrograms, reconstruction.

Populations |psi_l|^2 come straight from energy-loss spectroscopy; phases do
not. Scanning the phase chi of a second, known probe pulse of magnitude m_p
and recording a spectrum per phase gives interference data that pins the
phases too. The probe is one real Bessel row J_k(2 m_p), cut once by its
tail budget; a scan phase only gauges the state by e^{-i(chi + pi) m} before
the convolution with that row. There is one forward model: the probed
amplitudes of every scan phase are (gauge * psi) @ T^T, with T the row as a
Toeplitz map from levels to data rows (``_toeplitz``). ``spectrogram`` takes
that product over blocks of levels, the fit over its window. Over evenly
spaced phases, the phase-Fourier transform of the data splits by diagonal
of rho = psi psi^dagger:
D_l[d] = (-1)^d sum_m J_{l-m}(2 m_p) J_{l-m-d}(2 m_p) rho_{m,m+d}, as in the
SQUIRRELS reconstruction of attosecond electron pulse trains (Priebe et al.,
Nature Photonics 11, 793, 2017). Solving diagonals 0, 1 and 2 seeds a
Levenberg-Marquardt fit of the complex amplitudes against the forward model,
each step one damped solve of the normal equations, square in the number of
real unknowns. The seed is exact on noiseless data up to rounding; the fit
stops once its gradient, the cost drop of a step or the step itself falls
below a tolerance, on noisy data at the shot-noise floor. Random restarts run
only when that fit fails. The global phase is fixed afterwards by making the
largest amplitude real-positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError, WindowError
from .ladder import LadderState, TruncationPolicy, _as_index, bessel_row, read_text, write_text

DEFAULT_PROBE_MAGNITUDE = 1.0
DEFAULT_N_PHASES = 32
DEFAULT_RESTARTS = 16
FAIL_THRESHOLD = 0.05
"""Largest fit residual that counts as a successful reconstruction."""

MAX_COUNTS = 9.2e18
"""Largest counts per column ``add_shot_noise`` accepts: numpy's Poisson
sampler refuses a mean above about 9.2234e18 (near 2**63), and no cell of a
spectrogram's probabilities, each at most 1, asks for more than the column's
counts."""

MAX_FIT_CELLS = 2 ** 24
"""Most phases x data rows x fit levels one fit may take; ``reconstruct_state``
rejects a larger fit before it allocates, counting every data row as fit
levels for None and adaptive windows, which may fall back to them. A fit
holds its Jacobian and the complex factor it is formed from, 16 bytes per
cell each, from its first step to its last, and beside them the damped
step's square matrices of side 2 x fit levels. tracemalloc peaks of
whole-window fits, with the Jacobian held level-major, were 33.4-34.8 bytes
per cell at 32 phases (9 and 41 levels at probe 20, 201 levels at probe 1)
and 42.3 at 8 phases (201 levels), so 0.6-0.7 GB at the bound. A fit on the
state's own window holds less in all and more per cell: 0.65 MB, 58 bytes
per cell, for 9 levels at probe 1. A 2000-level state at 32 phases (1.3e8
cells) is rejected."""

MODEL_BLOCK_LEVELS = 64
"""Most state levels ``spectrogram`` takes into one product with the probe's
Toeplitz block; a wider state runs block after block. A block of w levels
multiplies w x (w + 2K) entries, 2K + 1 of them nonzero per level, so a wide
block wastes work and a narrow one pays more per-block overhead. 64 keeps
every ``readout`` state (at most 25 levels) and the 35-level ``H T H`` state
in one block. Against one ``np.convolve`` per phase, one BLAS thread, best
of 5 processes: 9 levels x 32 phases took 148 -> 51 us at probe 1 and
675 -> 224 us at probe 100, 35 x 32 195 -> 99 us, 401 x 1024 31.9 -> 27.4 ms,
1245 x 64 5.2 -> 4.7 ms at probe 1 and 18.4 -> 15.0 ms at probe 100, and
101 to 1601 levels x 32 phases 0.70-1.05x as long. Blocks of 96 and 128
levels took up to 1.17x and 1.25x as long as the convolution at 401-1601
levels; blocks of 36 were up to 1.15x, and 48 within noise of 64. The
tracemalloc peak was 1.6x the data's bytes at 1245 x 64 (3.4x at probe 100)
and 2.4x at 401 x 1024."""

_FIT_TOL = 1e-8
"""Tolerance of the fit's three stop rules (``_levenberg_marquardt``): the
gradient's largest entry, the relative cost drop of a taken step, and the
step length relative to the parameters. A looser 1e-6 raised 1 - F by up to
5e-5 on noisy 9-level states. The cost-drop rule stops on the first taken
step whose relative drop is below 1e-8; it does not bound the distance to
the optimum by 1e-8. Near the optimum of a noisy fit the steps converge
linearly, each lowering the cost by 1e-8 to 1e-7 of it, and such fits end
within about 1e-6 of the optimum in relative cost."""


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
        if not abs(p.sum() - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {float(p.sum())!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_min + self.probabilities.size)

    def to_json(self) -> dict:
        return {"l_min": self.l_min, "probabilities": self.probabilities.tolist()}


def eels_spectrum(state: LadderState) -> Spectrum:
    """Population spectrum p_l = |psi_l|^2 of a normalized state."""
    p = state.probabilities()
    if not abs(p.sum() - 1.0) <= 1e-9:
        raise ValueError(f"state norm^2 = {float(p.sum())!r}; spectra need normalized states")
    return Spectrum(state.l_min, p)


@dataclass(frozen=True)
class Spectrogram:
    """One population spectrum per probe scan phase (columns), shared window.

    ``counts_per_column`` is the electron count each column was drawn with
    (``add_shot_noise``), or None when it is not known; the CSV does not
    carry it.
    """

    scan_phases: np.ndarray = field(repr=False)
    l_min: int = 0
    data: np.ndarray = field(default=None, repr=False)  # (n_levels, n_phases)
    probe_magnitude: float = DEFAULT_PROBE_MAGNITUDE
    counts_per_column: float | None = None

    def __post_init__(self):
        phases = np.asarray(self.scan_phases, dtype=np.float64).copy()
        data = np.asarray(self.data, dtype=np.float64).copy()
        if data.ndim != 2 or data.shape[1] != phases.size:
            raise ValueError("data must be (n_levels, n_phases)")
        if not (np.isfinite(data).all() and np.isfinite(phases).all()):
            raise ValueError("data and scan phases must be finite")
        if phases.size == 0 or not 0.0 < self.probe_magnitude < math.inf:
            raise ValueError(f"needs a scan phase and a finite probe magnitude > 0, got "
                             f"{phases.size} phases and magnitude {self.probe_magnitude!r}")
        if self.counts_per_column is not None and not self.counts_per_column > 0:
            raise ValueError(f"counts per column must be > 0, got {self.counts_per_column!r}")
        phases.flags.writeable = False
        data.flags.writeable = False
        object.__setattr__(self, "scan_phases", phases)
        object.__setattr__(self, "data", data)

    @classmethod
    def _adopt(cls, scan_phases: np.ndarray, l_min: int, data: np.ndarray,
               probe_magnitude: float, counts_per_column: float | None = None
               ) -> "Spectrogram":
        """A spectrogram that takes over ``scan_phases`` and ``data``, float64
        arrays of matching shapes, finite, that no one else writes (a
        read-only array may be shared): they are made read-only, not checked
        or copied. ``spectrogram`` and ``add_shot_noise`` build theirs so."""
        scan_phases.flags.writeable = False
        data.flags.writeable = False
        sg = object.__new__(cls)
        for name, value in (("scan_phases", scan_phases), ("l_min", l_min), ("data", data),
                            ("probe_magnitude", probe_magnitude),
                            ("counts_per_column", counts_per_column)):
            object.__setattr__(sg, name, value)
        return sg

    @property
    def n_levels(self) -> int:
        return self.data.shape[0]

    @property
    def n_phases(self) -> int:
        return self.data.shape[1]

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_min + self.n_levels)

    def to_csv(self, path) -> None:
        """Header row: scan phases, then a probe row; data rows labeled by l.

        Each value is written as the ``repr`` of its Python float (from
        ``tolist``), the shortest text that reads back to the same float, so
        ``from_csv`` restores every bit.
        """
        lines = ["l," + ",".join(map(repr, self.scan_phases.tolist())),
                 "probe," + ",".join([repr(float(self.probe_magnitude))] * self.n_phases)]
        lines += [f"{l}," + ",".join(map(repr, values))
                  for l, values in enumerate(self.data.tolist(), self.l_min)]
        write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "Spectrogram":
        """Inverse of ``to_csv``; a malformed file raises ConfigurationError
        naming ``path``. The header must be labeled ``l`` and the next row
        ``probe``, with one equal magnitude per scan phase. Public because it
        reads back the ``spectrogram.csv`` that ``fequbit tomography`` writes."""
        lines = [ln.strip().split(",") for ln in read_text(path).splitlines() if ln.strip()]
        try:
            if lines[0][0] != "l" or lines[1][0] != "probe":
                raise ValueError("the first row must be labeled 'l' and the second 'probe'")
            phases = np.array([float(tok) for tok in lines[0][1:]])
            probes = {float(tok) for tok in lines[1][1:]}
            if len(lines[1]) - 1 != phases.size or len(probes) != 1:
                raise ValueError(f"the probe row needs {phases.size} equal magnitudes, one "
                                 f"per scan phase")
            probe = probes.pop()
            levels = [int(toks[0]) for toks in lines[2:]]
            rows = [[float(t) for t in toks[1:]] for toks in lines[2:]]
            if not levels or levels != list(range(levels[0], levels[0] + len(levels))):
                raise ValueError("level rows must be contiguous and ascending")
            if any(len(row) != phases.size for row in rows):
                raise ValueError(f"every level row needs {phases.size} values")
            return cls(phases, levels[0], np.asarray(rows), probe)
        except IndexError:
            raise ConfigurationError(f"{path}: needs a phase header and a probe value") from None
        except ValueError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None


def _probe_row(probe_magnitude: float) -> np.ndarray:
    """J_k(2 m_p) for k = -K..K, the one cut of the probe's Bessel kernel.

    K is the smallest cut that drops at most 1e-24 probability per column.
    For the probe g = m_p e^{i chi} the kernel is e^{ik(chi + pi)} J_k(2 m_p),
    so each scan phase only gauges the state (``_gauge``) before it is
    convolved with this real row.
    """
    return bessel_row(2.0 * probe_magnitude, 1e-24)


def _gauge(scan_phases, n: int, start: int = 0) -> np.ndarray:
    """e^{-i(chi_j + pi) m} for m = start..start+n-1, one row per scan phase.

    sum_m e^{i(chi + pi)(l - m)} J_{l-m} psi_m is e^{i(chi + pi) l} times the
    convolution of the row with the gauged psi; the phase of level l drops
    out of |.|^2, and so does any shift of m.
    """
    return np.exp(-1j * np.multiply.outer(np.add(scan_phases, np.pi), np.arange(start, start + n)))


def _toeplitz(row: np.ndarray, rows_l_min: int, n_rows: int, l_min: int, n: int) -> np.ndarray:
    """The probe row as a Toeplitz map from the n levels from l_min to the
    n_rows data rows from rows_l_min: entry (l, m) is J_{l-m}(2 m_p) within
    the row's cut and zero outside. Built as a C-contiguous copy of a strided
    view of one vector that holds the entry of every lag l - m, from the
    smallest up, so that row i is that vector's n entries from i, reversed:
    about 6 us against 15 us for an ``np.where`` over the lags at 55 x 25."""
    k_half = row.size // 2
    lowest = rows_l_min - l_min - (n - 1)
    lags = np.zeros(n_rows + n - 1)
    lo, hi = max(0, -k_half - lowest), min(lags.size, k_half - lowest + 1)
    if lo < hi:
        lags[lo:hi] = row[lo + lowest + k_half:hi + lowest + k_half]
    step = lags.strides[0]
    return as_strided(lags[n - 1:], (n_rows, n), (step, -step)).copy()


def spectrogram(state: LadderState, probe_magnitude: float = DEFAULT_PROBE_MAGNITUDE,
                n_phases: int = DEFAULT_N_PHASES) -> Spectrogram:
    """Forward model: probe-pulse-then-spectrum for each phase on a uniform grid.

    Column j is |row * (e^{-i(chi_j + pi) m} psi_m)|^2 for chi_j = 2 pi j /
    n_phases, with m counted from the state's first level. The probed
    amplitudes of all phases are the fit's own product (gauge * psi) @ T^T
    (see ``_fit``), taken over blocks of at most ``MODEL_BLOCK_LEVELS``
    levels: T depends only on l - m, so one Toeplitz block of w + 2K rows
    serves every block of w levels, and each block's product is added onto
    the 2K rows it shares with the blocks before it. A state of at most one
    block is one product, the very ``mixed`` of a fit on its own window, so
    its noiseless data are an exact zero of that fit's residuals.
    ``n_phases`` must be an integer of at least 8.
    """
    if probe_magnitude <= 0:
        raise ValueError("probe magnitude must be > 0")
    n_phases = _as_index(n_phases, "n_phases")
    if n_phases < 8:
        raise ValueError("need at least 8 scan phases")
    phases = 2.0 * np.pi * np.arange(n_phases) / n_phases
    row = _probe_row(probe_magnitude)
    span = row.size - 1  # 2K rows past a block's last level
    width = min(state.dim, MODEL_BLOCK_LEVELS)
    block = _toeplitz(row, -(span // 2), width + span, 0, width)
    data = np.empty((state.dim + span, n_phases), dtype=np.float64)
    shared = None  # the probed amplitudes the earlier blocks put on the next block's rows
    for start in range(0, state.dim, width):
        w = min(width, state.dim - start)
        gauged = _gauge(phases, w, start) * state.amplitudes[start:start + w]
        mixed = gauged @ block[:w + span, :w].T
        if shared is not None:
            mixed[:, :span] += shared
        done = w if start + w < state.dim else w + span
        np.square(np.abs(mixed[:, :done]).T, out=data[start:start + done])
        shared = mixed[:, w:]
    return Spectrogram._adopt(phases, state.l_min - span // 2, data, probe_magnitude)


def add_shot_noise(sg: Spectrogram, counts_per_column: float, seed: int = 0) -> Spectrogram:
    """Poisson counting noise, independent per (level, phase), renormalized per column.

    ``counts_per_column`` must be in [0, ``MAX_COUNTS``], else ValueError. A
    column in which no electron was counted is not a spectrum: it raises
    ConfigurationError rather than pass on as an all-zero column that a fit
    would match with the zero state.
    """
    if not 0 <= counts_per_column <= MAX_COUNTS:
        raise ValueError(f"counts_per_column must be in [0, {MAX_COUNTS:.2g}], "
                         f"got {counts_per_column!r}")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(sg.data * counts_per_column).astype(np.float64)
    totals = counts.sum(axis=0)
    empty = int(np.count_nonzero(totals == 0.0))
    if empty:
        raise ConfigurationError(
            f"{empty} of {totals.size} spectrogram columns counted no electron at "
            f"{counts_per_column:g} counts per column; raise the counts")
    return Spectrogram._adopt(sg.scan_phases, sg.l_min, counts / totals, sg.probe_magnitude,
                              counts_per_column)


@dataclass(frozen=True)
class ReconstructionResult:
    state: LadderState
    residual: float
    ok: bool
    restarts: int
    best_restart: int
    seed: int

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "state": self.state.to_json()}


def _fit_window(sg: Spectrogram, window: TruncationPolicy | None,
                row: np.ndarray | None = None) -> tuple[int, int]:
    """(l_min, n_levels) of the fit; fixed(h) gives [-h, h] within the data window.

    None or an adaptive policy gives the levels whose whole image lies in the
    data window, [l_min + K, l_max - K] for the probe row's half-width K: the
    window ``spectrogram`` recorded the state on. A side is narrowed only when
    its outermost data row holds at most row[0]^2 + 0.5e-24 in every column.
    Only the cut row's outermost entry links that row to the narrowed window,
    so by Cauchy-Schwarz that is the most a normalized state inside it can put
    there; a spectrogram cropped closer to the state keeps that side's data
    edge. An empty narrowed range gives the whole data window. ``row`` is
    ``_probe_row`` of the spectrogram's probe, formed here when not given.
    """
    l_max = sg.l_min + sg.n_levels - 1
    if window is None or window.mode == "adaptive":
        row = _probe_row(sg.probe_magnitude) if row is None else row
        k_half, bound = row.size // 2, row[0] ** 2 + 0.5e-24
        lo = sg.l_min + k_half if np.all(sg.data[0] <= bound) else sg.l_min
        hi = l_max - k_half if np.all(sg.data[-1] <= bound) else l_max
        return (lo, hi - lo + 1) if lo <= hi else (sg.l_min, sg.n_levels)
    lo = max(sg.l_min, -window.half_width)
    hi = min(l_max, window.half_width)
    if lo > hi:
        raise WindowError("reconstruction window does not overlap the data window")
    return lo, hi - lo + 1


def _probe_matrix(sg: Spectrogram, fit_l_min: int, n_par: int,
                  row: np.ndarray | None = None) -> np.ndarray:
    """``_toeplitz`` from the n_par fit levels from fit_l_min to the data rows
    of ``sg``. ``row`` is ``_probe_row`` of the spectrogram's probe, formed
    here when not given."""
    row = _probe_row(sg.probe_magnitude) if row is None else row
    return _toeplitz(row, sg.l_min, sg.n_levels, fit_l_min, n_par)


def _fourier_seed(sg: Spectrogram, bess: np.ndarray, imaged: bool = True) -> np.ndarray:
    """Start amplitudes on the fit window from the phase-Fourier diagonals of the data.

    ``bess`` is ``_probe_matrix`` on the fit window, J_{l-m} of shape
    (n_rows, n_par); ``imaged`` says that every fit level's whole image,
    levels m - K..m + K for the probe row's half-width K, lies in the data
    rows, as on the window ``_fit_window`` narrows to.

    Level l at scan phase chi holds p_l(chi) = sum_{m,n} rho_{m,n}
    e^{i(chi + pi)(n - m)} J_{l-m}(2 m_p) J_{l-n}(2 m_p) with rho = psi psi^dagger,
    so D_l[d] = (1/N) sum_j p_l(chi_j) e^{-i d chi_j} = (-1)^d sum_m
    J_{l-m} J_{l-m-d} rho_{m,m+d} keeps diagonal d of rho alone when the N
    phases are evenly spaced and N is at least the state's width plus 2.
    D is formed from the recorded phases, not by an FFT over columns, so a
    spectrogram read with its own phase order gives the same seed. Diagonals
    0, 1 and 2 are solved by least squares against their real kernels M_d;
    |psi_m| = sqrt(max(rho_mm, 0)), and each phase follows from the stronger
    of the links rho_{m-1,m}, rho_{m-2,m}, so a comb with empty odd levels
    still gets its phases. Noiseless, this is the state up to a global phase.

    On an imaged window each diagonal is the solve of its small normal system
    M_d^T M_d x = M_d^T D[d], a third of ``lstsq``'s time there; M_d had
    cond <= 300 on 9- and 41-level states at probes 1e-14 to 100, and below
    3e4 at 401 levels. Diagonal d is unobservable when d > 2K: no two entries
    of the cut row lie d apart, so M_d is zero (at K = 0, probes below about
    7e-13, for d = 1 and 2), and it is taken as zero, the answer ``lstsq``
    gives. A window whose edge levels' images leave the data rows, such as
    the whole data window of the fallback fit, keeps ``lstsq``: those levels
    are barely constrained, and M_d reached cond 1e18 at probe 100.
    """
    n_par = bess.shape[1]
    diagonals = sg.data @ np.exp(-1j * np.outer(sg.scan_phases, np.arange(3))) / sg.n_phases

    def solve(d):
        kernel = (-1) ** d * bess[:, :n_par - d] * bess[:, d:]
        if not imaged:
            return np.linalg.lstsq(kernel, diagonals[:, d], rcond=None)[0]
        if not kernel.any():  # d > 2K
            return np.zeros(kernel.shape[1], dtype=np.complex128)
        return np.linalg.solve(kernel.T @ kernel, kernel.T @ diagonals[:, d])

    pop, link1, link2 = map(solve, range(3))

    # rho_{m-d,m} = psi_{m-d} conj(psi_m), so arg psi_m = arg psi_{m-d} - arg rho_{m-d,m};
    # the arguments and the link comparison are taken as arrays, the chain on Python floats
    arg1, arg2 = np.angle(link1).tolist(), np.angle(link2).tolist()
    second = (np.abs(link2) > np.abs(link1[1:])).tolist()  # rho_{m-2,m} the stronger link
    phase = [0.0]
    for m in range(1, n_par):
        phase.append(phase[m - 2] - arg2[m - 2] if m >= 2 and second[m - 2]
                     else phase[m - 1] - arg1[m - 1])
    return np.sqrt(np.clip(pop.real, 0.0, None)) * np.exp(1j * np.array(phase))


def _levenberg_marquardt(residuals, jacobian, x0: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize cost = |residuals(x)|^2 / 2 from ``x0``; return (x, cost).

    Levenberg-Marquardt on the normal equations (Marquardt, SIAM J. Appl.
    Math. 11, 431, 1963): with A = J^T J and g = J^T r at x, solve
    (A + lam diag A) step = -g, a square system of the size of x. A step
    that lowers the cost is taken and lam divided by 3; otherwise lam is
    multiplied by 4 and the step solved again from the same A and g. A null
    direction of A (the global phase of the amplitudes) is held by the
    damping. diag A is floored at eps of its largest entry, so a parameter
    that no residual depends on keeps the system solvable with a zero step.
    The fit stops on the first of: |g|_inf < ``_FIT_TOL``; a taken step that
    lowers the cost by less than ``_FIT_TOL`` of it; a step shorter than
    ``_FIT_TOL`` (|x| + ``_FIT_TOL``); 300 evaluations of ``residuals``.

    ``jacobian`` may return a transposed view: ``_fit`` holds J level-major,
    (re, im) x levels by rows, and returns its transpose, so J^T is
    C-contiguous and J^T J and J^T r run on it as stored. ``jacobian`` is
    called at the start point and after each taken step, each time with the
    very array the latest ``residuals`` call got, so it may reuse what that
    call formed.
    """
    x, r = x0, residuals(x0)
    cost = 0.5 * float(r @ r)
    if not math.isfinite(cost):
        raise ValueError("residuals are not finite at the start point")
    lam, taken, eps = 1e-3, True, np.finfo(float).eps
    for _ in range(299):
        if taken:
            jac = jacobian(x)
            g = jac.T @ r
            if np.max(np.abs(g)) < _FIT_TOL:
                break
            a = jac.T @ jac  # formed only for a step
            del jac  # not held while the next one is built
            diagonal = a.diagonal().copy()
            scale = np.maximum(diagonal, eps * diagonal.max())
        a.flat[::len(a) + 1] = diagonal + lam * scale  # damped in place, no square temporary
        step = np.linalg.solve(a, -g)
        x_trial = x + step
        r_trial = residuals(x_trial)
        trial_cost = 0.5 * float(r_trial @ r_trial)
        taken = trial_cost < cost
        done = (taken and cost - trial_cost < _FIT_TOL * cost
                or np.linalg.norm(step) < _FIT_TOL * (np.linalg.norm(x) + _FIT_TOL))
        if taken:
            x, r, cost, lam = x_trial, r_trial, trial_cost, lam / 3
        else:
            lam *= 4
        if done:
            break
    return x, cost


def reconstruct_state(sg: Spectrogram, window: TruncationPolicy | None = None,
                      n_restarts: int = DEFAULT_RESTARTS, seed: int = 0
                      ) -> ReconstructionResult:
    """Least-squares fit of complex amplitudes to a spectrogram.

    Levenberg-Marquardt steps (``_levenberg_marquardt``) with an analytic
    Jacobian, started from the Fourier-diagonal seed: the phase-Fourier
    components D_l[d] of the data equal (-1)^d sum_m J_{l-m}(2 m_p)
    J_{l-m-d}(2 m_p) rho_{m,m+d} for evenly spaced phases, and solving
    d = 0, 1, 2 gives |psi_m| and the phase links (see ``_fourier_seed``). On
    noiseless data that seed is the answer up to rounding: the fit ends at
    once on its gradient rule, or after one step that removes the rounding
    the seed's square roots leave on empty levels. On noisy data the fit
    stops once a step lowers the cost by less than ``_FIT_TOL`` of it or
    moves the amplitudes by less than ``_FIT_TOL`` of their norm; at the
    optimum that cost is the shot-noise chi^2 / 2 ~ n_phases / (2 counts), so
    the residual ends near sqrt(n_phases / counts) and no steps are spent
    below that floor.
    Only when the first fit fails do random-phase starts with the seed's
    magnitudes follow, at most ``n_restarts`` starts in all: the
    loop stops at the first start whose residual (Frobenius mismatch between
    predicted and observed spectrograms) is <= ``FAIL_THRESHOLD`` (0.05), and
    the lowest-cost start is kept (ties go to the earlier start), so the
    result is deterministic for a given seed. It is flagged not-ok when even
    that best residual exceeds ``FAIL_THRESHOLD``; the best candidate is
    still returned.

    The fit window follows ``window`` (``_fit_window``). A fixed(h) policy
    fits [-h, h] within the data window and raises WindowError when the two
    do not overlap. None or an adaptive policy first fits the levels the
    data window fully images, which for a spectrogram this module made is
    the state's own window, from the seeded start alone. If that fit is not
    ok, the procedure above runs on every data row, as it does when nothing
    can be narrowed, and its result does not depend on the narrowed try.
    The try is skipped when the spectrogram's recorded counts put the noise
    floor sqrt(n_phases / counts) above ``FAIL_THRESHOLD``: no start can be
    ok there, so it would only add a fit. A fit of more than
    ``MAX_FIT_CELLS`` phases x data rows x fit levels raises
    ConfigurationError before anything is allocated; for None and adaptive
    policies the fit levels are every data row, which the fallback fits.
    """
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    row = _probe_row(sg.probe_magnitude)
    fit_l_min, n_par = _fit_window(sg, window, row)
    widest = n_par if window is not None and window.mode == "fixed" else sg.n_levels
    if sg.n_phases * sg.n_levels * widest > MAX_FIT_CELLS:
        raise ConfigurationError(
            f"a fit of {sg.n_phases} phases x {sg.n_levels} data rows x {widest} levels "
            f"exceeds {MAX_FIT_CELLS} cells; use fewer phases or a narrower state or probe")
    if n_par < widest:
        if (sg.counts_per_column is None
                or sg.n_phases / sg.counts_per_column <= FAIL_THRESHOLD ** 2):
            narrowed = _fit(sg, row, fit_l_min, n_par, 1, seed)
            if narrowed.ok:
                return narrowed
        fit_l_min, n_par = sg.l_min, sg.n_levels
    return _fit(sg, row, fit_l_min, n_par, n_restarts, seed)


def _fit(sg: Spectrogram, row: np.ndarray, fit_l_min: int, n_par: int, n_restarts: int,
         seed: int) -> ReconstructionResult:
    """``reconstruct_state``'s starts on the n_par levels from fit_l_min, with
    ``row`` the spectrogram's ``_probe_row``."""
    bess = _probe_matrix(sg, fit_l_min, n_par, row)
    gauge = _gauge(sg.scan_phases, n_par)
    observed = sg.data.T  # (n_phases, n_rows)
    # the Jacobian level-major and its complex factor, filled in place at every taken step
    weighted = np.empty((n_par, sg.n_phases, sg.n_levels), dtype=np.complex128)
    jac_t = np.empty((2, n_par, sg.n_phases, sg.n_levels))
    conj_gauge_t, two_bess_t = np.conj(gauge).T[:, :, None], 2.0 * bess.T[:, None, :]
    last = [None, None]  # the x the latest residuals saw, and its mixed

    def mixed(x):
        # probed amplitudes on the data rows, one row per scan phase
        return (gauge * (x[:n_par] + 1j * x[n_par:])) @ bess.T

    def residuals(x):
        last[:] = x, mixed(x)
        return (np.abs(last[1]) ** 2 - observed).ravel()

    def jacobian(x):
        # d|mixed|^2 / d(re, im) psi_m = 2 (re, -im) of conj(mixed) e^{-i(chi+pi)m} J_{l-m},
        # which is (re, im) of mixed e^{i(chi+pi)m} 2 J_{l-m}: formed as one complex
        # product per level m, whose real and imaginary parts are then copied apart.
        # At a taken step x is the very array the trial's residuals saw.
        np.multiply(last[1] if last[0] is x else mixed(x), conj_gauge_t, out=weighted)
        np.multiply(weighted, two_bess_t, out=weighted)
        np.copyto(jac_t[0], weighted.real)
        np.copyto(jac_t[1], weighted.imag)
        return jac_t.reshape(2 * n_par, -1).T

    k_half = row.size // 2
    imaged = sg.l_min + k_half <= fit_l_min <= sg.l_min + sg.n_levels - n_par - k_half
    seed_psi = _fourier_seed(sg, bess, imaged)
    rng = np.random.default_rng(seed)

    best_x, best_cost, best_index = None, math.inf, 0
    for restart in range(n_restarts):
        if restart == 0:
            psi0 = seed_psi
        else:
            psi0 = np.abs(seed_psi) * np.exp(2j * np.pi * rng.random(n_par))
        x, cost = _levenberg_marquardt(residuals, jacobian,
                                       np.concatenate([psi0.real, psi0.imag]))
        if cost < best_cost:
            best_x, best_cost, best_index = x, cost, restart
        residual = math.sqrt(2.0 * best_cost)
        if residual <= FAIL_THRESHOLD:
            break

    psi = best_x[:n_par] + 1j * best_x[n_par:]
    anchor = int(np.argmax(np.abs(psi)))
    if abs(psi[anchor]) > 0:
        psi = psi * np.exp(-1j * np.angle(psi[anchor]))
    return ReconstructionResult(
        state=LadderState(fit_l_min, psi),
        residual=residual,
        ok=residual <= FAIL_THRESHOLD,
        restarts=restart + 1,
        best_restart=best_index,
        seed=seed,
    )

