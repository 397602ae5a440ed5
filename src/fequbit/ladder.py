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
import operator
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

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

ADAPTIVE_START_HALF_WIDTH = 8
"""Half-width of the window a state starts on under an adaptive policy."""


def _as_index(value, what: str) -> int:
    """``value`` as a Python int, by ``operator.index``; anything that is no
    integer, such as 1.5 or 2.0, raises ValueError naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, replacing any file there.

    An existing file is unlinked and a new one created, never truncated in
    place: on ext4, truncating a file written moments earlier and writing it
    again stalled ~50 ms per write, while unlink-then-create costs what a
    fresh write does. Nothing is fsynced. Every file the package writes goes
    through here.
    """
    Path(path).unlink(missing_ok=True)
    with open(path, "x", encoding="utf-8") as fh:
        fh.write(text)


def read_text(path, error: type[Exception] = ConfigurationError) -> str:
    """The UTF-8 text of the file at ``path``; other bytes raise ``error``
    naming the file. Every file the package reads goes through here, and a
    missing or unreadable file raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 ({exc})") from None


def read_json(path):
    """The JSON document in the file at ``path``. Text that is not UTF-8, not
    JSON or nested too deep for the parser raises ConfigurationError naming
    the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int of > 4300 digits
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None


@dataclass(frozen=True)
class TruncationPolicy:
    """Window-sizing rule for ladder states: a mode and, if fixed, a half-width.

    ``fixed(L)`` always uses the symmetric window [-L, L] and never grows it;
    a pulse result that carries more than ``LEAKAGE_TOL`` probability within
    ``DEFAULT_EDGE_MARGIN`` cells of its edge is rejected. ``adaptive`` lets
    every pulse result take the whole support of its Bessel kernels, each cut
    by its own tail budget (``operators.pinem_kernel``), plus
    ``DEFAULT_EDGE_MARGIN`` zero guard cells per side. The result is then
    trimmed back to its support: each end drops the cells holding at most
    ``operators.CHEBYSHEV_TAIL_TOL / 2`` in summed |amplitude|, less
    ``DEFAULT_EDGE_MARGIN`` guard cells, so one trim moves the state by at
    most CHEBYSHEV_TAIL_TOL in l1 norm. No pulse window is sized by a margin:
    each is the support its kernels' tail budgets give. An adaptive state
    starts on [-ADAPTIVE_START_HALF_WIDTH, ADAPTIVE_START_HALF_WIDTH]
    (``basis_state``). Fits read the policy too (``tomography._fit_window``):
    fixed(L) fits [-L, L] within the data window, and adaptive, like None,
    fits the levels the spectrogram fully images, [l_min + K, l_max - K] for
    the probe row's half-width K, falling back to every data row when that
    fit is not ok.

    ``edge_margin`` and ``leakage_tol`` are class attributes, not fields:
    every policy carries ``DEFAULT_EDGE_MARGIN`` and ``LEAKAGE_TOL``. The
    package and its tests read those constants themselves; only perfbench
    reads the attributes, and ROADMAP item 6 deletes them. A ``half_width``
    that is no integer raises ValueError, and so does any ``half_width`` given
    to an adaptive policy, which would otherwise ignore it.
    """

    mode: str = "adaptive"
    half_width: int | None = None
    edge_margin = DEFAULT_EDGE_MARGIN
    leakage_tol = LEAKAGE_TOL

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown truncation mode {self.mode!r}")
        if self.mode == "adaptive" and self.half_width is not None:
            raise ValueError("adaptive mode takes no half_width")
        if self.half_width is not None:
            object.__setattr__(self, "half_width", _as_index(self.half_width, "half_width"))
        if self.mode == "fixed" and (self.half_width is None or self.half_width < 1):
            raise ValueError("fixed mode needs a positive half_width")

    @classmethod
    def fixed(cls, half_width: int) -> "TruncationPolicy":
        return cls(mode="fixed", half_width=half_width)

    @classmethod
    def adaptive(cls) -> "TruncationPolicy":
        return cls(mode="adaptive")


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
        if amps.ndim != 1 or amps.size == 0 or not np.isfinite(amps).all():
            raise ValueError("amplitudes must be a non-empty 1-d array of finite numbers")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _adopt(cls, l_min: int, amps: np.ndarray) -> "LadderState":
        """A state that takes over ``amps``, a non-empty 1-d complex128 array
        (or a view of one) that no one else holds: it is made read-only, not
        checked or copied."""
        amps.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "l_min", l_min)
        object.__setattr__(state, "amplitudes", amps)
        return state

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_min + self.dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def trimmed(self) -> "LadderState":
        """Drop probability-free window edges: cells of probability <= 1e-18.

        An all-empty state keeps the one cell nearest level 0.
        """
        keep = np.flatnonzero(np.abs(self.amplitudes) ** 2 > 1e-18)
        if keep.size == 0:
            center = min(max(-self.l_min, 0), self.dim - 1)
            return LadderState(self.l_min + center, self.amplitudes[center:center + 1])
        return LadderState(self.l_min + int(keep[0]),
                           self.amplitudes[keep[0]:keep[-1] + 1])

    def to_json(self) -> dict:
        """``l_min`` and one [re, im] pair of Python floats per amplitude."""
        return {
            "l_min": self.l_min,
            "amplitudes": self.amplitudes.view(np.float64).reshape(-1, 2).tolist(),
        }

    @classmethod
    def from_json(cls, obj, source: str = "state") -> "LadderState":
        """Inverse of ``to_json``, and the whole check of a state document.

        ``l_min`` must be an integer with |l_min| <= 2**62, so that level
        indices stay within int64, and ``amplitudes`` a non-empty list of
        [re, im] pairs of finite numbers; a bool is no number here. Any other
        document raises ConfigurationError, its message led by ``source``.
        The norm is not checked.
        """
        if not isinstance(obj, dict) or not {"l_min", "amplitudes"} <= obj.keys():
            raise ConfigurationError(f"{source}: expected an object with 'l_min' and 'amplitudes'")
        l_min, pairs = obj["l_min"], obj["amplitudes"]
        if not isinstance(l_min, int) or isinstance(l_min, bool) or abs(l_min) > 2 ** 62:
            raise ConfigurationError(
                f"{source}: l_min must be an integer within +-2**62, got {l_min!r}")
        if not (isinstance(pairs, list) and pairs and all(
                isinstance(pair, list) and len(pair) == 2 and all(map(_is_finite_number, pair))
                for pair in pairs)):
            raise ConfigurationError(
                f"{source}: amplitudes must be a non-empty list of [re, im] finite numbers")
        return cls(l_min, np.array([complex(re, im) for re, im in pairs], dtype=np.complex128))

    def dump(self, path) -> None:
        write_text(path, json.dumps(self.to_json()))

    @classmethod
    def load(cls, path) -> "LadderState":
        """Read a state file; a malformed one raises ConfigurationError naming it."""
        return cls.from_json(read_json(path), f"state file {path}")


def _aligned(amps: np.ndarray, l_min: int, target_l_min: int, target_dim: int) -> np.ndarray:
    """Crop/zero-pad a raw amplitude array onto a target window; a target
    inside the array's own window is a view of ``amps``, not a copy."""
    start = target_l_min - l_min
    if 0 <= start and start + target_dim <= amps.size:
        return amps[start:start + target_dim]
    out = np.zeros(target_dim, dtype=np.complex128)
    src_lo = max(l_min, target_l_min)
    src_hi = min(l_min + amps.size, target_l_min + target_dim)
    if src_lo < src_hi:
        out[src_lo - target_l_min:src_hi - target_l_min] = amps[src_lo - l_min:src_hi - l_min]
    return out


def _is_finite_number(x) -> bool:
    # an int beyond the float range compares as one, without a conversion
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def basis_state(l: int, window: TruncationPolicy | int = DEFAULT_POLICY) -> LadderState:
    """Single-level state |l> on a symmetric window.

    ``window`` is either a half-width or a policy: ``half_width`` for a fixed
    policy, ``ADAPTIVE_START_HALF_WIDTH`` for an adaptive one. The window must
    contain ``l``; a level or half-width that is no integer raises ValueError.
    """
    if isinstance(window, TruncationPolicy):
        half = window.half_width if window.mode == "fixed" else ADAPTIVE_START_HALF_WIDTH
    else:
        half = _as_index(window, "window half-width")
    l = _as_index(l, "level")
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
    state's own (then probability-free) storage window. Nothing in the
    package calls it, only tests and perfbench's ``ladder.window_bloat``
    metric; ROADMAP item 6 deletes it with that metric.
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
    # np.add.reduce is np.sum without its dispatch, and m * m is what ** 2 computes
    head, tail = np.abs(state.amplitudes[:edge_margin]), np.abs(state.amplitudes[-edge_margin:])
    return float(np.add.reduce(head * head) + np.add.reduce(tail * tail))


def check_edge_leakage(state: LadderState, edge_margin: int, leakage_tol: float) -> None:
    """Raise TruncationError if more than ``leakage_tol`` probability lies
    within ``edge_margin`` cells (fewer on narrow windows) of either end."""
    margin = min(edge_margin, (state.dim - 1) // 2)
    leak = support_leakage(state, margin)
    if leak > leakage_tol:
        raise TruncationError(
            f"probability {leak:.3e} within {margin} cells of the window edge "
            f"exceeds {leakage_tol:.1e}; enlarge the window")


def _miller(x: float, n: int) -> list[float]:
    """J_0(x) .. J_n(x) by Miller's backward recurrence, for x > 0.

    J_{k-1} = (2k / x) J_k - J_{k+1} runs down from J_{n+1} = 0, J_n = 1,
    scaled by 1e-250 whenever a value passes 1e250, and the row is normalised
    with J_0 + 2 sum_{m>=1} J_{2m} = 1.
    """
    t = 2.0 / x
    vals = [0.0] * (n + 1)
    vals[n] = j = 1.0
    j_up = 0.0
    for k in range(n, 0, -1):
        j, j_up = k * t * j - j_up, j
        if abs(j) > 1e250:
            j *= 1e-250
            j_up *= 1e-250
            vals[k:] = [v * 1e-250 for v in vals[k:]]
        vals[k - 1] = j
    scale = 1.0 / (j + 2.0 * sum(vals[2::2]))
    return [v * scale for v in vals]


def _start_order(x: float, budget: float) -> int:
    """The order n at which ``_miller`` starts for J_k(x), x > 0.

    n is the first order, or the one after it, where the bound
    |J_n(x)| <= (x/2)^n / n! reaches sqrt(1e-6 * budget), and never above
    the cap ceil(x) + 20 + 14 x^(1/3), an order past the turnover at k ~ x
    beyond which J_k(x) falls ever faster. Where the bound at the cap, taken
    in logarithms, still exceeds the threshold, n is the cap. Otherwise a
    running product finds n: it starts at n = ceil(e x / 2) from
    1 / sqrt(2 pi n), at least the bound there (n! >= sqrt(2 pi n) (n / e)^n),
    and multiplies by (x/2) / n per order, so it never undercuts the bound.
    Below e x / 2 the bound exceeds 1 / (e sqrt(n)), far above any threshold.
    """
    half = 0.5 * x
    cap = math.ceil(x) + 20 + int(14.0 * x ** (1.0 / 3.0))
    threshold = math.sqrt(1e-6 * budget)
    if cap * math.log(half) - math.lgamma(cap + 1.0) > math.log(threshold):
        return cap
    n = math.ceil(math.e * half)
    bound = 1.0 / math.sqrt(2.0 * math.pi * n)
    while bound > threshold and n < cap:
        n += 1
        bound *= half / n
    return n


def _bessel_half(x: float, budget: float) -> list[float]:
    """J_0(x) .. J_K(x) as Python floats, with K and ``budget`` as in ``bessel_row``.
    An x that is not finite raises ValueError."""
    if not 1e-100 <= budget <= 1e-8:
        raise ValueError(f"Bessel tail budget {budget!r} outside [1e-100, 1e-8]")
    x = abs(float(x))
    if not math.isfinite(x):
        raise ValueError(f"Bessel argument {x!r} is not finite")
    if 0.5 * x * x <= budget:
        return [1.0 - 0.25 * x * x]
    n = _start_order(x, budget)
    j = _miller(x, n)
    while j[n] * j[n] > 1e-6 * budget:
        n += n - math.ceil(x)  # double the margin past the turnover
        j = _miller(x, n)
    tail = 0.0
    for k in range(n, 0, -1):
        tail += j[k] * j[k]
        if 2.0 * tail > budget:
            return j[:k + 1]
    return j[:1]


def _bessel_half_block(x: np.ndarray, n: np.ndarray, budget: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_bessel_half`` for many arguments at once, bit for bit: (j, cut, ok).

    ``x`` holds finite arguments with 0.5 x^2 > budget, ``n`` their
    ``_start_order``. ``_miller``'s recurrence runs on all of them together,
    one order per step, each argument from its own n: until then it holds
    J = 0, which every step keeps at exactly 0.0. Each step is the scalar
    one, k * t * j - j_up, on arrays. Each argument's even orders up to its
    n are summed by Python's ``sum``, as ``_miller`` sums them, and its tail
    by a running sum from the top order down, as ``_bessel_half`` adds it,
    through zeros above n that leave it as it is. j[k, i] is J_k(x[i]),
    cut[i] the K that ``_bessel_half`` gives x[i], and ok[i] is False where
    ``_bessel_half`` would rescale by 1e-250 or restart from a higher order:
    those arguments need ``_bessel_half`` itself.
    """
    t, top, cols = 2.0 / x, int(n.max()), np.arange(x.size)
    vals = np.zeros((top + 1, x.size))
    j, j_up = np.zeros(x.size), np.zeros(x.size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # such rows are not ok
        for k in range(top, 0, -1):
            j[n == k] = 1.0
            j, j_up = k * t * j - j_up, j
            vals[k - 1] = j
        vals[n, cols] = 1.0  # the starts, which the steps above stored as 0.0
        ok = (np.abs(vals) <= 1e250).all(axis=0)
        evens = [sum(row[:m // 2]) for row, m in zip(vals[2::2].T.tolist(), n.tolist())]
        vals *= 1.0 / (j + 2.0 * np.array(evens))
        j_n = vals[n, cols]
        ok &= ~(j_n * j_n > 1e-6 * budget)
        tail = np.add.accumulate(vals[:0:-1] * vals[:0:-1], axis=0)  # orders top, top - 1, .., 1
    return vals, np.count_nonzero(2.0 * tail > budget, axis=0), ok


def bessel_row(x: float, budget: float) -> np.ndarray:
    """J_k(x) for k = -K..K, with K the smallest cut where 2 sum_{k>K} J_k(x)^2 <= budget.

    That sum is the probability a Bessel kernel cut to -K..K drops. It is
    accumulated from the far end of the row, so no term near 1 is ever
    subtracted from it. When 2 (x/2)^2 <= budget, which bounds the sum for
    K = 0, the row is [J_0(x)] = [1 - x^2/4]. Otherwise ``_miller``
    evaluates the row down from the order n where the bound
    |J_n(x)| <= (x/2)^n / n! first reaches sqrt(1e-6 * budget), or the order
    after it, and never from above ceil(x) + 20 + 14 x^(1/3)
    (``_start_order``); n grows until J_n(x)^2 <= 1e-6 * budget, so the
    terms beyond n are negligible. The start J_{n+1} = 0 moves order k by
    about n J_n(x)^2 |Y_k(x)|, measured at most 7.4e-5 sqrt(budget) for
    budgets 1e-22 to 1e-8 (a ten-thousandth of the dropped tail's l2 norm).
    At the budgets in use, 1e-24 and ``operators.CHEBYSHEV_TAIL_TOL`` ^2 / 8,
    the row errs by rounding alone: measured, by at most 2.5e-16 against the
    mpmath series up to x = 50 and 3.1e-16 at x = 500, three orders under
    the 1e-13 amplitude budget. The negative orders are J_{-k} = (-1)^k J_k.
    ``budget`` must lie in [1e-100, 1e-8]: there 1 - x^2/4 is J_0 to
    rounding, and no step of the recurrence overflows between rescales. This
    is the one place a Bessel row is evaluated and cut; ``_bessel_half``
    gives its orders 0..K, and ``_bessel_half_block`` reproduces their bits
    for many arguments at once. An x that is not finite raises ValueError.
    """
    j = _bessel_half(x, budget)
    left = j[:0:-1]
    left[-1::-2] = [-v for v in left[-1::-2]]  # the odd orders -1, -3, ...
    return np.array(left + j)


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
    def quarter_length_m(self) -> float:
        return self.z_d / 4.0

    def to_json(self) -> dict:
        return asdict(self)


def derive_beam(kinetic_energy_ev: float, laser_wavelength_m: float,
                delta_e_ev: float = 0.0) -> BeamParameters:
    """Relativistic kinematics and the dispersion length for a beam + laser pair.

    z_D = 2 beta^2 gamma^3 (omega_C / omega) (v / omega); after propagating
    z_D every level's quadratic phase is a full multiple of 2 pi. Where z_D
    is no positive float, ConfigurationError is raised: z_D overflows for a
    beam energy or a wavelength far beyond any laboratory's, and is 0 for a
    beam so slow that gamma rounds to 1 or a wavelength short enough to
    underflow it.
    """
    if kinetic_energy_ev <= 0:
        raise ConfigurationError("kinetic energy must be positive")
    if laser_wavelength_m <= 0:
        raise ConfigurationError("laser wavelength must be positive")
    if not delta_e_ev >= 0:  # nan too
        raise ConfigurationError("energy spread must be >= 0")
    gamma = 1.0 + kinetic_energy_ev / ELECTRON_REST_ENERGY_EV
    omega = 2.0 * math.pi * SPEED_OF_LIGHT / laser_wavelength_m
    omega_c = COMPTON_ANGULAR_FREQUENCY
    photon_ev = HBAR * omega / ELEMENTARY_CHARGE
    if delta_e_ev >= photon_ev:
        raise ConfigurationError(
            f"energy spread {delta_e_ev} eV >= photon energy {photon_ev:.6g} eV; "
            "the ladder levels would overlap")
    try:
        beta = math.sqrt(1.0 - 1.0 / gamma**2)
        v = beta * SPEED_OF_LIGHT
        z_d = 2.0 * beta**2 * gamma**3 * (omega_c / omega) * (v / omega)
    except OverflowError:  # float ** raises where * gives inf
        z_d = math.inf
    if not 0.0 < z_d < math.inf:
        raise ConfigurationError(
            f"{kinetic_energy_ev:g} eV electrons and a {laser_wavelength_m:g} m laser "
            f"give dispersion length z_D = {z_d!r} m, not a positive float")
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
