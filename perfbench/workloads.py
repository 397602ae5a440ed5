"""The three seeded workloads: inputs, the timed call sequence, and the gates.

Each workload builds its inputs from the seed before any timing starts, so
the package only ever sees generated inputs. ``run`` is the timed part: one
caller, each call finished before the next starts (a closed loop with a single
client). ``check`` compares an output against a reference that does not go
through the code path being timed, and returns the failures it found.

Layers are reached through their modules (``compiler.simulate_schedule``,
not a name bound at import) so that the traced run sees every call.

Why these workloads:

- ``readout`` spends 80-95% of its time in ``reconstruct_state``. Noiseless
  fits stop after one restart, noisy ones take two or more, so it uses the
  fitting layer in two different ways. It does not reach the dense-expm path.
- ``circuit`` spends its time in the Bessel convolution and in the adaptive
  window growing gate after gate. It never reaches ``tomography``.
- ``pulses`` is the only workload that reaches ``apply_pinem_matexp``, on
  windows on both sides of ``MATEXP_DENSE_MAX_DIM``, plus ``eigenphases``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from fequbit import compiler, ladder, operators, qubit, tomography

BEAM = ladder.derive_beam(200e3, 800e-9)
POLICY = ladder.TruncationPolicy.adaptive()
INITIAL_HALF_WIDTH = 8
"""Half-width of the |0> window the CLI starts a circuit from."""

NOISELESS_FIDELITY = 1.0 - 1e-6
NOISY_FIDELITY = 0.99
QUBIT_TOL = 1e-9
CLOSURE_TOL = 1e-9
JV_TOL = 1e-10
MULTI_TOL = 1e-9
EIGENPHASE_TOL = 1e-9

GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "T": np.diag([1.0, np.exp(0.25j * np.pi)]),
    "NOT": np.array([[0, 1], [1, 0]], dtype=complex),
}
NAMED = ("H", "X", "Y", "Z", "S", "T", "NOT")
HTH = "H\nT\nH\n"


def hth_qubit() -> np.ndarray:
    """H T H applied to |0>, computed from the gate matrices alone."""
    return GATES["H"] @ GATES["T"] @ GATES["H"] @ np.array([1.0, 0.0])


def fidelity(a_l_min: int, a: np.ndarray, b_l_min: int, b: np.ndarray) -> float:
    """|<a|b>|^2 / (<a|a><b|b>) after zero-padding both onto a joint window."""
    lo = min(a_l_min, b_l_min)
    hi = max(a_l_min + a.size, b_l_min + b.size)
    x = np.zeros(hi - lo, dtype=complex)
    y = np.zeros(hi - lo, dtype=complex)
    x[a_l_min - lo:a_l_min - lo + a.size] = a
    y[b_l_min - lo:b_l_min - lo + b.size] = b
    return float(abs(np.vdot(x, y)) ** 2 / (np.vdot(x, x).real * np.vdot(y, y).real))


def qubit_fidelity(expected: np.ndarray, got: np.ndarray) -> float:
    return float(abs(np.vdot(expected, got)) ** 2
                 / (np.vdot(expected, expected).real * np.vdot(got, got).real))


# ------------------------------------------------------------------ readout

@dataclass
class ReadoutItem:
    name: str
    state: ladder.LadderState
    counts: float
    noise_seed: int
    fit_seed: int
    expected_qubit: np.ndarray | None = None


@dataclass
class ReadoutOutput:
    result: tomography.ReconstructionResult
    qubit: qubit.QubitState
    bytes_written: int


def prepare(gate: str) -> ladder.LadderState:
    """|0> after one compiled gate, as `fequbit simulate` would leave it."""
    schedule = compiler.compile_gate(compiler.Gate(gate), BEAM)
    return compiler.simulate_schedule(schedule, ladder.basis_state(0, INITIAL_HALF_WIDTH),
                                      POLICY)


class Readout:
    """Spectrogram, shot noise, reconstruction and projection per state."""

    name = "readout"
    per_item = True

    @staticmethod
    def units(item) -> int:
        return 1

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        per_counts = {0.0: 1, 1e6: 1, 1e5: 0} if tiny else {0.0: 4, 1e6: 6, 1e5: 6}
        self.items = []
        for counts, n in per_counts.items():
            for i in range(n):
                amps = rng.normal(size=9) + 1j * rng.normal(size=9)
                amps /= np.linalg.norm(amps)
                self.items.append(ReadoutItem(
                    f"random-{counts:g}-{i}", ladder.LadderState(-4, amps), counts,
                    int(rng.integers(2**31)), int(rng.integers(2**31))))
        for gate in ("NOT",) if tiny else ("H", "T", "NOT"):
            expected = GATES[gate] @ np.array([1.0, 0.0])
            self.items.append(ReadoutItem(gate, prepare(gate), 0.0, 0,
                                          int(rng.integers(2**31)), expected))
        self.cli = [("tomography", ["tomography", "--circuit", "{hth}"], self.check_cli)]

    def run(self, item: ReadoutItem, workdir: str) -> ReadoutOutput:
        state = item.state.trimmed() if item.expected_qubit is not None else item.state
        sg = tomography.spectrogram(state)
        if item.counts:
            sg = tomography.add_shot_noise(sg, item.counts, seed=item.noise_seed)
        path = os.path.join(workdir, "spectrogram.csv")
        sg.to_csv(path)
        result = tomography.reconstruct_state(sg, seed=item.fit_seed)
        projected = qubit.project_qubit(result.state, edge_margin=0)
        return ReadoutOutput(result, projected, os.path.getsize(path))

    def infidelity(self, item: ReadoutItem, out: ReadoutOutput) -> float:
        return 1.0 - fidelity(item.state.l_min, np.asarray(item.state.amplitudes),
                              out.result.state.l_min, np.asarray(out.result.state.amplitudes))

    def check(self, item: ReadoutItem, out: ReadoutOutput) -> list[str]:
        bar = NOISY_FIDELITY if item.counts else NOISELESS_FIDELITY
        problems = []
        if not out.result.ok:
            problems.append(f"reconstruction not ok (residual {out.result.residual:.3e})")
        infidelity = self.infidelity(item, out)
        if not 1.0 - infidelity >= bar:
            problems.append(f"fidelity 1-{infidelity:.3e} below {bar}")
        if item.expected_qubit is not None:
            got = np.array([out.qubit.alpha, out.qubit.beta])
            qf = qubit_fidelity(item.expected_qubit, got)
            if not qf >= NOISELESS_FIDELITY:
                problems.append(f"{item.name} read out as {got}, fidelity {qf!r}")
        return problems

    def check_cli(self, outdir: str) -> list[str]:
        got = _load_qubit(os.path.join(outdir, "readout_qubit.json"))
        qf = qubit_fidelity(hth_qubit(), got)
        return [] if qf >= NOISELESS_FIDELITY else [f"cli tomography read out {got}"]


# ------------------------------------------------------------------ circuit

@dataclass
class CircuitItem:
    name: str
    source: str
    targets: list


@dataclass
class CircuitOutput:
    schedules: list
    state: ladder.LadderState
    qubit: qubit.QubitState
    max_dim: int
    bytes_written: int


def _haar_unitary(rng) -> np.ndarray:
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_gate(rng) -> tuple[str, np.ndarray]:
    """One DSL line and its 2x2 matrix, built without the compiler."""
    kind = ("named", "RX", "RY", "U")[int(rng.integers(4))]
    if kind == "named":
        name = NAMED[int(rng.integers(len(NAMED)))]
        matrices = {"X": GATES["NOT"], "Y": np.array([[0, -1j], [1j, 0]]),
                    "Z": np.diag([1.0, -1.0]), "S": np.diag([1.0, 1j]), **GATES}
        return name, np.asarray(matrices[name], dtype=complex)
    if kind in ("RX", "RY"):
        t = float(rng.uniform(-math.pi, math.pi))
        c, s = math.cos(t), math.sin(t)
        m = [[c, 1j * s], [1j * s, c]] if kind == "RX" else [[c, s], [-s, c]]
        return f"{kind}({t!r})", np.array(m, dtype=complex)
    u = _haar_unitary(rng)
    a, b, c, d = (complex(x) for x in u.ravel())
    return f"U [[{a!r},{b!r}],[{c!r},{d!r}]]", u


class Circuit:
    """Long random circuits compiled and simulated from |0>, projected per gate."""

    name = "circuit"
    per_item = False

    @staticmethod
    def units(item) -> int:
        return len(item.targets)

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.items = []
        for n in (6, 12) if tiny else (200, 400, 800):
            lines, targets = zip(*(random_gate(rng) for _ in range(n)))
            self.items.append(CircuitItem(f"random-{n}", "\n".join(lines) + "\n",
                                          list(targets)))
        self.cli = [("simulate", ["simulate", "{hth}"], self.check_simulate),
                    ("compile", ["compile", "{hth}"], self.check_compile)]

    def run(self, item: CircuitItem, workdir: str) -> CircuitOutput:
        circuit = compiler.parse_circuit(item.source, name=item.name)
        schedules = compiler.compile_circuit(circuit, BEAM)
        state = ladder.basis_state(0, INITIAL_HALF_WIDTH)
        max_dim = state.dim
        for schedule in schedules:
            state = compiler.simulate_schedule(schedule, state, POLICY)
            projected = qubit.project_qubit(state, edge_margin=POLICY.edge_margin,
                                            leakage_tol=POLICY.leakage_tol)
            max_dim = max(max_dim, state.dim)
        path = os.path.join(workdir, "state.json")
        state.dump(path)
        return CircuitOutput(schedules, state, projected, max_dim, os.path.getsize(path))

    def check(self, item: CircuitItem, out: CircuitOutput) -> list[str]:
        problems = []
        got = np.array([out.qubit.alpha, out.qubit.beta])
        # the schedules' own 2x2 algebra, without the ladder simulation
        reference = np.array([1.0, 0.0], dtype=complex)
        target = reference.copy()
        for schedule, gate in zip(out.schedules, item.targets):
            reference = (schedule.qubit_matrix() / schedule.global_phase) @ reference
            target = gate @ target
        err = float(np.max(np.abs(got - reference)))
        if not err <= QUBIT_TOL:
            problems.append(f"qubit differs from the schedule product by {err:.3e}")
        tf = qubit_fidelity(target, got)
        if not tf >= 1.0 - QUBIT_TOL:
            problems.append(f"qubit fidelity to the target gates 1-{1 - tf:.3e}")
        drift = abs(out.state.norm() - 1.0)
        if not drift <= ladder.NORM_TOL:
            problems.append(f"norm drift {drift:.3e}")
        return problems

    def check_simulate(self, outdir: str) -> list[str]:
        got = _load_qubit(os.path.join(outdir, "qubit.json"))
        qf = qubit_fidelity(hth_qubit(), got)
        weight = float(np.vdot(got, got).real)
        ok = qf >= 1.0 - QUBIT_TOL and abs(weight - 1.0) <= QUBIT_TOL
        return [] if ok else [f"cli simulate gave {got}"]

    def check_compile(self, outdir: str) -> list[str]:
        with open(os.path.join(outdir, "schedule.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = []
        if [g["gate"] for g in doc["gates"]] != ["H", "T", "H"]:
            problems.append("cli compile lists the wrong gates")
        for entry in doc["gates"]:
            realized = np.eye(2, dtype=complex)
            for el in entry["schedule"]["elements"]:
                if "pulse" in el:
                    theta = -2.0 * el["pulse"]["g"][1]
                    c, s = math.cos(theta), math.sin(theta)
                    realized = np.array([[c, 1j * s], [1j * s, c]]) @ realized
                else:
                    k = el["drift"]["quarter_units"]
                    realized = np.diag([1.0, 1j ** (k % 4)]) @ realized
            realized = complex(*entry["schedule"]["global_phase"]) * realized
            err = float(np.max(np.abs(realized - GATES[entry["gate"]])))
            if not err <= QUBIT_TOL:
                problems.append(f"cli compile: {entry['gate']} off by {err:.3e}")
        return problems


# ------------------------------------------------------------------- pulses

@dataclass
class PulseItem:
    name: str
    kind: str  # "single", "multi" or "eigenphases"
    state: ladder.LadderState | None
    pulse: operators.PinemPulse
    dim: int = 0


@dataclass
class PulseOutput:
    state: ladder.LadderState | None = None
    closure: float = 0.0
    phases: np.ndarray | None = None


def _random_wide_state(rng, half_width: int, margin: int = 8) -> ladder.LadderState:
    amps = np.zeros(2 * half_width + 1, dtype=complex)
    n = 2 * (half_width - margin) + 1
    amps[margin:margin + n] = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ladder.LadderState(-half_width, amps / np.linalg.norm(amps))


def jacobi_anger_apply(state: ladder.LadderState,
                       pulse: operators.PinemPulse) -> tuple[int, np.ndarray]:
    """The pulse on the untruncated ladder, as (l_min, amplitudes).

    The harmonics' shift operators commute, so the pulse is a product of
    single-harmonic pulses; harmonic h with coupling g sends level l to
    l + h*n with amplitude e^{in arg(-g)} J_n(2|g|). Each is one convolution
    with that kernel from ``scipy.special.jv``, with no window and no matrix
    exponential.
    """
    l_min, amps = state.l_min, np.asarray(state.amplitudes, dtype=complex)
    for h, g in pulse.couplings:
        n_max = math.ceil(2.0 * abs(g)) + 40
        n = np.arange(-n_max, n_max + 1)
        kernel = np.zeros(2 * h * n_max + 1, dtype=complex)
        kernel[::h] = np.exp(1j * n * np.angle(-g)) * jv(n, 2.0 * abs(g))
        amps = np.convolve(amps, kernel)
        l_min -= h * n_max
    return l_min, amps


def window_difference(a_l_min: int, a: np.ndarray, b_l_min: int, b: np.ndarray) -> float:
    """Largest amplitude difference after zero-padding both onto a joint window."""
    lo = min(a_l_min, b_l_min)
    hi = max(a_l_min + a.size, b_l_min + b.size)
    x = np.zeros(hi - lo, dtype=complex)
    y = np.zeros(hi - lo, dtype=complex)
    x[a_l_min - lo:a_l_min - lo + a.size] = a
    y[b_l_min - lo:b_l_min - lo + b.size] = b
    return float(np.max(np.abs(x - y)))


def toeplitz_eigenphases(g_abs: float, dim: int) -> np.ndarray:
    """Closed form: i*generator is tridiagonal Toeplitz, eigenvalues 2|g|cos(j pi/(n+1))."""
    lam = 2.0 * g_abs * np.cos(np.arange(1, dim + 1) * np.pi / (dim + 1))
    return np.sort(np.mod(-lam + np.pi, 2.0 * np.pi) - np.pi)


class Pulses:
    """A sweep through apply_pinem: Bessel, dense expm, Chebyshev, eigenphases."""

    name = "pulses"
    per_item = False
    EIG_CLI_G, EIG_CLI_DIM = 50.0, 1001

    @staticmethod
    def units(item) -> int:
        return 1

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)

        def phase():
            return np.exp(2j * np.pi * rng.uniform())

        self.items = []
        for m in (0.5, 2.0) if tiny else (0.5, 2.0, 8.0, 32.0, 125.0, 250.0):
            self.items.append(PulseItem(
                f"single-{m:g}", "single", ladder.basis_state(0, INITIAL_HALF_WIDTH),
                operators.PinemPulse.single(m * phase())))
        # input windows of 301, 661 levels land on the dense side of
        # MATEXP_DENSE_MAX_DIM after padding, 1201 and 2401 on the Chebyshev side
        for half in (20, 600) if tiny else (150, 330, 600, 1200):
            pulse = operators.PinemPulse.multi({1: 4.0 * phase(), 2: 2.0 * phase(),
                                                3: 1.0 * phase()})
            self.items.append(PulseItem(f"multi-{2 * half + 1}", "multi",
                                        _random_wide_state(rng, half), pulse))
        dim = 101 if tiny else 1001
        self.items.append(PulseItem(f"eigenphases-{dim}", "eigenphases", None,
                                    operators.PinemPulse.single(rng.uniform(40.0, 60.0)), dim))
        self.cli = [("eigenphases", ["eigenphases", "--g", repr(self.EIG_CLI_G),
                                     "--dim", str(self.EIG_CLI_DIM)], self.check_cli)]

    def run(self, item: PulseItem, workdir: str) -> PulseOutput:
        if item.kind == "eigenphases":
            return PulseOutput(phases=operators.eigenphases(item.pulse, item.dim))
        out = operators.apply_pinem(item.state, item.pulse, POLICY)
        if item.kind == "single":
            return PulseOutput(out)
        return PulseOutput(out, qubit.closure_check(item.state, item.pulse, POLICY))

    def check(self, item: PulseItem, out: PulseOutput) -> list[str]:
        if item.kind == "eigenphases":
            err = float(np.max(np.abs(out.phases - toeplitz_eigenphases(abs(item.pulse.g),
                                                                         item.dim))))
            return [] if err <= EIGENPHASE_TOL else [f"eigenphases off by {err:.3e}"]
        problems = []
        drift = abs(out.state.norm() - 1.0)
        if not drift <= ladder.NORM_TOL:
            problems.append(f"norm drift {drift:.3e}")
        if item.kind == "single":
            g = item.pulse.g
            levels = np.arange(out.state.l_min, out.state.l_min + out.state.dim)
            expected = np.exp(1j * levels * np.angle(-g)) * jv(levels, 2.0 * abs(g))
            err = float(np.max(np.abs(out.state.amplitudes - expected)))
            if not err <= JV_TOL:
                problems.append(f"amplitudes differ from J_l(2|g|) by {err:.3e}")
        else:
            err = window_difference(out.state.l_min, np.asarray(out.state.amplitudes),
                                    *jacobi_anger_apply(item.state, item.pulse))
            if not err <= MULTI_TOL:
                problems.append(f"amplitudes differ from the Jacobi-Anger product by {err:.3e}")
            if not out.closure <= CLOSURE_TOL:
                problems.append(f"closure defect {out.closure:.3e}")
        return problems

    def check_cli(self, outdir: str) -> list[str]:
        with open(os.path.join(outdir, "eigenphases.csv"), encoding="utf-8") as fh:
            got = np.array([float(line) for line in fh if line.strip()])
        expected = toeplitz_eigenphases(self.EIG_CLI_G, self.EIG_CLI_DIM)
        if got.shape != expected.shape:
            return [f"cli eigenphases wrote {got.size} values"]
        err = float(np.max(np.abs(got - expected)))
        return [] if err <= EIGENPHASE_TOL else [f"cli eigenphases off by {err:.3e}"]


def _load_qubit(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return np.array([complex(*obj["alpha"]), complex(*obj["beta"])])


WORKLOADS = {w.name: w for w in (Readout, Circuit, Pulses)}
