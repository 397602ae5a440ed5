"""Gate DSL, XYX synthesis, and pulse-and-drift schedule generation.

A target unitary is factored as phase * Rx(a) * Ry(b) * Rx(c), with
Rx(t) = [[cos t, i sin t], [i sin t, cos t]] (one laser pulse, coupling
g = -i t / 2) and Ry(b) = F Rx(b) F^3 where F = diag(1, i) is one
quarter-length drift. x is the continuously tunable axis, z is quantized to
quarter turns by the drift lengths, so XYX is the decomposition that needs
the fewest physical operations: at most three pulses and two drifts.

DSL, one gate per line, '#' comments:

    H | X | Y | Z | S | T | NOT
    RX(<angle>) | RY(<angle>) | RZ(<angle>)     angle: radians or e.g. 0.5pi
    U [[a,b],[c,d]]                             complex entries, python 'j'

RX(t)/RY(t) are the full-angle rotations above; RZ(t) = diag(1, e^{it}) is a
phase gate, so RZ(0.5pi) = S = one quarter drift and RZ(pi) = Z.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CircuitParseError
from .ladder import DEFAULT_POLICY, BeamParameters, LadderState, TruncationPolicy, basis_state
from .operators import FspPhase, PinemPulse, apply_fsp, apply_pinem
from .qubit import pinem_rotation, project_qubit, qubit_gate_of_fsp

ZERO_ANGLE_TOL = 1e-12
UNITARY_TOL = 1e-9

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
_NAMED_MATRICES = {
    "H": _HADAMARD,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "NOT": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.diag([1.0 + 0.0j, -1.0 + 0.0j]),
    "S": np.diag([1.0 + 0.0j, 1.0j]),
    "T": np.diag([1.0 + 0.0j, np.exp(0.25j * np.pi)]),
}


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]], dtype=np.complex128)


def _rz_phase(theta: float) -> np.ndarray:
    return np.diag([1.0 + 0.0j, np.exp(1j * theta)])


def _unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(2))))


@dataclass(frozen=True)
class Gate:
    """One abstract gate: a named mnemonic, a rotation, or a raw matrix."""

    kind: str
    angle: float | None = None
    entries: tuple | None = None  # row-major 2x2 for kind "U"

    def target_matrix(self) -> np.ndarray:
        if self.kind in _NAMED_MATRICES:
            return _NAMED_MATRICES[self.kind].copy()
        if self.kind == "RX":
            return pinem_rotation(self.angle)
        if self.kind == "RY":
            return _ry(self.angle)
        if self.kind == "RZ":
            return _rz_phase(self.angle)
        if self.kind == "U":
            return np.array(self.entries, dtype=np.complex128).reshape(2, 2)
        raise ValueError(f"unknown gate kind {self.kind!r}")

    def label(self) -> str:
        if self.kind in ("RX", "RY", "RZ"):
            return f"{self.kind}({self.angle!r})"
        if self.kind == "U":
            a, b, c, d = self.entries
            return f"U [[{a!r},{b!r}],[{c!r},{d!r}]]"
        return self.kind


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...]
    name: str | None = field(default=None, compare=False)
    source: str | None = field(default=None, compare=False)


_ROTATION_RE = re.compile(r"^(RX|RY|RZ)\s*\(\s*(.*?)\s*\)$", re.IGNORECASE)
_MATRIX_RE = re.compile(r"^\[\[([^\[\],]+),([^\[\],]+)\],\[([^\[\],]+),([^\[\],]+)\]\]$")


def _parse_angle(text: str, line_no: int) -> float:
    tok = text.strip().lower()
    if not tok:
        raise CircuitParseError("missing angle", line_no)
    factor = 1.0
    if tok.endswith("pi"):
        factor = math.pi
        tok = tok[:-2].strip()
        if tok in ("", "+"):
            return math.pi
        if tok == "-":
            return -math.pi
    try:
        angle = float(tok) * factor
    except ValueError:
        raise CircuitParseError(f"malformed angle {text.strip()!r}", line_no) from None
    if not math.isfinite(angle):
        raise CircuitParseError(f"non-finite angle {text.strip()!r}", line_no)
    return angle


def _parse_matrix(text: str, line_no: int) -> Gate:
    m = _MATRIX_RE.match(text.replace(" ", ""))
    if not m:
        raise CircuitParseError("malformed matrix, expected [[a,b],[c,d]]", line_no)
    try:
        entries = tuple(complex(tok) for tok in m.groups())
    except ValueError:
        raise CircuitParseError("malformed matrix entry", line_no) from None
    gate = Gate("U", entries=entries)
    defect = _unitarity_defect(gate.target_matrix())
    if not defect <= UNITARY_TOL:
        raise CircuitParseError(f"non-unitary matrix (defect {defect:.2e})", line_no)
    return gate


def _parse_gate(text: str, line_no: int) -> Gate:
    upper = text.upper()
    if upper in _NAMED_MATRICES:
        return Gate(upper)
    m = _ROTATION_RE.match(text)
    if m:
        return Gate(m.group(1).upper(), angle=_parse_angle(m.group(2), line_no))
    if upper.startswith("U") and "[" in text:
        return _parse_matrix(text[1:].strip(), line_no)
    raise CircuitParseError(f"unknown gate {text!r}", line_no)


def parse_circuit(source: str, name: str | None = None) -> Circuit:
    """Parse DSL text into a Circuit; raises CircuitParseError with line numbers."""
    gates = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        gates.append(_parse_gate(line, line_no))
    if not gates:
        raise CircuitParseError("no gates in circuit")
    return Circuit(tuple(gates), name=name, source=source)


def unparse(circuit: Circuit) -> str:
    """DSL text that reparses to an identical circuit."""
    return "\n".join(gate.label() for gate in circuit.gates) + "\n"


def _wrap_angle(theta: float) -> float:
    """Normalize to (-pi, pi], ties at pi broken toward +pi."""
    out = math.remainder(theta, math.tau)
    return math.pi if out == -math.pi else out


def euler_xyx(u: np.ndarray) -> tuple[float, float, float, complex]:
    """Angles (a, b, c) and unit phase with u = phase * Rx(a) * Ry(b) * Rx(c).

    Solved by Hadamard conjugation: H Rx(t) H = e^{itZ} and H Ry(t) H =
    Ry(-t), which turns the problem into a ZYZ read-off on H u H.
    """
    u = np.asarray(u, dtype=np.complex128).reshape(2, 2)
    defect = _unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        raise ValueError(f"input is not unitary (defect {defect:.2e})")
    v = _HADAMARD @ u @ _HADAMARD
    det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    v = v / np.sqrt(det)
    x, y = v[0, 0], v[0, 1]
    b_bar = math.atan2(abs(y), abs(x))
    arg_x = float(np.angle(x)) if abs(x) > 1e-14 else 0.0
    arg_y = float(np.angle(y)) if abs(y) > 1e-14 else 0.0
    a = _wrap_angle(0.5 * (arg_x + arg_y))
    b = _wrap_angle(-b_bar)
    c = _wrap_angle(0.5 * (arg_x - arg_y))
    rec = pinem_rotation(a) @ _ry(b) @ pinem_rotation(c)
    tr = np.trace(rec.conj().T @ u)
    phase = tr / abs(tr)
    return a, b, c, complex(phase)


@dataclass(frozen=True)
class Pulse:
    """One laser interaction of a schedule."""

    g: complex

    @property
    def theta(self) -> float:
        return -2.0 * self.g.imag


@dataclass(frozen=True)
class Drift:
    """One free propagation, an integer number of quarter dispersion lengths."""

    quarter_units: int
    meters: float


@dataclass(frozen=True)
class Schedule:
    """Ordered physical operations, first element applied first."""

    elements: tuple
    global_phase: complex = 1.0 + 0.0j

    @property
    def n_pulses(self) -> int:
        return sum(isinstance(e, Pulse) for e in self.elements)

    @property
    def n_drifts(self) -> int:
        return sum(isinstance(e, Drift) for e in self.elements)

    def qubit_matrix(self) -> np.ndarray:
        """2x2 unitary the schedule realizes on the comb qubit (phase included)."""
        out = np.eye(2, dtype=np.complex128)
        for el in self.elements:
            if isinstance(el, Pulse):
                out = pinem_rotation(el.theta) @ out
            else:
                out = qubit_gate_of_fsp(el.quarter_units % 4) @ out
        return self.global_phase * out

    def to_json(self) -> dict:
        elements = []
        for el in self.elements:
            if isinstance(el, Pulse):
                elements.append({"pulse": {"g": [el.g.real, el.g.imag]}})
            else:
                elements.append({"drift": {"quarter_units": el.quarter_units,
                                           "meters": el.meters}})
        return {"elements": elements,
                "global_phase": [self.global_phase.real, self.global_phase.imag]}

    @classmethod
    def from_json(cls, obj: dict) -> "Schedule":
        elements = []
        for entry in obj["elements"]:
            if "pulse" in entry:
                elements.append(Pulse(complex(*entry["pulse"]["g"])))
            elif "drift" in entry:
                d = entry["drift"]
                elements.append(Drift(int(d["quarter_units"]), float(d["meters"])))
            else:
                raise ValueError(f"unknown schedule element {entry!r}")
        return cls(tuple(elements), complex(*obj["global_phase"]))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "Schedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _assemble(raw: list, beam: BeamParameters) -> tuple:
    """Drop null operations and merge neighbours; raw is (kind, value) pairs."""
    stack: list[tuple[str, float | int]] = []
    for kind, value in raw:
        if stack and stack[-1][0] == kind:
            value = value + stack.pop()[1]
        if kind == "pulse":
            value = _wrap_angle(value)
            if abs(value) >= ZERO_ANGLE_TOL:
                stack.append((kind, value))
        else:
            value = int(value) % 4
            if value:
                stack.append((kind, value))
    quarter = beam.z_d / 4.0
    return tuple(
        Pulse(-0.5j * value) if kind == "pulse" else Drift(value, value * quarter)
        for kind, value in stack)


def _phase_to(realized: np.ndarray, target: np.ndarray) -> complex:
    tr = np.trace(realized.conj().T @ target)
    return complex(tr / abs(tr)) if abs(tr) > 1e-12 else 1.0 + 0.0j


def compile_gate(gate: Gate, beam: BeamParameters) -> Schedule:
    """Physical schedule realizing the gate on the qubit up to global phase.

    Quarter-turn phase gates become pure drifts, pure x-rotations a single
    pulse, everything else the canonical Pulse-Drift(3)-Pulse-Drift(1)-Pulse
    sequence from the XYX factorization (nulls elided).
    """
    u = gate.target_matrix()
    z_quarters = _as_quarter_phase_gate(gate)
    if z_quarters is not None:  # pure phase gates on a quarter grid map to drifts
        raw = [("drift", z_quarters)]
    elif (theta_x := _as_x_rotation(u)) is not None:  # pure x-rotations: one pulse
        raw = [("pulse", theta_x)]
    else:
        a, b, c, _ = euler_xyx(u)
        raw = [("pulse", c), ("drift", 3), ("pulse", b), ("drift", 1), ("pulse", a)]
    elements = _assemble(raw, beam)
    return Schedule(elements, _phase_to(Schedule(elements).qubit_matrix(), u))


def _as_quarter_phase_gate(gate: Gate) -> int | None:
    if gate.kind == "Z":
        return 2
    if gate.kind == "S":
        return 1
    if gate.kind == "RZ":
        quarters = gate.angle / (0.5 * math.pi)
        nearest = round(quarters)
        if abs(quarters - nearest) * 0.5 * math.pi < ZERO_ANGLE_TOL:
            return nearest % 4
    return None


def _as_x_rotation(u: np.ndarray) -> float | None:
    """Rotation angle if u is Rx(theta) up to global phase, else None.

    The representative is folded into (-pi/2, pi/2] (Rx is pi-periodic up to
    sign), which keeps the pulse coupling as weak as possible and makes the
    NOT gate come out as theta = +pi/2.
    """
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    v = u / np.sqrt(det)
    if abs(v[0, 0].imag) > 1e-12 or abs(v[0, 1].real) > 1e-12:
        return None
    theta = math.atan2(v[0, 1].imag, v[0, 0].real)
    if theta <= -0.5 * math.pi:
        theta += math.pi
    elif theta > 0.5 * math.pi:
        theta -= math.pi
    return theta


def compile_circuit(circuit: Circuit, beam: BeamParameters) -> list[Schedule]:
    return [compile_gate(gate, beam) for gate in circuit.gates]


def simulate_schedule(schedule: Schedule, state: LadderState,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Run the schedule on the full ladder, first element first."""
    for el in schedule.elements:
        if isinstance(el, Pulse):
            state = apply_pinem(state, PinemPulse.single(el.g), policy)
        else:
            state = apply_fsp(state, FspPhase.quarter(el.quarter_units))
    return state


def effective_qubit_gate(schedule: Schedule,
                         policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """2x2 gate the full-ladder simulation induces on the projected qubit.

    Columns come from running the schedule on |0> and |1>, whose projections
    are the qubit basis states, on the policy's start window.
    """
    out = np.zeros((2, 2), dtype=np.complex128)
    for col in range(2):
        final = simulate_schedule(schedule, basis_state(col, policy), policy)
        projected = project_qubit(final, edge_margin=policy.edge_margin,
                                  leakage_tol=policy.leakage_tol)
        out[0, col] = projected.alpha
        out[1, col] = projected.beta
    return out


def gate_fidelity(achieved: np.ndarray, target: np.ndarray) -> float:
    """Global-phase-invariant gate overlap |tr(target^dag achieved)| / 2."""
    achieved = np.asarray(achieved, dtype=np.complex128).reshape(2, 2)
    target = np.asarray(target, dtype=np.complex128).reshape(2, 2)
    for name, u in (("achieved", achieved), ("target", target)):
        defect = _unitarity_defect(u)
        if not defect <= UNITARY_TOL:
            raise ValueError(f"{name} gate is not unitary (defect {defect:.2e})")
    return float(abs(np.trace(target.conj().T @ achieved)) / 2.0)
