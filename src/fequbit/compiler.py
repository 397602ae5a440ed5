"""Gate DSL, XYX synthesis, and pulse-and-drift schedule generation.

A target unitary is factored as phase * Rx(a) * Ry(b) * Rx(c), with
Rx(t) = [[cos t, i sin t], [i sin t, cos t]] (one laser pulse,
``PinemPulse.single(-i t / 2)``) and Ry(b) = F Rx(b) F^3 where F = diag(1, i)
is one quarter-length drift, ``FspPhase.quarter(1)``. A ``Schedule`` holds
those operator objects themselves, so ``simulate_schedule`` hands each one
to ``apply_pinem`` or ``apply_fsp`` and ``qubit.qubit_gate`` gives its 2x2
action. x is the continuously tunable axis, z is quantized to quarter turns
by the drift lengths, so XYX is the decomposition that needs the fewest
physical operations: at most three pulses and two drifts.

DSL, one gate per line, '#' comments:

    H | X | Y | Z | S | T | NOT
    RX(<angle>) | RY(<angle>) | RZ(<angle>)     angle: radians or e.g. 0.5pi
    U [[a,b],[c,d]]                             complex entries, python 'j'

RX(t)/RY(t) are the full-angle rotations above; RZ(t) = diag(1, e^{it}) is a
phase gate, so RZ(0.5pi) = S = one quarter drift and RZ(pi) = Z.

The compile reads a gate's matrix once, as four row-major Python complex
scalars, and works on those in closed form: the angles from the first row of
H u H at unit determinant, the global phase from the entries of Rx(a) Ry(b)
Rx(c). A gate whose
angle is not finite or whose matrix is not unitary raises ValueError.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CircuitParseError
from .ladder import DEFAULT_POLICY, BeamParameters, LadderState, TruncationPolicy, basis_state
from .operators import _I_POW, FspPhase, PinemPulse, apply_fsp, apply_pinem, pinem_kernels
from .qubit import project_qubit, qubit_gate

ZERO_ANGLE_TOL = 1e-12
UNITARY_TOL = 1e-9

_INV_SQRT2 = 1 / math.sqrt(2.0)
_NAMED_ENTRIES = {  # each named gate's matrix, row-major
    "H": (complex(_INV_SQRT2), complex(_INV_SQRT2), complex(_INV_SQRT2), complex(-_INV_SQRT2)),
    "X": (0j, 1 + 0j, 1 + 0j, 0j),
    "NOT": (0j, 1 + 0j, 1 + 0j, 0j),
    "Y": (0j, -1j, 1j, 0j),
    "Z": (1 + 0j, 0j, 0j, -1 + 0j),
    "S": (1 + 0j, 0j, 0j, 1j),
    "T": (1 + 0j, 0j, 0j, cmath.exp(0.25j * math.pi)),
}


def _unitarity_defect(u: list) -> float:
    """max |(u^dag u - 1)_ij| of a 2x2 matrix's row-major entries; nan if any
    entry is nan, as max() over a nan depends on the order of its arguments."""
    a, b, c, d = u
    ac, cc = a.conjugate(), c.conjugate()
    defects = [math.hypot(z.real, z.imag) for z in
               (ac * a + cc * c - 1, b.conjugate() * b + d.conjugate() * d - 1, ac * b + cc * d)]
    return math.nan if math.isnan(sum(defects)) else max(defects)


def _require_unitary(u: list, what: object) -> None:
    """ValueError naming ``what``, formatted only then, unless u is unitary."""
    defect = _unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        raise ValueError(f"{what} is not unitary (defect {defect:.2e})")


@dataclass(frozen=True)
class Gate:
    """One abstract gate: a named mnemonic, a rotation, or a raw matrix."""

    kind: str
    angle: float | None = None
    entries: tuple | None = None  # row-major 2x2 for kind "U"

    def _row_major(self) -> tuple:
        """The gate's matrix as four row-major Python complex scalars. The sign
        of a zero part counts, as ``_hvh_row``'s square root branches on it:
        ``1j * s`` has the real part -0.0 where s < 0."""
        if self.kind in _NAMED_ENTRIES:
            return _NAMED_ENTRIES[self.kind]
        if self.kind in ("RX", "RY"):
            c, s = math.cos(self.angle), math.sin(self.angle)
            if self.kind == "RX":
                return complex(c), 1j * s, 1j * s, complex(c)
            return complex(c), complex(s), complex(-s), complex(c)
        if self.kind == "RZ":
            return 1 + 0j, 0j, 0j, cmath.exp(1j * self.angle)
        if self.kind == "U":
            return tuple(map(complex, self.entries))
        raise ValueError(f"unknown gate kind {self.kind!r}")

    def target_matrix(self) -> np.ndarray:
        """The gate's 2x2 matrix. Public because a user scoring a compiled
        schedule (``gate_fidelity``) needs the matrix it should realize."""
        return np.array(self._row_major(), dtype=np.complex128).reshape(2, 2)

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
    defect = _unitarity_defect(gate._row_major())
    if not defect <= UNITARY_TOL:
        raise CircuitParseError(f"non-unitary matrix (defect {defect:.2e})", line_no)
    return gate


def _parse_gate(text: str, line_no: int) -> Gate:
    upper = text.upper()
    if upper in _NAMED_ENTRIES:
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
    return Circuit(tuple(gates), name=name)


def unparse(circuit: Circuit) -> str:
    """DSL text that reparses to an identical circuit. Public because it is
    the one writer of the gate DSL that ``parse_circuit`` reads."""
    return "\n".join(gate.label() for gate in circuit.gates) + "\n"


def _wrap_angle(theta: float) -> float:
    """Normalize to (-pi, pi], ties at pi broken toward +pi."""
    out = math.remainder(theta, math.tau)
    return math.pi if out == -math.pi else out


def euler_xyx(u: np.ndarray) -> tuple[float, float, float, complex]:
    """Angles (a, b, c) and unit phase with u = phase * Rx(a) * Ry(b) * Rx(c).

    The angles are the ones ``compile_gate`` emits for u, in the same scalar
    arithmetic; the phase is ``_phase_to`` of the closed-form Rx(a) Ry(b)
    Rx(c). A matrix that is not unitary raises ValueError. Public because it
    gives the XYX angles of any target without building a schedule.
    """
    u = np.asarray(u, dtype=np.complex128).reshape(4).tolist()
    _require_unitary(u, "input")
    a, b, c = _xyx_angles(*_hvh_row(u))
    return a, b, c, _phase_to(_xyx_entries(a, b, c), u)


def _hvh_row(u: list) -> tuple[complex, complex]:
    """First row (x, y) of H V H, for V = u / sqrt(det u) = [[m, n], [-n*, m*]]
    and u a unitary's row-major entries.

    Entry by entry that row is ((m + n - n* + m*) / 2, (m - n - n* - m*) / 2)
    = (Re m + i Im n, i Im m - Re n). It is read from V's first row alone,
    as four-entry sums would cancel to rounding where y is small. H Rx(t) H =
    e^{itZ} and H Ry(t) H = Ry(-t), so for u = phase Rx(a) Ry(b) Rx(c) it is
    (cos b e^{i(a+c)}, -sin b e^{i(a-c)}), up to the sign of the root.
    """
    u00, u01, u10, u11 = u
    root_det = cmath.sqrt(u00 * u11 - u01 * u10)
    m, n = u00 / root_det, u01 / root_det
    return complex(m.real, n.imag), complex(-n.real, m.imag)


def _xyx_angles(x: complex, y: complex) -> tuple[float, float, float]:
    """The angles of ``euler_xyx``, a ZYZ read-off on ``_hvh_row``'s (x, y)."""
    b_bar = math.atan2(abs(y), abs(x))
    arg_x = cmath.phase(x) if abs(x) > 1e-14 else 0.0
    arg_y = cmath.phase(y) if abs(y) > 1e-14 else 0.0
    return (_wrap_angle(0.5 * (arg_x + arg_y)), _wrap_angle(-b_bar),
            _wrap_angle(0.5 * (arg_x - arg_y)))


def _xyx_entries(a: float, b: float, c: float) -> tuple:
    """Row-major entries of Rx(a) Ry(b) Rx(c) = [[m, n], [-n*, m*]], where
    m = cos b cos(a+c) - i sin b sin(a-c) and n = sin b cos(a-c) + i cos b sin(a+c)."""
    cb, sb = math.cos(b), math.sin(b)
    m = complex(cb * math.cos(a + c), -sb * math.sin(a - c))
    n = complex(sb * math.cos(a - c), cb * math.sin(a + c))
    return m, n, -n.conjugate(), m.conjugate()


@dataclass(frozen=True)
class Schedule:
    """Ordered physical operations, first element applied first.

    Each element is a single-harmonic ``PinemPulse`` (a laser pulse) or an
    ``FspPhase`` of whole quarter units (a drift); ``qubit.qubit_gate`` gives
    the 2x2 action of either. ``quarter_length_m`` is the beam's z_D / 4, the
    length of one quarter unit; it is None on a schedule built without a beam.
    """

    elements: tuple
    global_phase: complex = 1.0 + 0.0j
    quarter_length_m: float | None = None

    @property
    def n_pulses(self) -> int:
        return sum(isinstance(e, PinemPulse) for e in self.elements)

    @property
    def n_drifts(self) -> int:
        return sum(isinstance(e, FspPhase) for e in self.elements)

    def qubit_matrix(self) -> np.ndarray:
        """2x2 unitary the schedule realizes on the comb qubit (phase included)."""
        out = np.eye(2, dtype=np.complex128)
        for el in self.elements:
            out = qubit_gate(el) @ out
        return self.global_phase * out

    def to_json(self) -> dict:
        """The ``schedule.json`` form: a pulse by its g, a drift by its quarter
        units and its length in metres (None without ``quarter_length_m``)."""
        elements = []
        for el in self.elements:
            if isinstance(el, PinemPulse) and el.is_single_harmonic:
                elements.append({"pulse": {"g": [el.g.real, el.g.imag]}})
            elif isinstance(el, FspPhase) and el.is_quarter:
                meters = None if self.quarter_length_m is None else (
                    el.quarter_units * self.quarter_length_m)
                elements.append({"drift": {"quarter_units": el.quarter_units,
                                           "meters": meters}})
            else:
                raise ValueError(f"schedule.json has no form for {el!r}")
        return {"elements": elements,
                "global_phase": [self.global_phase.real, self.global_phase.imag]}


def _phase_to(realized: tuple, target: list) -> complex:
    """Unit phase p that brings p * realized closest to target, from the
    row-major entries of both: tr(realized^dag target) / |tr|."""
    tr = sum(r.conjugate() * t for r, t in zip(realized, target))
    return tr / abs(tr) if abs(tr) > 1e-12 else 1.0 + 0.0j


def _kept(theta: float) -> float:
    """The angle a pulse realizes: a null angle gets no pulse, so it is 0."""
    return 0.0 if abs(theta) < ZERO_ANGLE_TOL else theta


def _pulses(theta: float) -> tuple:
    """The pulse rotating by Rx(theta) for a kept angle, none for 0; a pulse
    of coupling g rotates by theta = -2 Im g, so g = -i theta / 2."""
    return (PinemPulse.single(-0.5j * theta),) if theta else ()


def compile_gate(gate: Gate, beam: BeamParameters) -> Schedule:
    """Physical schedule realizing the gate on the qubit up to global phase.

    Quarter-turn phase gates become one drift, pure x-rotations one pulse,
    and everything else the XYX sequence, first applied first: pulse Rx(c),
    ``FspPhase.quarter(3)``, pulse Rx(b), ``FspPhase.quarter(1)``, pulse
    Rx(a), since Ry(b) = F Rx(b) F^3. A null pulse or drift is left out. b
    is never null there: |b| < 1e-12 puts both parts of the y that
    ``_as_x_rotation`` tests below its 1e-12, so such a gate is an
    x-rotation, and no two
    pulses or two drifts ever meet. Pulses are single-harmonic ``PinemPulse``
    objects; the beam sets only the schedule's ``quarter_length_m``.

    The target is read once as four complex scalars and checked before any
    branch: a non-finite angle or a matrix that is not unitary raises
    ValueError. ``global_phase`` makes ``qubit_matrix()`` equal the target;
    it is ``_phase_to`` of the closed-form entries of what the schedule
    realizes, a null pulse taken as angle 0.
    """
    if gate.angle is not None and not math.isfinite(gate.angle):
        raise ValueError(f"{gate} has a non-finite angle")
    u = gate._row_major()
    _require_unitary(u, gate)
    z_quarters = _as_quarter_phase_gate(gate.kind, u[3])
    x, y = _hvh_row(u)
    if z_quarters is not None:  # pure phase gates on a quarter grid map to drifts
        elements = (FspPhase.quarter(z_quarters),) if z_quarters else ()
        realized = (1.0, 0.0, 0.0, _I_POW[z_quarters])
    elif (theta_x := _as_x_rotation(x, y)) is not None:  # pure x-rotations: one pulse
        theta_x = _kept(theta_x)
        elements = _pulses(theta_x)
        realized = _xyx_entries(theta_x, 0.0, 0.0)
    else:
        a, b, c = (_kept(t) for t in _xyx_angles(x, y))
        elements = (*_pulses(c), FspPhase.quarter(3), *_pulses(b), FspPhase.quarter(1),
                    *_pulses(a))
        realized = _xyx_entries(a, b, c)
    return Schedule(elements, _phase_to(realized, u), beam.quarter_length_m)


def _as_quarter_phase_gate(kind: str, u11: complex) -> int | None:
    """k in 0..3 if a Z, S or RZ gate, diag(1, u11), is diag(1, i^k), that is
    |u11 - i^k| < ZERO_ANGLE_TOL; else None.

    The test reads u11 = e^{i theta}, not theta / (pi / 2): at large |theta|
    that quotient rounds to an integer theta is no multiple of (it is one for
    every |theta| above ~7e15), which would make such an RZ a wrong drift.
    """
    if kind in ("Z", "S", "RZ"):
        for k, phase in enumerate(_I_POW):
            if abs(u11 - phase) < ZERO_ANGLE_TOL:
                return k
    return None


def _as_x_rotation(x: complex, y: complex) -> float | None:
    """Rotation angle if the unitary with ``_hvh_row`` (x, y) is Rx(theta) up
    to global phase, i.e. y is null and x = e^{i theta}, else None.

    The representative is folded into (-pi/2, pi/2] (Rx is pi-periodic up to
    sign), which keeps the pulse coupling as weak as possible and makes the
    NOT gate come out as theta = +pi/2.
    """
    if abs(y.real) > 1e-12 or abs(y.imag) > 1e-12:
        return None
    theta = math.atan2(x.imag, x.real)
    if theta <= -0.5 * math.pi:
        theta += math.pi
    elif theta > 0.5 * math.pi:
        theta -= math.pi
    return theta


def compile_circuit(circuit: Circuit, beam: BeamParameters) -> list[Schedule]:
    """``compile_gate`` per gate, with every pulse's kernel built up front.

    One ``pinem_kernels`` call builds the kernels of all the circuit's
    pulses, equal couplings once, and each pulse keeps its own as a private
    attribute that ``apply_pinem`` reads in place of ``pinem_kernel``. The
    kernel is a read-only array with the bits ``pinem_kernel`` gives; it is
    no dataclass field, so ``==``, ``hash``, ``repr`` and ``to_json`` do not
    see it. A schedule from ``compile_gate`` alone carries none.
    """
    schedules = [compile_gate(gate, beam) for gate in circuit.gates]
    pulses = [el for schedule in schedules for el in schedule.elements
              if isinstance(el, PinemPulse)]
    kernels = pinem_kernels([pulse.couplings[0][1] for pulse in pulses])
    for pulse, kernel in zip(pulses, kernels):
        object.__setattr__(pulse, "_kernel", kernel)
    return schedules


def simulate_schedule(schedule: Schedule, state: LadderState,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> LadderState:
    """Run the schedule on the full ladder, first element first."""
    for el in schedule.elements:
        if isinstance(el, PinemPulse):
            state = apply_pinem(state, el, policy)
        else:
            state = apply_fsp(state, el)
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
        projected = project_qubit(final)
        out[0, col] = projected.alpha
        out[1, col] = projected.beta
    return out


def gate_fidelity(achieved: np.ndarray, target: np.ndarray) -> float:
    """Global-phase-invariant gate overlap |tr(target^dag achieved)| / 2.
    Public because it is the score a user compares a compiled or simulated
    gate (``effective_qubit_gate``) with its target by."""
    achieved = np.asarray(achieved, dtype=np.complex128).reshape(2, 2)
    target = np.asarray(target, dtype=np.complex128).reshape(2, 2)
    for name, u in (("achieved", achieved), ("target", target)):
        _require_unitary(u.ravel().tolist(), f"{name} gate")
    return float(abs(np.trace(target.conj().T @ achieved)) / 2.0)
