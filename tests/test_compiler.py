import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fequbit import (
    Circuit,
    CircuitParseError,
    FspPhase,
    Gate,
    PinemPulse,
    Schedule,
    apply_pinem,
    basis_state,
    compile_circuit,
    compile_gate,
    derive_beam,
    effective_qubit_gate,
    euler_xyx,
    gate_fidelity,
    parse_circuit,
    pinem_kernel,
    project_qubit,
    simulate_schedule,
    unparse,
)
from fequbit import operators
from fequbit.ladder import NORM_TOL, TruncationPolicy
from fequbit.operators import CHEBYSHEV_TAIL_TOL
from fequbit.qubit import pinem_rotation
from helpers import schedule_from_json, state_distance
from oracles import haar_unitary, xyx_schedule_oracle

BEAM = derive_beam(200e3, 800e-9)


def reconstruct_xyx(a, b, c, phase):
    """2x2 multiplication oracle for the decomposition."""
    f = np.diag([1, 1j])
    ry = f @ pinem_rotation(b) @ (f @ f @ f)
    return phase * pinem_rotation(a) @ ry @ pinem_rotation(c)


# ---------------------------------------------------------------- parser

def test_parse_two_gates():
    circuit = parse_circuit("H\nX\n")
    assert len(circuit.gates) == 2
    assert circuit.gates[0].kind == "H"
    assert circuit.gates[1].kind == "X"


def test_parse_rotation_with_pi_literal():
    circuit = parse_circuit("RX(0.25pi)")
    assert circuit.gates[0] == Gate("RX", angle=math.pi / 4)


def test_parse_angle_forms():
    src = "RX(pi)\nRY(-pi)\nRZ(1.5)\nrx(0.5pi)\nRZ(-0.25pi)\n"
    angles = [g.angle for g in parse_circuit(src).gates]
    assert angles == [math.pi, -math.pi, 1.5, math.pi / 2, -math.pi / 4]


def test_parse_non_unitary_matrix_rejected():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("U [[1,0],[0,2]]")
    assert "line 1" in str(err.value)
    assert "non-unitary" in str(err.value)


def test_parse_unitary_matrix():
    circuit = parse_circuit("U [[0,1j],[1j,0]]")
    m = circuit.gates[0].target_matrix()
    assert np.array_equal(m, np.array([[0, 1j], [1j, 0]]))


def test_parse_comments_blanks_crlf():
    src = "# leading comment\r\nH  # inline\r\n\r\n  X\r\n"
    circuit = parse_circuit(src)
    assert [g.kind for g in circuit.gates] == ["H", "X"]


def test_parse_unknown_mnemonic_reports_line():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("H\nBOGUS\n")
    assert "line 2" in str(err.value)


def test_parse_malformed_angle_reports_line():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("RX(splat)")
    assert "line 1" in str(err.value)


def test_parse_empty_source_rejected():
    with pytest.raises(CircuitParseError):
        parse_circuit("")
    with pytest.raises(CircuitParseError):
        parse_circuit("# only a comment\n\n")


def test_unparse_roundtrip():
    src = "H\nNOT\nRX(0.25pi)\nRZ(-1.234567890123)\nU [[0,1j],[1j,0]]\nT\n"
    circuit = parse_circuit(src)
    again = parse_circuit(unparse(circuit))
    assert again == circuit
    # and a second round is a fixed point
    assert unparse(again) == unparse(circuit)


_GATES = (st.sampled_from(["H", "X", "Y", "Z", "S", "T", "NOT"]).map(Gate)
          | st.builds(Gate, st.sampled_from(["RX", "RY", "RZ"]),
                      st.floats(allow_nan=False, allow_infinity=False))
          | st.integers(0, 2 ** 32 - 1).map(lambda seed: Gate("U", entries=tuple(
              complex(z) for z in haar_unitary(np.random.default_rng(seed)).ravel()))))


@given(gates=st.lists(_GATES, min_size=1, max_size=8))
def test_parse_of_unparse_is_the_same_circuit(gates):
    circuit = Circuit(tuple(gates))
    assert parse_circuit(unparse(circuit)) == circuit


NAN_MATRIX = np.array([[np.nan, 0], [0, 1]])


@pytest.mark.parametrize("call, error", [
    (lambda: parse_circuit("RX(nan)"), CircuitParseError),
    (lambda: parse_circuit("RY(1e400)"), CircuitParseError),
    (lambda: parse_circuit("RZ(-inf)"), CircuitParseError),
    (lambda: parse_circuit("RX(1e308pi)"), CircuitParseError),
    (lambda: parse_circuit("U [[nan,0],[0,1]]"), CircuitParseError),
    (lambda: euler_xyx(NAN_MATRIX), ValueError),
    (lambda: gate_fidelity(NAN_MATRIX, np.eye(2)), ValueError),
    (lambda: gate_fidelity(np.eye(2), NAN_MATRIX), ValueError),
], ids=["rx-nan", "ry-overflow", "rz-inf", "rx-pi-overflow", "u-nan", "euler-nan",
        "fidelity-achieved-nan", "fidelity-target-nan"])
def test_non_finite_numbers_rejected(call, error):
    with pytest.raises(error):
        call()


@given(st.floats())
def test_rotation_angle_parses_exactly_or_is_rejected(x):
    text = f"RX({x!r})"
    if math.isfinite(x):
        assert repr(parse_circuit(text).gates[0].angle) == repr(x)
    else:
        with pytest.raises(CircuitParseError):
            parse_circuit(text)


# ---------------------------------------------------------------- euler

def test_euler_identity():
    a, b, c, phase = euler_xyx(np.eye(2))
    rec = reconstruct_xyx(a, b, c, phase)
    assert np.max(np.abs(rec - np.eye(2))) < 1e-12


def test_euler_ix_is_single_x_rotation():
    a, b, c, phase = euler_xyx(1j * np.array([[0, 1], [1, 0]]))
    assert b == pytest.approx(0.0, abs=1e-12)
    assert (a + c) % math.pi == pytest.approx(math.pi / 2, abs=1e-12)


def test_euler_hadamard_via_multiplication_oracle():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    a, b, c, phase = euler_xyx(h)
    rec = reconstruct_xyx(a, b, c, phase)
    assert np.max(np.abs(rec - h)) < 1e-12


def test_euler_rejects_non_unitary():
    with pytest.raises(ValueError):
        euler_xyx(np.array([[1, 0], [0, 2]]))


def test_euler_random_reconstruction():
    rng = np.random.default_rng(50)
    for _ in range(200):
        u = haar_unitary(rng)
        a, b, c, phase = euler_xyx(u)
        for angle in (a, b, c):
            assert -math.pi < angle <= math.pi
        rec = reconstruct_xyx(a, b, c, phase)
        assert np.max(np.abs(rec - u)) <= 1e-10


# ---------------------------------------------------------------- compile

def test_compile_rz_quarter_is_single_drift():
    schedule = compile_gate(Gate("RZ", angle=math.pi / 2), BEAM)
    assert schedule.elements == (FspPhase.quarter(1),)


@pytest.mark.parametrize("theta", [1e300, 1e20, 2.0 ** 53, 1e16, 0.5 * math.pi * 1e15,
                                   -1e300, 1e16 + 2.0, 2.0 * math.pi * 1e15])
def test_compile_rz_at_a_large_angle_realizes_its_target(theta):
    # theta / (pi / 2) is a float integer above ~7e15 whatever theta's phase;
    # the quarter-turn test reads e^{i theta} instead
    gate = Gate("RZ", angle=theta)
    schedule = compile_gate(gate, BEAM)
    assert np.max(np.abs(schedule.qubit_matrix() - gate.target_matrix())) < 1e-12


def test_compile_z_and_s():
    z = compile_gate(Gate("Z"), BEAM)
    assert z.elements == (FspPhase.quarter(2),)
    s = compile_gate(Gate("S"), BEAM)
    assert s.elements == (FspPhase.quarter(1),)


def test_compile_x_single_pulse():
    for kind in ("X", "NOT"):
        schedule = compile_gate(Gate(kind), BEAM)
        assert schedule.elements == (PinemPulse.single(-0.25j * math.pi),)
        assert -2.0 * schedule.elements[0].g.imag == pytest.approx(math.pi / 2)


def test_compile_rz_generic_angle_uses_pulses():
    schedule = compile_gate(Gate("RZ", angle=0.3), BEAM)
    assert schedule.n_pulses >= 1
    fid = gate_fidelity(effective_qubit_gate(schedule),
                        Gate("RZ", angle=0.3).target_matrix())
    assert fid >= 1 - 1e-9


def test_compile_h_within_budget_and_faithful():
    schedule = compile_gate(Gate("H"), BEAM)
    assert schedule.n_pulses <= 3
    assert schedule.n_drifts <= 2
    fid = gate_fidelity(effective_qubit_gate(schedule), Gate("H").target_matrix())
    assert fid >= 1 - 1e-9


def test_compile_pulses_are_purely_imaginary():
    for gate in (Gate("H"), Gate("T"), Gate("RY", angle=0.9)):
        for el in compile_gate(gate, BEAM).elements:
            if isinstance(el, PinemPulse):
                assert el.g.real == 0.0


def test_compile_drift_lengths_follow_beam():
    other = derive_beam(80e3, 500e-9)
    schedule = compile_gate(Gate("T"), other)
    for el in schedule.to_json()["elements"]:
        if "drift" in el:
            drift = el["drift"]
            assert drift["meters"] == pytest.approx(drift["quarter_units"] * other.z_d / 4)


def test_compile_identity_like_is_empty():
    assert compile_gate(Gate("RZ", angle=0.0), BEAM).elements == ()
    assert compile_gate(Gate("RX", angle=0.0), BEAM).elements == ()


def test_compiled_global_phase_reproduces_target_exactly():
    rng = np.random.default_rng(51)
    for _ in range(20):
        u = haar_unitary(rng)
        schedule = compile_gate(Gate("U", entries=tuple(u.ravel())), BEAM)
        assert np.max(np.abs(schedule.qubit_matrix() - u)) < 1e-9


def test_compile_budget_on_random_unitaries():
    rng = np.random.default_rng(52)
    for _ in range(50):
        schedule = compile_gate(Gate("U", entries=tuple(haar_unitary(rng).ravel())), BEAM)
        assert schedule.n_pulses <= 3
        assert schedule.n_drifts <= 2
        for el in schedule.elements:
            if isinstance(el, FspPhase):
                assert el.quarter_units in (1, 2, 3)


@pytest.mark.parametrize("gate", [
    Gate("U", entries=(math.nan, 0, 0, 1)),
    Gate("RX", angle=math.nan),
    Gate("U", entries=(2, 0, 0, 1)),
    Gate("RZ", angle=math.inf),
], ids=["u-nan", "rx-nan", "u-non-unitary", "rz-inf"])
def test_compile_rejects_an_invalid_target(gate):
    with pytest.raises(ValueError):
        compile_gate(gate, BEAM)


@pytest.mark.parametrize("position", range(4))
def test_a_nan_entry_is_not_unitary_wherever_it_sits(position):
    entries = [1, 0, 0, 1]
    entries[position] = math.nan
    with pytest.raises(ValueError):
        compile_gate(Gate("U", entries=tuple(entries)), BEAM)
    with pytest.raises(ValueError):
        euler_xyx(np.array(entries, dtype=complex))
    with pytest.raises(CircuitParseError):
        parse_circuit("U [[{},{}],[{},{}]]".format(*entries))


# The largest deviation from the 40-digit oracle over the cases below,
# couplings and global phase alike: 5.0e-16 (Haar), 1.5e-16 (RZ). The numpy
# 2x2 compile this package had before its scalar one was 5.3e-6 off, at
# RZ(2.1e-12): its four-entry sums for H u H lost the direction of a y of
# modulus ~t/2 to rounding.
XYX_DIGITS_BOUND = 1e-15


def xyx_oracle_cases() -> list[Gate]:
    """200 Haar unitaries, every named gate, and RX/RY/RZ sweeps over [-pi, pi]
    (both ends included, pi/2 not hit) and near the 1e-12 rad tests: the null
    pulse, the quarter-turn test, and the x-rotation test, which RY(t) meets
    at |t| = 1e-12 and RZ(t) at |t| = 2e-12."""
    rng = np.random.default_rng(2207)
    cases = [Gate("U", entries=tuple(map(complex, haar_unitary(rng).ravel())))
             for _ in range(200)]
    cases += [Gate(kind) for kind in ("H", "X", "NOT", "Y", "Z", "S", "T")]
    near = [k * 1e-12 for k in (0.5, 0.9, 1.1, 1.5, 1.9, 2.1, 2.5, 10.0)]
    angles = [*np.linspace(-math.pi, math.pi, 38).tolist(), 0.0, *near, *(-t for t in near)]
    return cases + [Gate(kind, angle=t) for kind in ("RX", "RY", "RZ") for t in angles]


def xyx_oracle_deviations():
    """(gate label, largest deviation of its couplings and global phase from
    the oracle) for each case; the pulse and drift sequence must match."""
    for gate in xyx_oracle_cases():
        steps, phase = xyx_schedule_oracle(gate.kind, gate.angle, gate.entries)
        schedule = compile_gate(gate, BEAM)
        got = [("pulse", el.g) if isinstance(el, PinemPulse) else ("drift", el.quarter_units)
               for el in schedule.elements]
        assert [what for what, _ in got] == [what for what, _ in steps], gate.label()
        deviation = abs(schedule.global_phase - phase)
        for (what, value), (_, want) in zip(got, steps):
            if what == "drift":
                assert value == want, gate.label()
            else:
                deviation = max(deviation, abs(value - want))
        yield gate.label(), float(deviation)


def test_compile_keeps_the_digits_of_small_xyx_arguments():
    # the read-off from V's first row has no cancellation, so every case,
    # those next to the x-rotation test too, is within rounding of the oracle
    for label, deviation in xyx_oracle_deviations():
        assert deviation <= XYX_DIGITS_BOUND, label


# ---------------------------------------------------------------- simulate

def test_simulate_empty_schedule_is_identity():
    state = basis_state(0, 8)
    out = simulate_schedule(Schedule(()), state)
    assert out is state


def test_not_schedule_flips_qubit():
    schedule = compile_gate(Gate("NOT"), BEAM)
    out = simulate_schedule(schedule, basis_state(0, 8))
    q = project_qubit(out)
    assert abs(q.alpha) < 1e-9
    assert abs(abs(q.beta) - 1.0) < 1e-9


def test_hadamard_twice_returns_home():
    schedule = compile_gate(Gate("H"), BEAM)
    state = basis_state(0, 8)
    state = simulate_schedule(schedule, state)
    state = simulate_schedule(schedule, state)
    q = project_qubit(state)
    assert abs(abs(q.alpha) - 1.0) < 1e-9
    assert abs(q.beta) < 1e-9


def test_circuit_compilation_order():
    circuit = parse_circuit("H\nNOT\n")
    schedules = compile_circuit(circuit, BEAM)
    state = basis_state(0, 8)
    for schedule in schedules:
        state = simulate_schedule(schedule, state)
    q = project_qubit(state)
    # X H |0>_q = (1, 1)/sqrt(2) up to phase
    assert abs(q.alpha) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert abs(q.beta) == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_weak_pulse_keeps_guard_cells_at_trimmed_edges():
    # a guard-less trim leaves 5e-7 probability within 3 cells of the edge
    (schedule,) = compile_circuit(parse_circuit("RX(1e-3)\n"), BEAM)
    state = simulate_schedule(schedule, basis_state(0, 8))
    q = project_qubit(state)
    assert abs(q.beta) == pytest.approx(math.sin(1e-3), abs=1e-12)


def test_adaptive_window_tracks_support_over_long_runs():
    (schedule,) = compile_circuit(parse_circuit("H\n"), BEAM)
    adaptive = basis_state(0, 8)
    fixed_policy = TruncationPolicy.fixed(7100)
    fixed = basis_state(0, 7100)
    for _ in range(200):
        adaptive = simulate_schedule(schedule, adaptive)
        fixed = simulate_schedule(schedule, fixed, fixed_policy)
    assert adaptive.dim <= 1000  # an untrimmed window reaches 14 017 levels
    assert state_distance(adaptive, fixed) <= 400 * CHEBYSHEV_TAIL_TOL


def test_random_circuit_matches_schedule_algebra():
    rng = np.random.default_rng(2024)
    lines = []
    for _ in range(100):
        kind = int(rng.integers(4))
        if kind == 0:
            lines.append(str(rng.choice(["H", "X", "NOT", "Y", "Z", "S", "T"])))
        elif kind in (1, 2):
            lines.append(f"{('RX', 'RY')[kind - 1]}({rng.uniform(-math.pi, math.pi)!r})")
        else:
            a, b, c, d = (complex(x) for x in haar_unitary(rng).ravel())
            lines.append(f"U [[{a!r},{b!r}],[{c!r},{d!r}]]")
    state = basis_state(0, 8)
    expected = np.array([1.0, 0.0], dtype=complex)
    for schedule in compile_circuit(parse_circuit("\n".join(lines)), BEAM):
        state = simulate_schedule(schedule, state)
        expected = (schedule.qubit_matrix() / schedule.global_phase) @ expected
    q = project_qubit(state)
    assert np.max(np.abs([q.alpha - expected[0], q.beta - expected[1]])) <= 1e-9
    assert abs(state.norm() - 1.0) <= NORM_TOL


# ---------------------------------------------------------------- fidelity

def test_gate_fidelity_values():
    x = Gate("X").target_matrix()
    z = Gate("Z").target_matrix()
    assert gate_fidelity(x, x) == 1.0
    assert gate_fidelity(1j * x, x) == pytest.approx(1.0, abs=1e-15)
    assert gate_fidelity(x, z) == 0.0


def test_gate_fidelity_rejects_non_unitary():
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(2) * 2, np.eye(2))


# ---------------------------------------------------------------- schedule

def test_schedule_json_roundtrip(tmp_path):
    schedule = compile_gate(Gate("H"), BEAM)
    again = schedule_from_json(json.loads(json.dumps(schedule.to_json())), BEAM.quarter_length_m)
    assert again == schedule


def test_schedule_json_writes_only_what_it_can_read_back():
    # a pulse is written by its fundamental g, a drift by whole quarter units
    for el in (PinemPulse.multi({1: 0.3j, 2: 0.1j}), FspPhase(fraction=0.3)):
        with pytest.raises(ValueError):
            Schedule((el,)).to_json()
    # without a beam a drift has no length in metres
    assert Schedule((FspPhase.quarter(1),)).to_json()["elements"][0]["drift"]["meters"] is None


def test_schedule_counts():
    schedule = compile_gate(Gate("T"), BEAM)
    assert schedule.n_pulses == 3
    assert schedule.n_drifts == 2


def test_a_compiled_pulse_kernel_changes_nothing_visible():
    circuit = parse_circuit("H\nRX(0.3)\nRY(-1.2)\nT\nU [[0,1],[1j,0]]\nRX(0.3)\n")
    batched = compile_circuit(circuit, BEAM)
    plain = [compile_gate(gate, BEAM) for gate in circuit.gates]
    pulses = [el for schedule in batched for el in schedule.elements
              if isinstance(el, PinemPulse)]
    assert pulses
    for pulse in pulses:
        kernel = vars(pulse)["_kernel"]
        assert not kernel.flags.writeable
        assert kernel.tobytes() == pinem_kernel(pulse.g).tobytes()
    for a, b in zip(batched, plain):
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())
    for pulse in pulses:
        bare = PinemPulse.single(pulse.g)
        assert bare == pulse and hash(bare) == hash(pulse) and repr(bare) == repr(pulse)


def test_apply_pinem_stores_no_kernel_on_a_pulse():
    pulse = PinemPulse.single(-0.25j)
    apply_pinem(basis_state(0, 8), pulse)
    assert "_kernel" not in vars(pulse)
    (schedule,) = [compile_gate(Gate("RX", angle=0.5), BEAM)]
    simulate_schedule(schedule, basis_state(0, 8))
    assert all("_kernel" not in vars(el) for el in schedule.elements)


def test_a_compiled_circuit_runs_without_the_scalar_kernel(monkeypatch):
    schedules = compile_circuit(parse_circuit("H\nRX(0.3)\nT\nRY(2.5)\n"), BEAM)

    def unexpected(g):
        raise AssertionError(f"pinem_kernel({g!r}) called for a compiled pulse")

    monkeypatch.setattr(operators, "pinem_kernel", unexpected)
    state = basis_state(0, 8)
    for schedule in schedules:
        state = simulate_schedule(schedule, state)
    assert abs(state.norm() - 1.0) <= NORM_TOL
