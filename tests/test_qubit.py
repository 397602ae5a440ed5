import json

import numpy as np
import pytest

from fequbit import (
    FspPhase,
    LadderState,
    PinemPulse,
    QubitState,
    TruncationError,
    apply_fsp,
    apply_pinem,
    basis_state,
    closure_check,
    pinem_rotation,
    project_period_p,
    project_qubit,
    qubit_gate,
)
from helpers import padded, random_interior_state
from oracles import even_odd_sums_oracle, residue_sums_oracle


def test_project_basis_zero():
    q = project_qubit(basis_state(0, 8))
    assert q.alpha == 1.0
    assert q.beta == 0.0


def test_project_two_level_superposition():
    amps = np.zeros(17, dtype=complex)
    amps[8 + 1] = amps[8 + 2] = 1 / np.sqrt(2)
    q = project_qubit(LadderState(-8, amps))
    assert q.alpha == pytest.approx(1 / np.sqrt(2))
    assert q.beta == pytest.approx(1 / np.sqrt(2))


def test_project_matches_bruteforce():
    rng = np.random.default_rng(31)
    for _ in range(20):
        state = random_interior_state(rng, 5, 11)
        q = project_qubit(state)
        even, odd = even_odd_sums_oracle(state)
        assert q.alpha == pytest.approx(even, abs=1e-14)
        assert q.beta == pytest.approx(odd, abs=1e-14)


def test_project_respects_absolute_parity_on_asymmetric_window():
    state = LadderState(1, np.array([0.6, 0.8j]))  # levels 1 and 2
    q = project_qubit(state, edge_margin=0)
    assert q.alpha == 0.8j
    assert q.beta == 0.6


def test_period_two_is_bit_identical_to_qubit_projection():
    rng = np.random.default_rng(32)
    for _ in range(10):
        state = random_interior_state(rng, 5, 11)
        q = project_qubit(state)
        pair = project_period_p(state, 2)
        assert pair[0] == q.alpha
        assert pair[1] == q.beta


def test_period_four_on_basis():
    comps = project_period_p(basis_state(0, 8), 4)
    assert np.array_equal(comps, np.array([1, 0, 0, 0], dtype=complex))


def test_period_p_matches_bruteforce():
    rng = np.random.default_rng(33)
    for p in (3, 4, 5):
        for _ in range(10):
            state = random_interior_state(rng, 6, 12)
            comps = project_period_p(state, p)
            assert np.max(np.abs(comps - residue_sums_oracle(state, p))) < 1e-12


def test_period_p_validation():
    with pytest.raises(ValueError):
        project_period_p(basis_state(0, 8), 1)


def test_projection_rejects_edge_support():
    with pytest.raises(TruncationError):
        project_qubit(basis_state(7, 8))
    # explicit opt-out survives
    q = project_qubit(basis_state(7, 8), edge_margin=0)
    assert q.beta == 1.0


def test_pinem_gate_real_coupling_is_identity():
    for g in (0.3, 2.0, 111.0):
        assert np.array_equal(qubit_gate(PinemPulse.single(g)), np.eye(2))


def test_pinem_gate_quarter_turn_is_not():
    gate = qubit_gate(PinemPulse.single(-0.25j * np.pi))  # theta = pi/2
    assert np.max(np.abs(gate - np.array([[0, 1j], [1j, 0]]))) < 1e-15


def test_pinem_gate_half_turn_is_minus_identity():
    gate = qubit_gate(PinemPulse.single(-0.5j * np.pi))  # theta = pi
    assert np.max(np.abs(gate + np.eye(2))) < 1e-15


def test_fsp_gate_values():
    assert np.array_equal(qubit_gate(FspPhase.quarter(0)), np.eye(2))
    assert np.array_equal(qubit_gate(FspPhase.quarter(1)), np.diag([1, 1j]))
    assert np.array_equal(qubit_gate(FspPhase.quarter(4)), np.eye(2))
    with pytest.raises(ValueError):
        qubit_gate(FspPhase.quarter(-1))


def test_gates_are_unitary():
    rng = np.random.default_rng(34)
    for _ in range(20):
        g = complex(*rng.normal(size=2))
        u = qubit_gate(PinemPulse.single(g))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
    for k in range(8):
        u = qubit_gate(FspPhase.quarter(k))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_closure_zero_coupling():
    state = random_interior_state(np.random.default_rng(35), 4, 10)
    assert closure_check(state, PinemPulse.single(0.0)) == 0.0


def test_closure_random_pulses():
    rng = np.random.default_rng(36)
    for _ in range(25):
        state = random_interior_state(rng, 4, 10)
        g = rng.uniform(0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert closure_check(state, PinemPulse.single(g)) < 1e-8


def test_closure_multi_harmonic_pulse():
    rng = np.random.default_rng(37)
    for _ in range(5):
        state = random_interior_state(rng, 4, 10)
        pulse = PinemPulse.multi({1: complex(*rng.normal(size=2)) * 0.5,
                                  2: complex(*rng.normal(size=2)) * 0.5,
                                  3: complex(*rng.normal(size=2)) * 0.3})
        assert closure_check(state, pulse) < 1e-8


def test_closure_quarter_drifts():
    rng = np.random.default_rng(38)
    for k in range(8):
        state = random_interior_state(rng, 4, 10)
        assert closure_check(state, FspPhase.quarter(k)) < 1e-12


def test_closure_rejects_fractional_drift():
    state = random_interior_state(np.random.default_rng(39), 4, 10)
    with pytest.raises(ValueError):
        closure_check(state, FspPhase(fraction=0.3))


def test_intertwining_identity_explicit():
    # T(U psi) == u_q T(psi), both sides computed independently
    rng = np.random.default_rng(40)
    for _ in range(10):
        state = random_interior_state(rng, 4, 10)
        g = complex(*rng.normal(size=2))
        evolved = apply_pinem(state, PinemPulse.single(g))
        lhs = project_qubit(evolved).as_vector()
        rhs = qubit_gate(PinemPulse.single(g)) @ project_qubit(state).as_vector()
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_real_coupling_fixes_projection_but_moves_ladder():
    rng = np.random.default_rng(41)
    state = random_interior_state(rng, 3, 9)
    evolved = apply_pinem(state, PinemPulse.single(1.3))
    before = project_qubit(state)
    after = project_qubit(evolved)
    assert abs(after.alpha - before.alpha) < 1e-8
    assert abs(after.beta - before.beta) < 1e-8
    # the ladder state itself did change
    widened = padded(state, evolved.l_min, evolved.l_min + evolved.dim - 1)
    assert np.linalg.norm(widened.amplitudes - evolved.amplitudes) > 0.1


def test_weight_invariance_under_gate_sequences():
    rng = np.random.default_rng(42)
    for _ in range(10):
        state = random_interior_state(rng, 3, 9)
        w0 = project_qubit(state).weight
        for _ in range(3):
            g = rng.uniform(0, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            state = apply_pinem(state, PinemPulse.single(g))
            state = apply_fsp(state, FspPhase.quarter(int(rng.integers(0, 4))))
        w1 = project_qubit(state).weight
        assert abs(w1 - w0) < 1e-8


def test_qubit_state_bloch_and_json():
    q = QubitState(1 / np.sqrt(2), 1j / np.sqrt(2))
    x, y, z = q.bloch_vector()
    assert (x, y, z) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
    assert json.loads(json.dumps(q.to_json())) == {"alpha": [q.alpha.real, q.alpha.imag],
                                                   "beta": [q.beta.real, q.beta.imag]}
    with pytest.raises(ValueError):
        QubitState(0.0, 0.0).bloch_vector()


def test_pinem_rotation_matrix_form():
    theta = 0.7
    m = pinem_rotation(theta)
    assert m[0, 0] == pytest.approx(np.cos(theta))
    assert m[0, 1] == pytest.approx(1j * np.sin(theta))
    assert m[1, 0] == m[0, 1]
    assert m[1, 1] == m[0, 0]
