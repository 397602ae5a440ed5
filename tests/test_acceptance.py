"""Acceptance suite: one test per criterion, each prints a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values marked as frozen were derived once from the
independent oracles in oracles.py and pinned.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from fequbit import (
    FspPhase,
    Gate,
    LadderState,
    PinemPulse,
    TruncationPolicy,
    apply_fsp,
    apply_pinem,
    basis_state,
    compile_gate,
    derive_beam,
    effective_qubit_gate,
    eigenphases,
    gate_fidelity,
    project_period_p,
    project_qubit,
    qubit_gate,
    reconstruct_state,
    simulate_schedule,
    spectrogram,
)
from fequbit.ladder import occupied_levels
from helpers import padded, random_interior_state, state_distance, state_fidelity
from oracles import (
    bessel_series,
    commutator_norm,
    haar_unitary,
    pinem_amplitudes_oracle,
    pinem_generator,
    residue_sums_oracle,
)

BEAM = derive_beam(200e3, 800e-9)

# frozen from the independent hand evaluation in test_ladder.py
Z_D_200KEV_800NM = 0.07602815124982064
# frozen from the Bessel tail oracle: smallest symmetric window holding
# 1 - 1e-6 of the |g| = 250 walk (see criterion 9, re-derived there)
OCCUPIED_LEVELS_G250 = 1043


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_01_bessel_closed_form_equivalence():
    rng = np.random.default_rng(101)
    t_start = time.perf_counter()
    worst_dense = 0.0
    worst_oracle = 0.0
    dense_g = []
    for case in range(200):
        g = rng.uniform(1e-3, 20.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        state, pulse = basis_state(0, 8), PinemPulse.single(g)
        out = apply_pinem(state, pulse)
        if case % 5 == 0:  # the dense exponential on the result's window and 4 cells a side
            wide = padded(state, out.l_min - 4, out.l_min + out.dim + 3)
            dense = expm(pinem_generator(pulse, wide.dim)) @ wide.amplitudes
            worst_dense = max(worst_dense, state_distance(out, LadderState(wide.l_min, dense)))
            dense_g.append(abs(g))
        # closed-form amplitudes from the power-series oracle, mirrored by parity
        k_pos = np.arange(0, out.l_min + out.dim)
        j_pos = np.array([bessel_series(int(k), 2 * abs(g)) for k in k_pos])
        j_all = np.concatenate([j_pos[:0:-1] * (-1.0) ** k_pos[:0:-1], j_pos])
        chi = math.atan2((-g).imag, (-g).real)
        expected = np.exp(1j * chi * out.indices) * j_all
        worst_oracle = max(worst_oracle, float(np.max(np.abs(out.amplitudes - expected))))
    elapsed = time.perf_counter() - t_start
    assert worst_dense <= 1e-9
    assert max(dense_g) >= 19.0  # the dense check reaches the strongest pulses drawn
    assert worst_oracle <= 1e-9
    assert elapsed < 30.0
    _report(1, f"200 pulses: oracle to {worst_oracle:.2e}; {len(dense_g)} of them, "
               f"|g| up to {max(dense_g):.1f}, dense exponential to {worst_dense:.2e}; "
               f"{elapsed:.1f}s")


def test_criterion_02_unitarity_thousand_cases():
    rng = np.random.default_rng(102)
    worst = 0.0
    cases = 0

    def check(state):
        nonlocal worst, cases
        worst = max(worst, abs(state.norm() - 1.0))
        cases += 1

    for _ in range(550):
        state = random_interior_state(rng, 3, 8)
        g = rng.uniform(0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        check(apply_pinem(state, PinemPulse.single(g)))
    for _ in range(100):
        state = random_interior_state(rng, 3, 10)
        pulse = PinemPulse.multi({1: complex(*rng.normal(size=2)) * 0.6,
                                  2: complex(*rng.normal(size=2)) * 0.4})
        check(apply_pinem(state, pulse))
    for _ in range(350):
        state = random_interior_state(rng, 4, 9)
        if rng.random() < 0.5:
            check(apply_fsp(state, FspPhase.quarter(int(rng.integers(0, 9)))))
        else:
            check(apply_fsp(state, FspPhase(fraction=float(rng.uniform(0, 1)))))
    assert cases == 1000
    assert worst <= 1e-10
    _report(2, f"1000 applications, worst norm drift {worst:.2e}")


def test_criterion_03_eigenphase_arc_and_threshold():
    for two_g in (0.2, 0.5, 1.0, 2.0):
        phases = eigenphases(PinemPulse.single(two_g / 2), 401)
        assert np.max(np.abs(phases)) <= two_g + 0.05
    above = eigenphases(PinemPulse.single((np.pi + 0.2) / 2), 401)
    circular_gaps = np.diff(np.concatenate([above, [above[0] + 2 * np.pi]]))
    assert circular_gaps.max() < 0.1
    _report(3, f"arc bound holds below threshold; max circular gap past "
               f"threshold {circular_gaps.max():.3f}")


def test_criterion_04_pinem_operators_commute():
    pairs = [
        (PinemPulse.single(0.8 + 0.3j), PinemPulse.single(1.1 * np.exp(0.7j))),
        (PinemPulse.single(0.5), PinemPulse.single(1.4j)),
        (PinemPulse.single(0.9), PinemPulse.multi({2: 0.8j})),
        (PinemPulse.multi({1: 0.4, 2: 0.5}), PinemPulse.multi({2: 0.3, 3: 0.4j})),
    ]
    worst = 0.0
    for p1, p2 in pairs:
        worst = max(worst, commutator_norm(p1, p2, 401, 50))
    assert worst < 1e-8
    _report(4, f"interior commutator norms < {worst:.2e} (incl. harmonics)")


def test_criterion_05_qubit_intertwining_and_weight():
    rng = np.random.default_rng(105)
    worst_defect = 0.0
    worst_weight = 0.0
    for case in range(500):
        state = random_interior_state(rng, 4, 10)
        before = project_qubit(state).as_vector()
        if case % 3 == 2:
            k = int(rng.integers(0, 8))
            evolved = apply_fsp(state, FspPhase.quarter(k))
            gate = qubit_gate(FspPhase.quarter(k))
        else:
            g = rng.uniform(0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            evolved = apply_pinem(state, PinemPulse.single(g))
            gate = qubit_gate(PinemPulse.single(g))
        after = project_qubit(evolved).as_vector()
        worst_defect = max(worst_defect,
                           float(np.linalg.norm(after - gate @ before)))
        worst_weight = max(worst_weight,
                           abs(np.sum(np.abs(after) ** 2) - np.sum(np.abs(before) ** 2)))
    assert worst_defect <= 1e-8
    assert worst_weight <= 1e-8
    _report(5, f"500 ops: intertwining defect {worst_defect:.2e}, "
               f"weight drift {worst_weight:.2e}")


def test_criterion_06_quarter_drift_gate_exact():
    rng = np.random.default_rng(106)
    worst_gate = 0.0
    worst_revival = 0.0
    for _ in range(50):
        state = random_interior_state(rng, 5, 10)
        evolved = apply_fsp(state, FspPhase.quarter(1))
        lhs = project_qubit(evolved).as_vector()
        rhs = np.diag([1.0, 1.0j]) @ project_qubit(state).as_vector()
        worst_gate = max(worst_gate, float(np.linalg.norm(lhs - rhs)))
        for full in (FspPhase.quarter(4), FspPhase(fraction=1.0)):
            revived = apply_fsp(state, full)
            worst_revival = max(worst_revival, state_distance(revived, state))
    assert worst_gate <= 1e-12
    assert worst_revival <= 1e-12
    _report(6, f"quarter drift is diag(1, i) to {worst_gate:.2e}; "
               f"full z_D revival to {worst_revival:.2e}")


def test_criterion_07_compiler_universality():
    rng = np.random.default_rng(107)
    t_start = time.perf_counter()
    worst_fidelity = 1.0
    for _ in range(1000):
        target = haar_unitary(rng)
        schedule = compile_gate(Gate("U", entries=tuple(target.ravel())), BEAM)
        assert schedule.n_pulses <= 3
        assert schedule.n_drifts <= 2
        assert all(isinstance(el.quarter_units, int)
                   for el in schedule.elements if hasattr(el, "quarter_units"))
        fidelity = gate_fidelity(effective_qubit_gate(schedule), target)
        worst_fidelity = min(worst_fidelity, fidelity)
    assert worst_fidelity >= 1 - 1e-7
    for kind in ("NOT", "H"):
        schedule = compile_gate(Gate(kind), BEAM)
        fidelity = gate_fidelity(effective_qubit_gate(schedule),
                                 Gate(kind).target_matrix())
        assert fidelity >= 1 - 1e-9
    elapsed = time.perf_counter() - t_start
    assert elapsed < 120.0
    _report(7, f"1000 Haar gates compiled and simulated, worst fidelity "
               f"1-{1 - worst_fidelity:.2e}, {elapsed:.1f}s")


def test_criterion_08_dispersion_length_scale():
    beam = derive_beam(200e3, 800e-9)
    assert abs(beam.z_d - Z_D_200KEV_800NM) / Z_D_200KEV_800NM <= 1e-6
    quarters = [derive_beam(ke, lam).quarter_length_m
                for ke in np.linspace(80e3, 200e3, 7)
                for lam in np.linspace(500e-9, 1600e-9, 12)]
    # the swept range overlaps 0.1 - 1 cm
    assert min(quarters) <= 1e-2
    assert max(quarters) >= 1e-3
    _report(8, f"z_D regression {beam.z_d:.12e} m; quarter-length sweep "
               f"[{min(quarters) * 100:.2f}, {max(quarters) * 100:.2f}] cm")


def test_criterion_09_thousand_level_occupancy_and_speed():
    # independent tail count from scipy's Bessel function
    j_row = jv(np.arange(701), 500.0)
    tail_probs = j_row**2
    cumulative = tail_probs[0] + 2.0 * np.cumsum(tail_probs[1:])
    k_oracle = int(np.searchsorted(cumulative, 1 - 1e-6)) + 1
    assert 2 * k_oracle + 1 == OCCUPIED_LEVELS_G250

    state = basis_state(0, 2048)  # 4097-level window
    policy = TruncationPolicy.fixed(2048)
    t_start = time.perf_counter()
    out = apply_pinem(state, PinemPulse.single(250.0), policy)
    elapsed = time.perf_counter() - t_start
    count = occupied_levels(out, 1 - 1e-6)
    assert count == OCCUPIED_LEVELS_G250
    assert 900 <= count <= 1300
    assert elapsed < 1.0
    single = occupied_levels(apply_pinem(basis_state(0, 8), PinemPulse.single(0.0)))
    assert single == 1
    _report(9, f"|g|=250 occupies {count} levels (oracle check passed); "
               f"{out.dim}-level convolution in {elapsed * 1e3:.1f} ms")


def test_criterion_10_tomography_round_trip():
    rng = np.random.default_rng(110)
    worst = 1.0
    for _ in range(3):
        amps = rng.normal(size=9) + 1j * rng.normal(size=9)
        amps /= np.linalg.norm(amps)
        true = LadderState(-4, amps)
        result = reconstruct_state(spectrogram(true, n_phases=32), seed=0)
        assert result.ok
        worst = min(worst, state_fidelity(result.state, true))
    assert worst >= 1 - 1e-6

    schedule = compile_gate(Gate("H"), BEAM)
    prepared = simulate_schedule(schedule, basis_state(0, 8)).trimmed()
    qubit = project_qubit(reconstruct_state(spectrogram(prepared), seed=0).state, edge_margin=0)
    assert abs(abs(qubit.alpha) - abs(qubit.beta)) <= 1e-3
    _report(10, f"noiseless 9-level fits: worst fidelity 1-{1 - worst:.2e}; "
                f"H pipeline ||alpha|-|beta|| = "
                f"{abs(abs(qubit.alpha) - abs(qubit.beta)):.2e}")


def test_criterion_11_period_p_projection():
    rng = np.random.default_rng(111)
    worst4 = 0.0
    for _ in range(200):
        state = random_interior_state(rng, 6, 12)
        pair = project_period_p(state, 2)
        qubit = project_qubit(state)
        assert pair[0] == qubit.alpha and pair[1] == qubit.beta
        four = project_period_p(state, 4)
        worst4 = max(worst4, float(np.max(np.abs(four - residue_sums_oracle(state, 4)))))
    assert worst4 <= 1e-12
    _report(11, f"period-2 bit-identical; period-4 vs brute force {worst4:.2e}")
