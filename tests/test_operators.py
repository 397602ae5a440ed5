import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh, expm
from scipy.special import jv

from fequbit import (
    FspPhase,
    LadderState,
    PinemPulse,
    TruncationPolicy,
    TruncationError,
    apply_fsp,
    apply_pinem,
    basis_state,
    eigenphases,
    pinem_kernel,
)
from fequbit.ladder import DEFAULT_EDGE_MARGIN, bessel_row
from fequbit.operators import CHEBYSHEV_TAIL_TOL, pinem_kernels
from helpers import (aligned_pair, bessel_tail_half_width, padded, random_interior_state,
                     state_distance)
from oracles import bessel_series, commutator_norm, pinem_amplitudes_oracle, pinem_generator


def test_generator_matches_printed_structure():
    a = pinem_generator(PinemPulse.single(1.0), 3)
    expected = np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=complex)
    assert np.array_equal(a, expected)


def test_generator_zero_coupling():
    a = pinem_generator(PinemPulse.single(0.0), 5)
    assert not a.any()


def test_generator_is_anti_hermitian():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pulse = PinemPulse.multi({
            1: complex(*rng.normal(size=2)),
            2: complex(*rng.normal(size=2)),
            3: complex(*rng.normal(size=2)),
        })
        a = pinem_generator(pulse, 24)
        assert np.max(np.abs(a + a.conj().T)) == 0.0


def test_generator_dim_validation():
    with pytest.raises(ValueError):
        pinem_generator(PinemPulse.single(1.0), 2)


def test_pulse_validation():
    with pytest.raises(ValueError):
        PinemPulse.multi({0: 1.0})
    with pytest.raises(ValueError):
        PinemPulse(())
    with pytest.raises(ValueError):
        PinemPulse(((1, 1.0), (1, 2.0)))
    pulse = PinemPulse.multi({2: 0.5j})
    assert pulse.g == 0.0
    assert not pulse.is_single_harmonic


def test_pulse_harmonic_index_must_be_an_integer():
    for h in (1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="harmonic index must be an integer"):
            PinemPulse.multi({h: 0.3j})
        with pytest.raises(ValueError, match="harmonic index must be an integer"):
            PinemPulse(((1, 0.1j), (h, 0.3j)))
    assert PinemPulse.multi({np.int64(2): 0.3j}).couplings == ((2, 0.3j),)


def test_zero_coupling_is_identity():
    state = basis_state(0, 8)
    out = apply_pinem(state, PinemPulse.single(0.0))
    assert out.amplitudes[-out.l_min] == pytest.approx(1.0, abs=1e-14)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_center_amplitude_is_j0():
    # 2|g| = 2 with arg(-g) = 0, i.e. g = -1
    out = apply_pinem(basis_state(0, 8), PinemPulse.single(-1.0))
    assert abs(out.amplitudes[-out.l_min]) == pytest.approx(abs(bessel_series(0, 2.0)),
                                                             abs=1e-12)


def test_population_of_a_pulsed_basis_state_is_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = complex(*rng.normal(size=2))
        out = apply_pinem(basis_state(0, 8), PinemPulse.single(g))
        p = out.probabilities()
        assert np.max(np.abs(p - p[::-1])) < 1e-14


def test_bessel_on_basis_reproduces_closed_form():
    g = 0.8 * np.exp(0.7j)
    out = apply_pinem(basis_state(0, 8), PinemPulse.single(g))
    expected = pinem_amplitudes_oracle(g, out.indices)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_weak_pulse_keeps_its_first_sidebands():
    # |g| = 5e-9: the l = +-1 sidebands, of amplitude 5e-9, stand far above the
    # kernel's tail budget and the 1e-13 amplitude tolerance
    g = 5e-9
    out = apply_pinem(basis_state(0, 8), PinemPulse.single(g))
    expected = np.exp(1j * np.angle(-g)) * jv(1, 2.0 * abs(g))  # -J_1(1e-8)
    assert abs(out.amplitudes[1 - out.l_min] - expected) <= 1e-13


def test_kernel_norm_is_one():
    for g in (0.2, 1.0, 9.5):
        kernel = pinem_kernel(g)
        assert np.sum(np.abs(kernel) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_bessel_vs_matexp_on_random_states():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = rng.uniform(0.1, 6.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        state = random_interior_state(rng, 4, 10)
        out = apply_pinem(state, PinemPulse.single(g))
        # the dense exponential on the result's window and 4 cells a side
        wide = padded(state, out.l_min - 4, out.l_min + out.dim + 3)
        dense = expm(pinem_generator(PinemPulse.single(g), wide.dim)) @ wide.amplitudes
        assert state_distance(out, LadderState(wide.l_min, dense)) < 1e-9


def test_multi_harmonic_agrees_with_spectral_exponential():
    # independent route: diagonalize i*A and exponentiate eigenvalues
    pulse = PinemPulse.multi({1: 0.6 - 0.2j, 2: 0.3j, 3: -0.1})
    state = random_interior_state(np.random.default_rng(2), 3, 30)
    out = apply_pinem(state, pulse, TruncationPolicy.fixed(30))
    h = 1j * pinem_generator(pulse, state.dim)
    lam, vec = eigh(h)
    u = (vec * np.exp(-1j * lam)) @ vec.conj().T
    expected = u @ state.amplitudes
    assert np.linalg.norm(out.amplitudes - expected) < 1e-12


def test_composition_of_parallel_pulses():
    rng = np.random.default_rng(4)
    for _ in range(5):
        mag1, mag2 = rng.uniform(0.2, 2.0, size=2)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        g1, g2 = mag1 * phase, mag2 * phase
        state = random_interior_state(rng, 3, 8)
        two_step = apply_pinem(apply_pinem(state, PinemPulse.single(g1)), PinemPulse.single(g2))
        one_step = apply_pinem(state, PinemPulse.single(g1 + g2))
        assert state_distance(two_step, one_step) < 1e-9


def test_truncation_error_on_fixed_window():
    policy = TruncationPolicy.fixed(6)
    with pytest.raises(TruncationError):
        apply_pinem(basis_state(0, 6), PinemPulse.single(3.0), policy)


@pytest.mark.parametrize("pulse", [PinemPulse.single(1.3j), PinemPulse.multi({1: 1.3j, 2: 0.4})],
                         ids=["single", "multi"])
def test_adaptive_result_is_trimmed_and_fixed_window_kept(pulse):
    fixed = apply_pinem(basis_state(0, 60), pulse, TruncationPolicy.fixed(60))
    assert (fixed.l_min, fixed.dim) == (-60, 121)
    trimmed = apply_pinem(basis_state(0, 8), pulse, TruncationPolicy.adaptive())
    x = 2.0 * sum(h * abs(g) for h, g in pulse.couplings)
    assert trimmed.dim < 17 + 2 * (math.ceil(x) + 8 + math.ceil(7.0 * x ** (1 / 3)))
    a, b = aligned_pair(trimmed, fixed)
    assert np.sum(np.abs(a - b)) <= CHEBYSHEV_TAIL_TOL
    for edge in (trimmed.amplitudes[:DEFAULT_EDGE_MARGIN],
                 trimmed.amplitudes[-DEFAULT_EDGE_MARGIN:]):
        assert np.sum(np.abs(edge)) <= CHEBYSHEV_TAIL_TOL / 2


def test_adaptive_trim_keeps_window_of_zero_state():
    zero = LadderState(-8, np.zeros(17))
    out = apply_pinem(zero, PinemPulse.single(1.3j))
    assert out.dim > zero.dim
    assert not np.any(out.amplitudes)


def test_multi_harmonic_on_a_wide_fixed_window_against_dense():
    state = basis_state(0, 550)
    policy = TruncationPolicy.fixed(550)
    pulse = PinemPulse.multi({1: 1.1j, 2: 0.7})
    out = apply_pinem(state, pulse, policy)
    h = 1j * pinem_generator(pulse, state.dim)
    lam, vec = eigh(h)
    expected = (vec * np.exp(-1j * lam)) @ (vec.conj().T @ state.amplitudes)
    assert np.linalg.norm(out.amplitudes - expected) < 1e-10


@pytest.mark.parametrize("h", [2, 3])
def test_harmonic_only_pulse_is_dilated_closed_form(h):
    # harmonic h alone moves the electron in steps of h photons, each step
    # weighted like the fundamental's closed form
    g = 0.8 * np.exp(0.7j)
    out = apply_pinem(basis_state(0, 8), PinemPulse.multi({h: g}))
    on_comb = out.indices % h == 0
    expected = np.zeros(out.dim, dtype=complex)
    expected[on_comb] = pinem_amplitudes_oracle(g, out.indices[on_comb] // h)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_multi_harmonic_strong_coupling_against_dense():
    # the kernel tails of every harmonic, dilated, at |g_1| = 50
    state = basis_state(0, 600)
    policy = TruncationPolicy.fixed(600)
    pulse = PinemPulse.multi({1: 50.0 * np.exp(0.4j), 2: 25.0 * np.exp(2.1j),
                              3: 10.0 * np.exp(-1.3j)})
    out = apply_pinem(state, pulse, policy)
    h = 1j * pinem_generator(pulse, state.dim)
    lam, vec = eigh(h)
    expected = (vec * np.exp(-1j * lam)) @ (vec.conj().T @ state.amplitudes)
    assert out.dim == 1201
    assert np.linalg.norm(out.amplitudes - expected) < 1e-11


@pytest.mark.parametrize("r", [1000.0, 2000.0, 5000.0])
def test_bessel_row_cut_meets_its_amplitude_bound(r):
    # cut at the squared budget tol^2 / 32, a Bessel row's l1 tail 2 sum_{j>K} |J_j(R)|
    # stays within tol
    k = bessel_tail_half_width(r, CHEBYSHEV_TAIL_TOL ** 2 / 32)
    tail = 2.0 * np.sum(np.abs(jv(np.arange(k + 1, k + 400), r)))
    assert tail <= CHEBYSHEV_TAIL_TOL


@pytest.mark.parametrize("r", [1.0, 10.0, 100.0, 500.0, 1000.0, 2000.0, 5000.0])
def test_pulse_kernel_cut_meets_its_bounds_at_the_budget_in_use(r):
    # pinem_kernel cuts at tol^2 / 8: the dropped tail's two-sided l2 norm, the
    # per-amplitude bound, is at most tol / sqrt(8) (measured <= 0.85 of it). Its
    # l1 norm, apply_pinem's bound on the state, stays within tol up to r = 1000
    # (measured <= 0.80 tol; pulses reach r = 500) and passes it above r ~ 2000.
    k = pinem_kernel(0.5j * r).size // 2
    tail = jv(np.arange(k + 1, k + 400), r)
    assert math.sqrt(2.0 * np.sum(tail * tail)) <= CHEBYSHEV_TAIL_TOL / math.sqrt(8.0)
    if r <= 1000.0:
        assert 2.0 * np.sum(np.abs(tail)) <= CHEBYSHEV_TAIL_TOL


def test_fsp_zero_distance_is_identity():
    state = random_interior_state(np.random.default_rng(6), 4, 8)
    out = apply_fsp(state, FspPhase.quarter(0))
    assert np.array_equal(out.amplitudes, state.amplitudes)
    out = apply_fsp(state, FspPhase(fraction=0.0))
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_fsp_full_revival():
    state = random_interior_state(np.random.default_rng(7), 6, 9)
    assert np.array_equal(apply_fsp(state, FspPhase.quarter(4)).amplitudes,
                          state.amplitudes)
    assert np.array_equal(apply_fsp(state, FspPhase(fraction=1.0)).amplitudes,
                          state.amplitudes)


def test_fsp_quarter_on_even_level_is_trivial():
    state = basis_state(2, 8)
    out = apply_fsp(state, FspPhase.quarter(1))
    assert out.amplitudes[2 - out.l_min] == 1.0


def test_fsp_quarter_composition_exact():
    state = random_interior_state(np.random.default_rng(8), 5, 9)
    combined = apply_fsp(state, FspPhase.quarter(3))
    stepped = state
    for _ in range(3):
        stepped = apply_fsp(stepped, FspPhase.quarter(1))
    assert np.array_equal(combined.amplitudes, stepped.amplitudes)


@pytest.mark.parametrize("l_min", [-5, -4, 3, 6])
def test_fsp_quarter_is_the_unit_root_table(l_min):
    # level l gains i^(k l^2), and l^2 mod 4 is the parity of l
    rng = np.random.default_rng(12)
    state = LadderState(l_min, rng.normal(size=11) + 1j * rng.normal(size=11))
    table = np.array([1.0, 1j, -1.0, -1j])
    for k in range(9):
        expected = state.amplitudes * table[(k * state.indices ** 2) % 4]
        assert np.array_equal(apply_fsp(state, FspPhase.quarter(k)).amplitudes, expected)


def test_fsp_sign_convention_odd_levels_gain_plus_i():
    # the global sign choice everything downstream relies on
    out = apply_fsp(basis_state(1, 4), FspPhase.quarter(1))
    assert out.amplitudes[1 - out.l_min] == 1j
    out = apply_fsp(basis_state(-3, 4), FspPhase.quarter(1))
    assert out.amplitudes[-3 - out.l_min] == 1j


def test_fsp_fraction_matches_quarter_grid():
    state = random_interior_state(np.random.default_rng(9), 5, 9)
    for k in range(1, 5):
        a = apply_fsp(state, FspPhase.quarter(k))
        b = apply_fsp(state, FspPhase(fraction=k / 4.0))
        assert state_distance(a, b) < 1e-12


def test_fsp_norm_exact():
    state = random_interior_state(np.random.default_rng(10), 5, 9)
    out = apply_fsp(state, FspPhase(fraction=0.1937))
    assert out.norm() == pytest.approx(state.norm(), abs=1e-15)


def test_fsp_phase_validation():
    with pytest.raises(ValueError):
        FspPhase(quarter_units=1, fraction=0.5)
    with pytest.raises(ValueError):
        FspPhase()
    with pytest.raises(ValueError):
        FspPhase.quarter(-1)


@pytest.mark.parametrize("make", [lambda k: FspPhase(quarter_units=k), FspPhase.quarter],
                         ids=["constructor", "quarter"])
def test_drift_quarter_units_must_be_an_integer(make):
    for k in (1.5, 2.0, "1"):
        with pytest.raises(ValueError, match="quarter_units must be an integer"):
            make(k)
    drift = make(np.int64(3))  # an integer of any type is held as a Python int
    assert type(drift.quarter_units) is int and drift == FspPhase.quarter(3)


def test_eigenphases_zero_coupling():
    phases = eigenphases(PinemPulse.single(0.0), 11)
    assert np.array_equal(phases, np.zeros(11))


def test_eigenphases_arc_bound():
    phases = eigenphases(PinemPulse.single(0.25), 201)
    assert phases.size == 201
    assert np.max(np.abs(phases)) <= 0.25 * 2 + 0.02


def test_eigenphases_sorted_in_principal_interval():
    phases = eigenphases(PinemPulse.single(2.0), 101)
    assert np.all(np.diff(phases) >= 0)
    assert np.all(phases > -np.pi)
    assert np.all(phases <= np.pi)


def test_eigenphases_validation():
    with pytest.raises(ValueError):
        eigenphases(PinemPulse.single(1.0), 10)
    with pytest.raises(ValueError):
        eigenphases(PinemPulse.multi({2: 1.0}), 11)


def test_eigenphases_gap_closes_past_threshold():
    # below threshold: a gap of ~2(pi - 2|g|) stays open around the arc ends
    below = eigenphases(PinemPulse.single(1.2), 201)
    gaps = np.diff(np.concatenate([below, [below[0] + 2 * np.pi]]))
    assert gaps.max() > 0.5
    above = eigenphases(PinemPulse.single((np.pi + 0.2) / 2), 201)
    gaps = np.diff(np.concatenate([above, [above[0] + 2 * np.pi]]))
    assert gaps.max() < 0.2


def test_commutator_same_pulse_vanishes():
    pulse = PinemPulse.single(0.9 + 0.4j)
    assert commutator_norm(pulse, pulse, 101, 20) < 1e-14


def test_commutator_distinct_pulses_small_on_interior():
    p1 = PinemPulse.single(0.8 + 0.3j)
    p2 = PinemPulse.single(1.1 * np.exp(0.7j))
    assert commutator_norm(p1, p2, 201, 40) < 1e-8


def test_commutator_with_second_harmonic_small():
    p1 = PinemPulse.single(0.9)
    p2 = PinemPulse.multi({2: 0.8j})
    assert commutator_norm(p1, p2, 201, 40) < 1e-8


def test_commutator_margin_validation():
    with pytest.raises(ValueError):
        commutator_norm(PinemPulse.single(1.0), PinemPulse.single(2.0), 11, 6)


def test_unitarity_randomized():
    rng = np.random.default_rng(12)
    for _ in range(25):
        state = random_interior_state(rng, 3, 8)
        g = rng.uniform(0, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        out = apply_pinem(state, PinemPulse.single(g))
        assert abs(out.norm() - 1.0) < 1e-10
        out = apply_fsp(state, FspPhase(fraction=rng.uniform(0, 1)))
        assert abs(out.norm() - 1.0) < 1e-10


@pytest.mark.parametrize("g", [1.7 * np.exp(0.9j), 0.3 * np.exp(-2.2j)])
@pytest.mark.parametrize("dim", [3, 11, 201])
def test_eigenphases_match_dense_eigh_for_complex_coupling(g, dim):
    # the gauge to real |g| off-diagonals must keep the spectrum of the
    # complex generator
    pulse = PinemPulse.single(g)
    lam = eigh(1j * pinem_generator(pulse, dim), eigvals_only=True)
    dense = np.mod(-lam + np.pi, 2.0 * np.pi) - np.pi
    dense[dense == -np.pi] = np.pi
    assert np.max(np.abs(eigenphases(pulse, dim) - np.sort(dense))) <= 1e-12


def test_eigenphases_match_toeplitz_closed_form():
    g, dim = 0.8 * np.exp(0.4j), 1001
    lam = 2.0 * abs(g) * np.cos(np.arange(1, dim + 1) * np.pi / (dim + 1))
    assert np.max(np.abs(eigenphases(PinemPulse.single(g), dim) - np.sort(-lam))) <= 1e-12


def _circular_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    """Largest circular distance between two sets of angles, each matched to
    one of the other. On a circle the best such matching of two sorted sets
    is a cyclic shift of one of them, so every shift is tried."""
    a, b = np.sort(a), np.sort(b)
    return min(np.max(np.abs(np.angle(np.exp(1j * (a - np.roll(b, s))))))
               for s in range(b.size))


@pytest.mark.parametrize("g", [0.25, -0.7, 1.3j, -3.0j, 2.5 * np.exp(-0.6j),
                               4.0 * np.exp(2.1j)])
@pytest.mark.parametrize("dim", [3, 11, 51, 201])
def test_eigenphases_match_eigenvalues_of_dense_exponential(g, dim):
    # independent of the gauge and the closed form: the arguments of the
    # eigenvalues of the truncated unitary itself
    pulse = PinemPulse.single(g)
    dense = np.angle(np.linalg.eigvals(expm(pinem_generator(pulse, dim))))
    assert _circular_mismatch(eigenphases(pulse, dim), dense) <= 1e-12


@pytest.mark.parametrize("g", [1e308, complex(1e308, 1e308), np.inf, np.nan])
def test_eigenphases_reject_a_coupling_whose_2g_is_not_finite(g):
    with pytest.raises(ValueError):
        eigenphases(PinemPulse.single(g), 21)


def test_eigenphases_reject_dim_below_three():
    with pytest.raises(ValueError):
        eigenphases(PinemPulse.single(1.0), 1)


def test_eigenphases_allocate_no_square_array():
    dim = 1001
    eigenphases(PinemPulse.single(1.3), dim)  # first call loads the solver
    tracemalloc.start()
    try:
        eigenphases(PinemPulse.single(1.3), dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dim * dim // 8  # an eighth of one real (dim, dim) array


def jacobi_anger_reference(state: LadderState, pulse: PinemPulse) -> LadderState:
    """Per-harmonic convolutions with kernels running to ceil(2|g|) + 200 terms,
    far past any tail budget, on a window that crops nothing."""
    amps, l_min = state.amplitudes, state.l_min
    for h, g in pulse.couplings:
        n = int(np.ceil(2 * abs(g))) + 200
        k = np.arange(-n, n + 1)
        dilated = np.zeros(2 * h * n + 1, dtype=np.complex128)
        dilated[::h] = np.exp(1j * np.angle(-g) * k) * jv(k, 2 * abs(g))
        amps, l_min = np.convolve(amps, dilated), l_min - h * n
    return LadderState(l_min, amps)


@pytest.mark.parametrize("pulse", [
    PinemPulse.multi({1: 4 * np.exp(0.3j), 2: 2 * np.exp(2.0j), 3: np.exp(-1.1j)}),
    PinemPulse.single(250),
], ids=["multi", "single-250"])
def test_adaptive_pulse_crops_nothing_its_kernels_keep(pulse):
    # the adaptive window is the kernels' own support, so the only errors are
    # the kernel tails and the trim, each far below 1e-13 in l2
    state = basis_state(0, 8)
    out = apply_pinem(state, pulse, TruncationPolicy.adaptive())
    assert state_distance(out, jacobi_anger_reference(state, pulse)) <= 1e-13


# theta in [-pi, pi], with its ends, +-pi/2 and values near 0
KERNEL_THETAS = sorted({*np.linspace(-math.pi, math.pi, 61).tolist(), math.pi / 2, -math.pi / 2,
                        1e-12, -1e-12, 3e-7, -3e-7})


@pytest.mark.parametrize("theta", KERNEL_THETAS)
def test_compiled_pulse_kernel_is_the_exact_quarter_turn_phase(theta):
    # g = -i theta / 2 has arg(-g) = +-pi/2, so f_k = s^k J_k with s = i sign(theta):
    # each part is +-J_|k| or exactly 0.0, and f_-k = f_k
    kernel = pinem_kernel(-0.5j * theta)
    row = bessel_row(abs(theta), CHEBYSHEV_TAIL_TOL ** 2 / 8)
    assert kernel.shape == row.shape
    k_half = row.size // 2
    s = 1j if theta > 0 else -1j
    quarter_turns = [1, s, -1, -s]  # s^k for k mod 4, exact
    expected = np.array([quarter_turns[k % 4] * row[k_half + k]
                         for k in range(-k_half, k_half + 1)])
    assert np.array_equal(kernel, expected)
    assert np.array_equal(kernel, kernel[::-1])
    odd = np.arange(-k_half, k_half + 1) % 2 == 1
    assert np.all(kernel.real[odd] == 0.0) and np.all(kernel.imag[~odd] == 0.0)


@pytest.mark.parametrize("apply, change", [
    (apply_pinem, PinemPulse.single(-0.9j)),
    (apply_pinem, PinemPulse.single(0.4 * np.exp(1.2j))),
    (apply_pinem, PinemPulse.multi({1: 0.3j, 2: 0.5})),
    (apply_fsp, FspPhase.quarter(1)),
    (apply_fsp, FspPhase.quarter(0)),
    (apply_fsp, FspPhase(fraction=0.3)),
], ids=["compiled", "complex", "multi", "quarter", "zero-drift", "fraction"])
@pytest.mark.parametrize("policy", [TruncationPolicy.adaptive(), TruncationPolicy.fixed(40)],
                         ids=["adaptive", "fixed"])
def test_operator_results_are_read_only_and_share_no_memory(apply, change, policy):
    state = random_interior_state(np.random.default_rng(5), 3, 40)
    out = apply(state, change, policy) if apply is apply_pinem else apply(state, change)
    assert out.amplitudes.dtype == np.complex128 and out.amplitudes.ndim == 1
    assert not out.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        out.amplitudes[0] = 1.0
    assert not np.shares_memory(out.amplitudes, state.amplitudes)
    assert state.norm() == pytest.approx(1.0, abs=1e-14)  # the input is untouched


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_drift_fraction_that_is_not_finite_is_rejected(r):
    with pytest.raises(ValueError, match="not finite"):
        FspPhase(fraction=r)


@pytest.mark.parametrize("g", [complex(0.0, math.inf), complex(0.0, -math.inf),
                               complex(0.0, math.nan), complex(math.inf, 1.0),
                               complex(math.nan, 0.0), complex(1e308, 1e308)])
def test_pulse_coupling_whose_2g_is_not_finite_is_rejected(g):
    with pytest.raises(ValueError, match="not finite"):
        pinem_kernel(g)
    with pytest.raises(ValueError, match="not finite"):
        pinem_kernels([0.5j, g, -0.5j])
    with pytest.raises(ValueError, match="not finite"):
        apply_pinem(basis_state(0, 8), PinemPulse.single(g))


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_bessel_row_of_a_non_finite_argument_is_rejected(x):
    with pytest.raises(ValueError, match="not finite"):
        bessel_row(x, 1e-24)
