import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from fequbit import (
    Gate,
    LadderState,
    PinemPulse,
    Spectrogram,
    Spectrum,
    TruncationPolicy,
    add_shot_noise,
    apply_pinem,
    apply_pinem_bessel,
    basis_state,
    compile_gate,
    derive_beam,
    eels_spectrum,
    readout_qubit,
    reconstruct_state,
    simulate_schedule,
    spectrogram,
)
from fequbit.tomography import _fit_window, _fourier_seed
from helpers import random_interior_state, state_fidelity
from oracles import bessel_series

BEAM = derive_beam(200e3, 800e-9)


def normalized_random_state(seed, n=9, l_min=-4):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps /= np.linalg.norm(amps)
    return LadderState(l_min, amps)


# ---------------------------------------------------------------- spectra

def test_eels_of_basis_state():
    spec = eels_spectrum(basis_state(0, 8))
    assert spec.probabilities[8] == 1.0
    assert spec.probabilities.sum() == 1.0


def test_eels_post_pulse_is_squared_bessel_and_phase_blind():
    mag = 1.3
    spectra = []
    for arg in (0.0, 2.1):
        out = apply_pinem_bessel(basis_state(0, 8),
                                 PinemPulse.single(mag * np.exp(1j * arg)))
        spectra.append(eels_spectrum(out))
    a, b = spectra
    assert a.l_min == b.l_min
    assert np.max(np.abs(a.probabilities - b.probabilities)) < 1e-14
    for l in range(-3, 4):
        expected = bessel_series(l, 2 * mag) ** 2
        assert a.probabilities[l - a.l_min] == pytest.approx(expected, abs=1e-12)


def test_eels_rejects_unnormalized():
    with pytest.raises(ValueError):
        eels_spectrum(LadderState(0, np.array([0.5 + 0j, 0.5 + 0j])))


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(0, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        Spectrum(0, np.array([1.1, -0.1]))


def test_spectrum_json_roundtrip():
    spec = eels_spectrum(normalized_random_state(1))
    again = Spectrum.from_json(spec.to_json())
    assert again.l_min == spec.l_min
    assert np.array_equal(again.probabilities, spec.probabilities)


# ---------------------------------------------------------------- spectrogram

def test_spectrogram_columns_sum_to_one():
    sg = spectrogram(normalized_random_state(2), probe_magnitude=1.0, n_phases=16)
    assert np.allclose(sg.data.sum(axis=0), 1.0, atol=1e-12)
    col = sg.column(3)
    assert col.probabilities.sum() == pytest.approx(1.0, abs=1e-9)


def test_spectrogram_of_basis_state_is_phase_independent():
    sg = spectrogram(basis_state(0, 4), n_phases=8)
    first = sg.data[:, :1]
    assert np.max(np.abs(sg.data - first)) < 1e-14


def test_spectrogram_global_phase_invariance():
    state = normalized_random_state(3)
    rotated = LadderState(state.l_min, np.exp(0.7j) * state.amplitudes)
    a = spectrogram(state, n_phases=16)
    b = spectrogram(rotated, n_phases=16)
    assert np.max(np.abs(a.data - b.data)) < 1e-15


def test_spectrogram_matches_pulse_plus_eels():
    state = normalized_random_state(4)
    sg = spectrogram(state, probe_magnitude=0.9, n_phases=8)
    chi = sg.scan_phases[5]
    probed = apply_pinem_bessel(state, PinemPulse.single(0.9 * np.exp(1j * chi)))
    spec = eels_spectrum(probed)
    # the pulse path pads more generously; align on the spectrogram window
    expected = np.array([
        spec.probabilities[l - spec.l_min]
        if spec.l_min <= l <= spec.l_min + spec.probabilities.size - 1 else 0.0
        for l in sg.indices])
    assert np.max(np.abs(sg.data[:, 5] - expected)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(amps=st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                        allow_infinity=False), min_size=1, max_size=11),
       l_min=st.integers(-20, 20),
       probe=st.floats(0.05, 10.0, exclude_min=True),
       n_phases=st.integers(8, 40),
       data=st.data())
def test_spectrogram_column_is_a_probe_pulse_then_eels(amps, l_min, probe, n_phases, data):
    # pins the scan-phase gauge to the phase convention of the pulse operator
    amps = np.asarray(amps, dtype=np.complex128)
    if np.linalg.norm(amps) < 1e-3:
        amps = np.ones(1, dtype=np.complex128)
    state = LadderState(l_min, amps / np.linalg.norm(amps))
    sg = spectrogram(state, probe_magnitude=probe, n_phases=n_phases)
    j = data.draw(st.integers(0, n_phases - 1))
    half = max(abs(sg.l_min), abs(sg.l_min + sg.n_levels - 1)) + 8
    probed = apply_pinem(state.padded(-half, half),
                         PinemPulse.single(probe * np.exp(1j * sg.scan_phases[j])),
                         TruncationPolicy.fixed(half))
    spec = eels_spectrum(probed)
    rows = sg.indices - spec.l_min
    assert np.max(np.abs(sg.data[:, j] - spec.probabilities[rows])) <= 1e-12


def test_spectrogram_validation():
    state = basis_state(0, 4)
    with pytest.raises(ValueError):
        spectrogram(state, probe_magnitude=0.0)
    with pytest.raises(ValueError):
        spectrogram(state, n_phases=4)


def test_spectrogram_csv_roundtrip(tmp_path):
    sg = spectrogram(normalized_random_state(5), probe_magnitude=0.8, n_phases=8)
    path = tmp_path / "sg.csv"
    sg.to_csv(path)
    again = type(sg).from_csv(path)
    assert again.l_min == sg.l_min
    assert again.probe_magnitude == sg.probe_magnitude
    assert np.array_equal(again.scan_phases, sg.scan_phases)
    assert np.array_equal(again.data, sg.data)


def test_spectrogram_csv_rejects_bad_level_rows(tmp_path):
    path = tmp_path / "sg.csv"
    header = "l,0.0,3.14\nprobe,1.0,1.0\n"
    path.write_text(header + "0,0.5,0.5\n2,0.5,0.5\n")
    with pytest.raises(ValueError):
        Spectrogram.from_csv(path)
    path.write_text(header + "0,0.5,0.5\n1,0.5\n")
    with pytest.raises(ValueError):
        Spectrogram.from_csv(path)


@pytest.mark.parametrize("x", [2.0, 10.0, 100.0, 200.0, 500.0])
def test_probe_window_is_smallest_within_tail_budget(x):
    # K is the smallest half-width whose dropped tail 2 sum_{k>K} J_k(x)^2 is <= 1e-24
    state = basis_state(0, 1)
    sg = spectrogram(state, probe_magnitude=x / 2, n_phases=8)
    k_half = (sg.n_levels - state.dim) // 2

    def tail(k):
        return 2.0 * np.sum(jv(np.arange(k + 1, int(x) + 400), x)[::-1] ** 2)

    assert tail(k_half) <= 1e-24 < tail(k_half - 1)


def test_shot_noise_determinism_and_normalization():
    sg = spectrogram(normalized_random_state(6), n_phases=8)
    a = add_shot_noise(sg, 1e5, seed=9)
    b = add_shot_noise(sg, 1e5, seed=9)
    c = add_shot_noise(sg, 1e5, seed=10)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert np.allclose(a.data.sum(axis=0), 1.0)


# ---------------------------------------------------------------- reconstruction

def test_reconstruct_noiseless_nine_levels():
    true = normalized_random_state(7)
    sg = spectrogram(true, n_phases=32)
    result = reconstruct_state(sg, seed=0)
    assert result.ok
    assert state_fidelity(result.state, true) >= 1 - 1e-6


def test_reconstruct_basis_state():
    sg = spectrogram(basis_state(0, 4), n_phases=16)
    result = reconstruct_state(sg, seed=0)
    fid = state_fidelity(result.state, basis_state(0, 4))
    assert fid >= 1 - 1e-9


def test_reconstruct_is_global_phase_blind():
    state = normalized_random_state(8)
    rotated = LadderState(state.l_min, np.exp(1.1j) * state.amplitudes)
    a = reconstruct_state(spectrogram(state), seed=0)
    b = reconstruct_state(spectrogram(rotated), seed=0)
    # the data differ only by float rounding, so both fits land on the same
    # fixed-phase representative (the pair overlap includes relative phase)
    assert state_fidelity(a.state, b.state) >= 1 - 1e-10
    assert abs(np.vdot(a.state.amplitudes, b.state.amplitudes).imag) < 1e-6
    anchor = np.argmax(np.abs(a.state.amplitudes))
    val = a.state.amplitudes[anchor]
    assert val.real > 0
    assert abs(val.imag) < 1e-12 * abs(val)


def test_reconstruct_with_shot_noise():
    true = normalized_random_state(9)
    sg = add_shot_noise(spectrogram(true), 1e6, seed=1)
    result = reconstruct_state(sg, seed=0)
    assert result.ok
    assert state_fidelity(result.state, true) >= 0.99


def test_population_consistency_within_residual():
    true = normalized_random_state(10)
    sg = add_shot_noise(spectrogram(true), 1e6, seed=2)
    result = reconstruct_state(sg, seed=0)
    predicted = spectrogram(result.state, sg.probe_magnitude, sg.n_phases)
    lo = predicted.l_min - sg.l_min
    # fit window equals data window here, so the model rows align after padding
    pred = np.zeros_like(sg.data)
    src = predicted.data[max(0, -lo):, :]
    pred[max(0, lo):max(0, lo) + src.shape[0], :] = src[:sg.n_levels - max(0, lo)]
    averaged_gap = np.linalg.norm(pred.mean(axis=1) - sg.data.mean(axis=1))
    assert averaged_gap <= result.residual + 1e-12


def test_reconstruction_failure_is_flagged():
    true = normalized_random_state(11)
    sg = add_shot_noise(spectrogram(true), 200.0, seed=3)
    result = reconstruct_state(sg, n_restarts=2, seed=0)
    assert not result.ok
    assert result.residual > 0.05


def test_fit_that_succeeds_stops_after_its_first_start():
    sg = add_shot_noise(spectrogram(normalized_random_state(9)), 1e6, seed=1)
    result = reconstruct_state(sg, seed=0)
    assert result.ok
    assert result.restarts == 1
    assert result.best_restart == 0


def test_failing_fit_runs_every_start():
    sg = add_shot_noise(spectrogram(normalized_random_state(11)), 200.0, seed=3)
    result = reconstruct_state(sg, n_restarts=3, seed=0)
    assert not result.ok
    assert result.restarts == 3


def test_reconstruction_report_roundtrip():
    sg = spectrogram(normalized_random_state(12), n_phases=16)
    result = reconstruct_state(sg, seed=5)
    again = type(result).from_json(result.to_json())
    assert again.residual == result.residual
    assert again.seed == 5
    assert np.array_equal(again.state.amplitudes, result.state.amplitudes)
    # minimal schema without the diagnostic extras still loads
    minimal = {"state": result.state.to_json(), "residual": result.residual,
               "restarts": result.restarts, "seed": result.seed}
    loaded = type(result).from_json(minimal)
    assert loaded.ok == result.ok


def test_noise_monotonicity_of_median_fidelity():
    fidelities = {counts: [] for counts in (1e7, 1e6, 1e5)}
    for seed in range(5):
        true = normalized_random_state(100 + seed)
        clean = spectrogram(true)
        for counts in fidelities:
            noisy = add_shot_noise(clean, counts, seed=7 * seed + 1)
            result = reconstruct_state(noisy, n_restarts=4, seed=0)
            fidelities[counts].append(state_fidelity(result.state, true))
    medians = [float(np.median(fidelities[c])) for c in (1e7, 1e6, 1e5)]
    assert medians[0] >= medians[1] >= medians[2]


def even_comb_state(seed=0):
    rng = np.random.default_rng(seed)
    amps = np.zeros(9, dtype=np.complex128)
    amps[::2] = rng.normal(size=5) + 1j * rng.normal(size=5)
    return LadderState(-4, amps / np.linalg.norm(amps))


def gate_prepared(gate):
    return simulate_schedule(compile_gate(Gate(gate), BEAM), basis_state(0, 8)).trimmed()


def seed_fidelity(sg, true):
    fit_l_min, n_par = _fit_window(sg, None)
    return state_fidelity(LadderState(fit_l_min, _fourier_seed(sg, fit_l_min, n_par)), true)


@pytest.mark.parametrize("n_phases", [16, 32])
@pytest.mark.parametrize("make", [
    lambda: normalized_random_state(20), lambda: normalized_random_state(21),
    lambda: normalized_random_state(22), even_comb_state,
    lambda: gate_prepared("H"), lambda: gate_prepared("T"), lambda: gate_prepared("NOT"),
], ids=["random20", "random21", "random22", "even-comb", "H", "T", "NOT"])
def test_fourier_seed_is_exact_noiseless(make, n_phases):
    true = make()
    assert seed_fidelity(spectrogram(true, n_phases=n_phases), true) >= 1 - 1e-12


def test_fourier_seed_follows_the_recorded_phases():
    # columns stored in another order, each with its own phase: the seed reads
    # the phases, not the column index, so it is as good as before
    true = normalized_random_state(23)
    sg = spectrogram(true, n_phases=16)
    order = np.random.default_rng(4).permutation(sg.n_phases)
    shuffled = Spectrogram(sg.scan_phases[order], sg.l_min, sg.data[:, order],
                           sg.probe_magnitude)
    fid = seed_fidelity(shuffled, true)
    assert fid >= 1 - 1e-12
    assert fid == pytest.approx(seed_fidelity(sg, true), abs=1e-12)


def test_reconstruct_even_comb_noiseless():
    true = even_comb_state()
    result = reconstruct_state(spectrogram(true), seed=0)
    assert result.ok
    assert state_fidelity(result.state, true) >= 1 - 1e-9


@pytest.mark.parametrize("counts", [1e5, 1e6])
def test_noisy_fit_ends_at_the_shot_noise_floor(counts):
    # Poisson noise leaves a residual of about sqrt(n_phases / counts) at the
    # optimum; a fit stopped early would sit above it, one fitting noise below
    true = normalized_random_state(24)
    sg = add_shot_noise(spectrogram(true), counts, seed=5)
    result = reconstruct_state(sg, seed=0)
    assert result.ok
    assert result.restarts == 1
    floor = np.sqrt(sg.n_phases / counts)
    assert 0.5 * floor <= result.residual <= 1.5 * floor


def test_reconstruct_validation():
    sg = spectrogram(normalized_random_state(13), n_phases=8)
    with pytest.raises(ValueError):
        reconstruct_state(sg, n_restarts=0)


# ---------------------------------------------------------------- readout

def test_readout_prepared_zero():
    qubit, residual = readout_qubit(spectrogram(basis_state(0, 4)), seed=0)
    assert abs(abs(qubit.alpha) - 1.0) < 1e-6
    assert abs(qubit.beta) < 1e-6
    assert residual < 1e-8


def test_readout_after_not_gate():
    schedule = compile_gate(Gate("NOT"), BEAM)
    state = simulate_schedule(schedule, basis_state(0, 8))
    qubit, _ = readout_qubit(spectrogram(state), seed=0)
    assert abs(qubit.alpha) < 1e-3
    assert abs(abs(qubit.beta) - 1.0) < 1e-3


def test_readout_after_hadamard():
    schedule = compile_gate(Gate("H"), BEAM)
    state = simulate_schedule(schedule, basis_state(0, 8))
    qubit, _ = readout_qubit(spectrogram(state), seed=0)
    assert abs(abs(qubit.alpha) - abs(qubit.beta)) < 1e-3


def test_adaptive_policy_fits_the_whole_data_window():
    # an adaptive policy sizes no fit window: it fits every data row, as None does
    sg = spectrogram(gate_prepared("H"))
    assert _fit_window(sg, TruncationPolicy.adaptive()) == _fit_window(sg, None)
    qubit, _ = readout_qubit(sg, window=TruncationPolicy.adaptive())
    # 1 + 7e-8 on the whole window; a [-8, 8] fit of this [-12, 12] state gave 1 - 7e-6
    assert qubit.weight == pytest.approx(1.0, abs=1e-6)
