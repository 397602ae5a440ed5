import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from fequbit import (
    ConfigurationError,
    Gate,
    LadderState,
    PinemPulse,
    Spectrogram,
    Spectrum,
    TruncationPolicy,
    add_shot_noise,
    apply_pinem,
    basis_state,
    compile_gate,
    derive_beam,
    eels_spectrum,
    project_qubit,
    reconstruct_state,
    simulate_schedule,
    spectrogram,
)
from fequbit.ladder import DEFAULT_POLICY
from fequbit.tomography import _fit_window, _fourier_seed, _levenberg_marquardt, _toeplitz
from fequbit.tomography import DEFAULT_PROBE_MAGNITUDE, MAX_COUNTS, _probe_row
from helpers import padded, random_interior_state, state_fidelity
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
        out = apply_pinem(basis_state(0, 8), PinemPulse.single(mag * np.exp(1j * arg)))
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
    with pytest.raises(ValueError, match=r"norm\^2 = nan;"):
        eels_spectrum(LadderState._adopt(0, np.array([np.nan, 1.0], dtype=np.complex128)))


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(0, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        Spectrum(0, np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="sum to nan,"):
        Spectrum(0, np.array([np.nan, 0.5]))
    with pytest.raises(ValueError, match="sum to inf,"):
        Spectrum(0, np.array([np.inf, 0.5]))
    for bad in (np.array([]), np.ones((1, 1))):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            Spectrum(0, bad)


def test_spectrum_json_roundtrip():
    spec = eels_spectrum(normalized_random_state(1))
    doc = json.loads(json.dumps(spec.to_json()))
    assert doc["l_min"] == spec.l_min
    assert np.array_equal(doc["probabilities"], spec.probabilities)


# ---------------------------------------------------------------- spectrogram

def test_spectrogram_columns_sum_to_one():
    sg = spectrogram(normalized_random_state(2), probe_magnitude=1.0, n_phases=16)
    assert np.allclose(sg.data.sum(axis=0), 1.0, atol=1e-12)
    col = Spectrum(sg.l_min, sg.data[:, 3])
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
    probed = apply_pinem(state, PinemPulse.single(0.9 * np.exp(1j * chi)))
    spec = eels_spectrum(probed)
    # the pulse path pads more generously; align on the spectrogram window
    expected = np.array([
        spec.probabilities[l - spec.l_min]
        if spec.l_min <= l <= spec.l_min + spec.probabilities.size - 1 else 0.0
        for l in np.arange(sg.l_min, sg.l_min + sg.n_levels)])
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
    probed = apply_pinem(padded(state, -half, half),
                         PinemPulse.single(probe * np.exp(1j * sg.scan_phases[j])),
                         TruncationPolicy.fixed(half))
    spec = eels_spectrum(probed)
    rows = np.arange(sg.l_min, sg.l_min + sg.n_levels) - spec.l_min
    assert np.max(np.abs(sg.data[:, j] - spec.probabilities[rows])) <= 1e-12


def test_spectrogram_validation():
    state = basis_state(0, 4)
    with pytest.raises(ValueError):
        spectrogram(state, probe_magnitude=0.0)
    with pytest.raises(ValueError):
        spectrogram(state, n_phases=4)
    # a float count, even a whole one, is no phase count
    for n_phases in (8.5, 32.0):
        with pytest.raises(ValueError, match="n_phases must be an integer"):
            spectrogram(state, n_phases=n_phases)
    with pytest.raises(ValueError, match=r"\(n_levels, n_phases\)"):
        Spectrogram(np.array([0.0, 1.0]), 0, np.array([[1.0]]))


def test_spectrogram_csv_roundtrip(tmp_path):
    sg = spectrogram(normalized_random_state(5), probe_magnitude=0.8, n_phases=8)
    path = tmp_path / "sg.csv"
    sg.to_csv(path)
    again = type(sg).from_csv(path)
    assert again.l_min == sg.l_min
    assert again.probe_magnitude == sg.probe_magnitude
    assert np.array_equal(again.scan_phases, sg.scan_phases)
    assert np.array_equal(again.data, sg.data)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(l_min=st.integers(-2 ** 62, 2 ** 62 - 8), n_levels=st.integers(1, 4),
       phases=st.lists(_FINITE, min_size=1, max_size=4),
       probe=st.floats(0.0, exclude_min=True, allow_infinity=False), data=st.data())
def test_spectrogram_csv_roundtrip_is_bit_exact(tmp_path_factory, l_min, n_levels, phases,
                                                probe, data):
    size = n_levels * len(phases)
    values = data.draw(st.lists(_FINITE, min_size=size, max_size=size))
    sg = Spectrogram(np.array(phases), l_min, np.reshape(values, (n_levels, len(phases))),
                     probe)
    path = tmp_path_factory.mktemp("csv") / "sg.csv"
    sg.to_csv(path)
    again = Spectrogram.from_csv(path)
    assert (again.l_min, again.probe_magnitude) == (l_min, probe)
    assert again.scan_phases.tobytes() == sg.scan_phases.tobytes()
    assert again.data.tobytes() == sg.data.tobytes()


def test_spectrogram_csv_rejects_bad_level_rows(tmp_path):
    path = tmp_path / "sg.csv"
    header = "l,0.0,3.14\nprobe,1.0,1.0\n"
    for text in (header + "0,0.5,0.5\n2,0.5,0.5\n", header + "0,0.5,0.5\n1,0.5\n",
                 "", "l,0.0,3.14\n", "l,0.0\nprobe\n0,1.0\n", header + "0,0.5,half\n",
                 "l\nprobe,1\n0\n", "l,0.0,3.14\nprobe,-1.0,-1.0\n0,0.5,0.5\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="sg.csv"):
            Spectrogram.from_csv(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_spectrogram_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        Spectrogram(np.array([0.0, 1.0]), 0, np.array([[0.5, bad]]))
    with pytest.raises(ValueError, match="finite"):
        Spectrogram(np.array([0.0, bad]), 0, np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("text", [
    "l,0.0,3.14\nprobe,1.0,1.0\n0,0.5,nan\n",
    "l,0.0,3.14\nprobe,1.0,1.0\n0,inf,0.5\n",
    "l,0.0,nan\nprobe,1.0,1.0\n0,0.5,0.5\n",
    "l,-inf,3.14\nprobe,1.0,1.0\n0,0.5,0.5\n",
], ids=["nan-count", "inf-count", "nan-phase", "inf-phase"])
def test_spectrogram_csv_rejects_non_finite_values(tmp_path, text):
    path = tmp_path / "sg.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="sg.csv"):
        Spectrogram.from_csv(path)


def _written_csv_lines(tmp_path) -> list[str]:
    path = tmp_path / "sg.csv"
    spectrogram(normalized_random_state(5), probe_magnitude=0.8, n_phases=8).to_csv(path)
    return path.read_text().splitlines()


def test_spectrogram_csv_without_its_probe_row_is_rejected(tmp_path):
    lines = _written_csv_lines(tmp_path)
    path = tmp_path / "no_probe.csv"
    path.write_text("\n".join([lines[0], *lines[2:]]) + "\n")
    with pytest.raises(ConfigurationError, match="no_probe.csv"):
        Spectrogram.from_csv(path)


@pytest.mark.parametrize("header, probe_label", [("phase", "probe"), ("l", "Probe"),
                                                 ("l", "-2"), ("", "probe")])
def test_spectrogram_csv_with_other_row_labels_is_rejected(tmp_path, header, probe_label):
    lines = _written_csv_lines(tmp_path)
    first, second = lines[0].split(",", 1), lines[1].split(",", 1)
    path = tmp_path / "relabeled.csv"
    path.write_text("\n".join([f"{header},{first[1]}", f"{probe_label},{second[1]}",
                               *lines[2:]]) + "\n")
    with pytest.raises(ConfigurationError, match="relabeled.csv"):
        Spectrogram.from_csv(path)


@pytest.mark.parametrize("probe_row", ["probe,0.8,0.8,0.8,0.8,0.8,0.8,0.8,0.9",
                                       "probe,0.8,0.8,0.8,0.8,0.8,0.8,0.8",
                                       "probe,0.8,0.8,0.8,0.8,0.8,0.8,0.8,0.8,0.8",
                                       "probe,0.8"])
def test_spectrogram_csv_probe_row_needs_one_magnitude_per_phase(tmp_path, probe_row):
    lines = _written_csv_lines(tmp_path)
    path = tmp_path / "probes.csv"
    path.write_text("\n".join([lines[0], probe_row, *lines[2:]]) + "\n")
    with pytest.raises(ConfigurationError, match="probes.csv"):
        Spectrogram.from_csv(path)
    path.write_text("\n".join([lines[0], "probe," + ",".join(["0.8"] * 8), *lines[2:]]) + "\n")
    assert Spectrogram.from_csv(path).probe_magnitude == 0.8


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


def test_shot_noise_with_a_column_that_counted_nothing_is_config_error():
    # an all-zero column is no spectrum; passed on, a fit matches it with
    # the zero state at residual 0
    sg = spectrogram(normalized_random_state(6), n_phases=8)
    with pytest.raises(ConfigurationError, match="counts per column"):
        add_shot_noise(sg, 0.01, seed=0)


@pytest.mark.parametrize("counts", [math.nan, math.inf, -5.0, -math.inf])
def test_shot_noise_counts_must_be_finite_and_not_negative(counts):
    sg = spectrogram(normalized_random_state(6), n_phases=8)
    with pytest.raises(ValueError, match="counts_per_column"):
        add_shot_noise(sg, counts, seed=0)


@pytest.mark.parametrize("counts", [1e300, 9.3e18])
def test_shot_noise_counts_past_the_poisson_sampler_are_refused(counts):
    sg = spectrogram(normalized_random_state(6), n_phases=8)
    with pytest.raises(ValueError, match="counts_per_column"):
        add_shot_noise(sg, counts, seed=0)


def test_shot_noise_at_max_counts_on_a_one_cell_column():
    # every column asks the sampler for MAX_COUNTS in one cell
    data = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    noisy = add_shot_noise(Spectrogram(np.array([0.0, 1.0]), -1, data), MAX_COUNTS, seed=0)
    assert np.array_equal(noisy.data, data)
    assert noisy.counts_per_column == MAX_COUNTS


def test_shot_noise_at_zero_counts_counted_no_electron():
    sg = spectrogram(normalized_random_state(6), n_phases=8)
    with pytest.raises(ConfigurationError, match="counted no electron"):
        add_shot_noise(sg, 0, seed=0)


# ---------------------------------------------------------------- reconstruction

def test_reconstruct_noiseless_nine_levels():
    true = normalized_random_state(7)
    sg = spectrogram(true, n_phases=32)
    result = reconstruct_state(sg, seed=0)
    assert result.ok
    assert state_fidelity(result.state, true) >= 1 - 1e-6


def test_fixed_window_fit_recovers_a_state_inside_it():
    # the 9-level state lies on [-4, 4] inside [-6, 6]; the data window is wider by the
    # probe's half-width on each side, so the fit window is [-6, 6]
    true = normalized_random_state(7)
    sg = spectrogram(true)
    result = reconstruct_state(sg, window=TruncationPolicy.fixed(6))
    assert result.ok
    assert result.state.l_min == max(sg.l_min, -6) == -6
    assert state_fidelity(result.state, true) >= 1 - 1e-9


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
    # the fit window is the levels the data fully images, so the model's rows
    # are the data rows here; the padding aligns any other offset
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
    doc = json.loads(json.dumps(result.to_json()))
    assert doc["residual"] == result.residual
    assert doc["seed"] == 5
    assert doc["ok"] == result.ok
    again = LadderState.from_json(doc["state"])
    assert np.array_equal(again.amplitudes, result.state.amplitudes)


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
    row = _probe_row(sg.probe_magnitude)
    fit_l_min, n_par = _fit_window(sg, DEFAULT_POLICY, row)
    seed = _fourier_seed(sg, _toeplitz(row, sg.l_min, sg.n_levels, fit_l_min, n_par))
    return state_fidelity(LadderState(fit_l_min, seed), true)


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


@pytest.mark.parametrize("probe", [1e-13, 1e-14])
def test_reconstruct_at_a_probe_row_of_j0_alone(probe):
    # the cut row is [J_0]: diagonals 1 and 2 of rho leave no trace in the
    # data, their kernels are zero, and the seed takes them as zero
    assert _probe_row(probe).size == 1
    result = reconstruct_state(spectrogram(normalized_random_state(25, 3, -1),
                                           probe_magnitude=probe), seed=0)
    assert result.ok
    assert result.residual <= 1e-12


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


def test_levenberg_marquardt_solves_a_linear_problem():
    rng = np.random.default_rng(30)
    m, b = rng.normal(size=(60, 8)), rng.normal(size=60)
    x, cost = _levenberg_marquardt(lambda x: m @ x - b, lambda x: m, np.zeros(8))
    expected, (squares,), *_ = np.linalg.lstsq(m, b, rcond=None)
    assert np.max(np.abs(x - expected)) <= 1e-10
    assert cost == pytest.approx(squares / 2, rel=1e-12)


def test_levenberg_marquardt_rejects_a_non_finite_start():
    m = np.eye(2)
    with pytest.raises(ValueError, match="not finite at the start"):
        _levenberg_marquardt(lambda x: m @ x - np.array([np.nan, 0.0]), lambda x: m,
                             np.zeros(2))


def record_fits(monkeypatch):
    """Make reconstruct_state's fits report their start, result and evaluations."""
    fits = []

    def recorded(residuals, jacobian, x0):
        evaluations = 0

        def counted(x):
            nonlocal evaluations
            evaluations += 1
            return residuals(x)

        x, cost = _levenberg_marquardt(counted, jacobian, x0)
        start = residuals(x0)
        fits.append({"x0": x0, "start_cost": 0.5 * float(start @ start), "x": x,
                     "cost": cost, "evaluations": evaluations})
        return x, cost

    monkeypatch.setattr("fequbit.tomography._levenberg_marquardt", recorded)
    return fits


def test_fit_never_ends_above_its_start_cost(monkeypatch):
    # seeded and random-phase starts alike; the low counts make every first
    # fit fail at the noise floor, so each spectrogram runs all three starts
    fits = record_fits(monkeypatch)
    for seed in range(6):
        n, n_phases = (5, 9, 13)[seed % 3], (8, 16)[seed % 2]
        sg = add_shot_noise(spectrogram(normalized_random_state(40 + seed, n, -(n // 2)),
                                        n_phases=n_phases), 1e3, seed=seed)
        reconstruct_state(sg, n_restarts=3, seed=seed)
    assert len(fits) == 18
    assert all(f["cost"] <= f["start_cost"] for f in fits)
    assert all(f["cost"] < f["start_cost"] for f in fits[1::3])


def test_seed_on_the_whole_data_window_is_exact(monkeypatch):
    # a fixed window past the data fits every data row; the edge levels'
    # images leave the data, so the seed's kernels are ill-conditioned there
    # (normal equations gave 1 - F = 5e-6 at this probe, 0.5 at probe 30)
    fits = record_fits(monkeypatch)
    true = normalized_random_state(26)
    sg = spectrogram(true, probe_magnitude=10.0)
    result = reconstruct_state(sg, window=TruncationPolicy.fixed(60), n_restarts=1)
    (fit,) = fits
    n = sg.n_levels
    assert (result.state.l_min, result.state.dim) == (sg.l_min, n)
    start = LadderState(sg.l_min, fit["x0"][:n] + 1j * fit["x0"][n:])
    assert state_fidelity(start, true) >= 1 - 1e-10


@pytest.mark.parametrize("gate", ["H", "T", "NOT"])
def test_fit_from_the_exact_seed_takes_no_step(monkeypatch, gate):
    # on these states the Fourier seed matches the data to rounding, so its
    # gradient is below the stop rule's tolerance
    fits = record_fits(monkeypatch)
    result = reconstruct_state(spectrogram(gate_prepared(gate)), seed=0)
    (fit,) = fits
    assert fit["evaluations"] == 1
    assert np.array_equal(fit["x"], fit["x0"])
    assert result.ok


def test_reconstruct_validation():
    sg = spectrogram(normalized_random_state(13), n_phases=8)
    with pytest.raises(ValueError):
        reconstruct_state(sg, n_restarts=0)


# ---------------------------------------------------------------- readout

def test_readout_prepared_zero():
    result = reconstruct_state(spectrogram(basis_state(0, 4)), seed=0)
    qubit = project_qubit(result.state, edge_margin=0)
    assert abs(abs(qubit.alpha) - 1.0) < 1e-6
    assert abs(qubit.beta) < 1e-6
    assert result.residual < 1e-8


def test_readout_after_not_gate():
    schedule = compile_gate(Gate("NOT"), BEAM)
    state = simulate_schedule(schedule, basis_state(0, 8))
    qubit = project_qubit(reconstruct_state(spectrogram(state), seed=0).state, edge_margin=0)
    assert abs(qubit.alpha) < 1e-3
    assert abs(abs(qubit.beta) - 1.0) < 1e-3


def test_readout_after_hadamard():
    schedule = compile_gate(Gate("H"), BEAM)
    state = simulate_schedule(schedule, basis_state(0, 8))
    qubit = project_qubit(reconstruct_state(spectrogram(state), seed=0).state, edge_margin=0)
    assert abs(abs(qubit.alpha) - abs(qubit.beta)) < 1e-3


def test_adaptive_policy_fits_the_same_window_as_none():
    # an adaptive policy sizes no fit window of its own: it fits the levels the
    # data fully images
    sg = spectrogram(gate_prepared("H"))
    result = reconstruct_state(sg, window=TruncationPolicy.adaptive())
    qubit = project_qubit(result.state, edge_margin=0)
    # 1 + 2.6e-10 on the state's own [-12, 12] window; a [-8, 8] fit gave 1 - 7e-6
    assert qubit.weight == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------- fit window

PROBE_HALF_WIDTH = _probe_row(DEFAULT_PROBE_MAGNITUDE).size // 2


def cropped(sg, low, high):
    """``sg`` without its ``low`` lowest and ``high`` highest data rows, as a
    cropped CSV reads: no counts recorded."""
    return Spectrogram(sg.scan_phases, sg.l_min + low, sg.data[low:sg.n_levels - high],
                       sg.probe_magnitude)


@pytest.mark.parametrize("counts", [0.0, 1e5])
@pytest.mark.parametrize("make", [lambda: normalized_random_state(50), even_comb_state,
                                  lambda: gate_prepared("H")], ids=["random", "even-comb", "H"])
def test_spectrogram_output_is_fitted_on_the_state_window(make, counts):
    true = make()
    sg = spectrogram(true)
    if counts:
        sg = add_shot_noise(sg, counts, seed=6)
    assert _fit_window(sg, DEFAULT_POLICY, _probe_row(sg.probe_magnitude)) == (true.l_min, true.dim)
    result = reconstruct_state(sg, seed=0)
    assert result.ok and result.restarts == 1
    assert (result.state.l_min, result.state.dim) == (true.l_min, true.dim)
    assert state_fidelity(result.state, true) >= (0.999 if counts else 1 - 1e-9)


def fit_edges(sg):
    lo, n = _fit_window(sg, DEFAULT_POLICY, _probe_row(sg.probe_magnitude))
    return lo, lo + n - 1


@pytest.mark.parametrize("rows", [1, 3, PROBE_HALF_WIDTH - 1])
@pytest.mark.parametrize("side", ["low", "high"])
def test_cropped_side_keeps_its_data_edge(rows, side):
    true = normalized_random_state(51)
    sg = cropped(spectrogram(true), *((rows, 0) if side == "low" else (0, rows)))
    data_edges = (sg.l_min, sg.l_min + sg.n_levels - 1)
    if side == "low":
        assert fit_edges(sg) == (data_edges[0], true.l_min + true.dim - 1)
    else:
        assert fit_edges(sg) == (true.l_min, data_edges[1])
    result = reconstruct_state(sg, seed=0)
    assert result.ok
    assert (result.state.l_min, result.state.l_min + result.state.dim - 1) == fit_edges(sg)
    assert state_fidelity(result.state, true) >= 1 - 1e-9


@pytest.mark.parametrize("low, high", [(0, 0), (3, 0), (0, 1), (3, 1), (1, 3)])
def test_each_side_is_checked_on_its_own(low, high):
    # a side keeps its data edge exactly when it was cropped, whatever the other side holds
    true = normalized_random_state(52)
    sg = cropped(spectrogram(true), low, high)
    expected = (sg.l_min if low else true.l_min,
                sg.l_min + sg.n_levels - 1 if high else true.l_min + true.dim - 1)
    assert fit_edges(sg) == expected


def test_cropped_noisy_spectrogram_falls_back_to_every_data_row():
    # shot noise empties the outer rows, so the edge rule narrows the low side
    # onto three state levels too few; that fit fails and every row is fitted
    true = normalized_random_state(53)
    sg = cropped(add_shot_noise(spectrogram(true), 1e5, seed=7), 3, 0)
    assert not sg.data[0].any()
    assert fit_edges(sg)[0] == true.l_min + 3
    result = reconstruct_state(sg, seed=0)
    assert result.ok
    assert (result.state.l_min, result.state.dim) == (sg.l_min, sg.n_levels)
    assert state_fidelity(result.state, true) >= 0.999


def same_result(a, b):
    return (a.state.l_min == b.state.l_min
            and a.state.amplitudes.tobytes() == b.state.amplitudes.tobytes()
            and (a.residual, a.ok, a.restarts, a.best_restart, a.seed)
            == (b.residual, b.ok, b.restarts, b.best_restart, b.seed))


def test_failing_fit_falls_back_and_runs_every_start(monkeypatch):
    # at 200 counts the noise floor sqrt(32 / 200) is far above FAIL_THRESHOLD:
    # with the counts recorded no narrowed fit is tried; without them one is,
    # fails, and the fallback gives the same result
    fits = record_fits(monkeypatch)
    sg = add_shot_noise(spectrogram(normalized_random_state(11)), 200.0, seed=3)
    assert sg.counts_per_column == 200.0
    result = reconstruct_state(sg, n_restarts=4, seed=0)
    assert not result.ok
    assert result.restarts == 4
    assert (result.state.l_min, result.state.dim) == (sg.l_min, sg.n_levels)
    assert len(fits) == 4
    unrecorded = reconstruct_state(cropped(sg, 0, 0), n_restarts=4, seed=0)  # counts dropped
    assert len(fits) == 4 + 5
    assert same_result(unrecorded, result)


def test_counts_per_column_must_be_positive():
    sg = spectrogram(normalized_random_state(54), n_phases=8)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="counts per column"):
            Spectrogram(sg.scan_phases, sg.l_min, sg.data, sg.probe_magnitude, bad)
