"""The measurement chain's batched paths against the computations they stand for.

``spectrogram`` is the fit's forward model taken over blocks of levels: on a
state of at most one block its data are, bit for bit, |mixed|^2 of the one
product (gauge * psi) @ T^T the fit forms, so a noiseless spectrogram is an
exact zero of the fit's residuals; at every size they agree with the gauge
and convolution per phase to rounding. ``to_csv`` formats Python floats, and
the fit's Jacobian is copied out of one complex product; each is compared
here with ``repr(float(v))`` per value and with the Jacobian's real and
imaginary halves formed apart.
"""

import numpy as np
import pytest

from fequbit import (
    LadderState,
    Spectrogram,
    add_shot_noise,
    reconstruct_state,
    spectrogram,
    tomography,
)
from fequbit.tomography import MODEL_BLOCK_LEVELS, _probe_row
from oracles import (
    fit_jacobian_oracle,
    spectrogram_csv_oracle,
    spectrogram_per_phase_oracle,
    spectrogram_product_oracle,
    toeplitz_oracle,
)

ROUNDING = 1e-15
"""Largest |data - per-phase convolution| allowed on a normalized state."""


def random_state(rng: np.random.Generator, n: int, l_min: int) -> LadderState:
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return LadderState(l_min, amps / np.linalg.norm(amps))


def assert_spectrogram_matches_oracles(state: LadderState, probe: float, n_phases: int):
    sg = spectrogram(state, probe_magnitude=probe, n_phases=n_phases)
    row = _probe_row(probe)
    assert sg.l_min == state.l_min - row.size // 2
    assert sg.scan_phases.tobytes() == (2.0 * np.pi * np.arange(n_phases) / n_phases).tobytes()
    assert sg.data.dtype == np.float64 and sg.data.flags.c_contiguous
    want = spectrogram_per_phase_oracle(state.amplitudes, row, n_phases)
    assert sg.data.shape == want.shape
    assert np.max(np.abs(sg.data - want)) <= ROUNDING
    if state.dim <= MODEL_BLOCK_LEVELS:
        product = spectrogram_product_oracle(state.amplitudes, row, n_phases)
        assert sg.data.tobytes() == product.tobytes()


@pytest.mark.parametrize("probe", [1e-8, 1.0, 20.0, 100.0])
@pytest.mark.parametrize("n_levels", [1, 3, 9, 41, 601])
def test_spectrogram_is_the_per_phase_convolution(n_levels, probe):
    rng = np.random.default_rng(n_levels)
    assert_spectrogram_matches_oracles(random_state(rng, n_levels, -(n_levels // 2)), probe, 32)


@pytest.mark.parametrize("probe", [1.0, 100.0])
def test_spectrogram_over_several_level_blocks(probe):
    n_levels, n_phases = 1245, 64
    assert n_levels > 8 * MODEL_BLOCK_LEVELS
    assert n_levels % MODEL_BLOCK_LEVELS != 0  # the last block is partial
    assert_spectrogram_matches_oracles(random_state(np.random.default_rng(5), n_levels, 17),
                                       probe, n_phases)


def test_spectrogram_with_many_phases_on_a_small_state():
    n_levels, n_phases = 9, 1024
    assert_spectrogram_matches_oracles(random_state(np.random.default_rng(6), n_levels, -4),
                                       1.0, n_phases)


@pytest.mark.parametrize("probe", [1e-8, 1.0, 20.0])
def test_noiseless_spectrogram_is_an_exact_zero_of_the_fit(monkeypatch, probe):
    state = random_state(np.random.default_rng(43), 9, -4)
    sg = spectrogram(state, probe_magnitude=probe)
    fits, levenberg_marquardt = [], tomography._levenberg_marquardt

    def recording_lm(residuals, jacobian, x0):
        fits.append((residuals, x0.size))
        return levenberg_marquardt(residuals, jacobian, x0)

    monkeypatch.setattr(tomography, "_levenberg_marquardt", recording_lm)
    result = reconstruct_state(sg)
    residuals, n_params = fits[0]
    assert result.state.l_min == state.l_min and n_params == 2 * state.dim  # its own window
    r = residuals(np.concatenate([state.amplitudes.real, state.amplitudes.imag]))
    assert r.shape == (sg.n_phases * sg.n_levels,)
    assert np.all(r == 0.0)


def csv_cases():
    rng = np.random.default_rng(31)
    tiny = np.finfo(float).tiny
    special = [0.0, -0.0, 5e-324, -5e-324, tiny / 3, tiny, 1e16, -1e16, 1.2345e16,
               2.0 ** 53, 1e22, 1.7976931348623157e308, 0.1, 1 / 3, -2.5, 1e-300]
    data = np.array(special + list(rng.normal(size=8) * 10.0 ** rng.uniform(-20, 20, size=8)))
    yield Spectrogram(np.linspace(-1e16, 3.0, 4), -3, data.reshape(6, 4), 5e-324)
    sg = spectrogram(random_state(rng, 9, -4), probe_magnitude=1.0)
    yield sg
    yield add_shot_noise(sg, 1e5, seed=3)
    yield Spectrogram(np.array([0.0]), 2 ** 62, np.array([[1e16]]), 1e16)


def test_csv_is_the_repr_of_each_float(tmp_path):
    for i, sg in enumerate(csv_cases()):
        path = tmp_path / f"sg{i}.csv"
        sg.to_csv(path)
        want = spectrogram_csv_oracle(sg.scan_phases, sg.probe_magnitude, sg.l_min, sg.data)
        assert path.read_bytes() == want.encode("utf-8")


def recorded_jacobians(monkeypatch, sg: Spectrogram, **kwargs) -> tuple[list, int]:
    """(bess, x, Jacobian) for every Jacobian the fit forms on ``sg``, and the
    number of starts. ``sg`` is built before the hooks go in, so every
    ``_toeplitz`` call they see is a fit's."""
    calls, mats, starts = [], [], []
    toeplitz, levenberg_marquardt = tomography._toeplitz, tomography._levenberg_marquardt

    def recording_toeplitz(*args):
        mats.append(toeplitz(*args))
        return mats[-1]

    def recording_lm(residuals, jacobian, x0):
        bess = mats[-1]
        starts.append(x0)

        def recorded(x):
            jac = jacobian(x)
            calls.append((bess, x.copy(), jac.copy()))
            return jac
        return levenberg_marquardt(residuals, recorded, x0)

    monkeypatch.setattr(tomography, "_toeplitz", recording_toeplitz)
    monkeypatch.setattr(tomography, "_levenberg_marquardt", recording_lm)
    reconstruct_state(sg, **kwargs)
    return calls, len(starts)


@pytest.mark.parametrize("probe, counts, n_restarts", [
    (1.0, None, 1), (1.0, 1e5, 1), (20.0, 1e5, 1), (0.5, 30.0, 4)])
def test_fit_jacobian_is_the_real_and_imaginary_halves(monkeypatch, probe, counts, n_restarts):
    rng = np.random.default_rng(41)
    sg = spectrogram(random_state(rng, 9, -4), probe_magnitude=probe)
    if counts:
        sg = add_shot_noise(sg, counts, seed=8)
    calls, starts = recorded_jacobians(monkeypatch, sg, n_restarts=n_restarts, seed=2)
    assert calls
    assert starts >= n_restarts  # at 30 counts every start fails, so all of them run
    for bess, x, jac in calls:
        assert np.array_equal(jac, fit_jacobian_oracle(sg.scan_phases, bess, x))


@pytest.mark.parametrize("probe", [1e-8, 1.0, 20.0])
@pytest.mark.parametrize("rows_l_min, n_rows, l_min, n", [
    (-15, 55, 0, 25), (-4, 9, -4, 9), (0, 3, -40, 20), (10, 80, -5, 64), (-300, 2, 0, 3)])
def test_toeplitz_holds_the_row_at_each_lag(probe, rows_l_min, n_rows, l_min, n):
    row = _probe_row(probe)
    got = tomography._toeplitz(row, rows_l_min, n_rows, l_min, n)
    want = toeplitz_oracle(row, rows_l_min, n_rows, l_min, n)
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
