"""The measurement chain's batched paths give the bits of the per-value ones.

``spectrogram`` gauges a block of scan phases with one ``exp``, ``to_csv``
formats Python floats, and the fit's Jacobian is copied out of one complex
product. Each is compared here with the computation it replaced: the gauge
and convolution per phase, ``repr(float(v))`` per value, and the Jacobian's
real and imaginary halves formed apart.
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
from fequbit.tomography import GAUGE_BLOCK_CELLS, _probe_row
from oracles import fit_jacobian_oracle, spectrogram_csv_oracle, spectrogram_per_phase_oracle


def random_state(rng: np.random.Generator, n: int, l_min: int) -> LadderState:
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return LadderState(l_min, amps / np.linalg.norm(amps))


def assert_spectrogram_matches_oracle(state: LadderState, probe: float, n_phases: int):
    sg = spectrogram(state, probe_magnitude=probe, n_phases=n_phases)
    row = _probe_row(probe)
    want = spectrogram_per_phase_oracle(state.amplitudes, row, n_phases)
    assert sg.l_min == state.l_min - row.size // 2
    assert sg.data.tobytes() == want.tobytes()
    assert sg.scan_phases.tobytes() == (2.0 * np.pi * np.arange(n_phases) / n_phases).tobytes()


@pytest.mark.parametrize("probe", [1e-8, 1.0, 20.0, 100.0])
@pytest.mark.parametrize("n_levels", [1, 3, 9, 41, 601])
def test_spectrogram_is_the_per_phase_convolution(n_levels, probe):
    rng = np.random.default_rng(n_levels)
    assert_spectrogram_matches_oracle(random_state(rng, n_levels, -(n_levels // 2)), probe, 32)


@pytest.mark.parametrize("probe", [1.0, 100.0])
def test_spectrogram_over_several_gauge_blocks(probe):
    n_levels, n_phases = 1245, 64
    assert n_phases * n_levels > 8 * GAUGE_BLOCK_CELLS
    assert n_phases % (GAUGE_BLOCK_CELLS // n_levels) != 0  # the last block is partial
    assert_spectrogram_matches_oracle(random_state(np.random.default_rng(5), n_levels, 17),
                                      probe, n_phases)


def test_spectrogram_with_many_phases_on_a_small_state():
    n_levels, n_phases = 9, 1024
    assert n_phases * n_levels > GAUGE_BLOCK_CELLS
    assert_spectrogram_matches_oracle(random_state(np.random.default_rng(6), n_levels, -4),
                                      1.0, n_phases)


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
    number of starts."""
    calls, mats, starts = [], [], []
    probe_matrix, levenberg_marquardt = tomography._probe_matrix, tomography._levenberg_marquardt

    def recording_probe_matrix(*args):
        mats.append(probe_matrix(*args))
        return mats[-1]

    def recording_lm(residuals, jacobian, x0):
        bess = mats[-1]
        starts.append(x0)

        def recorded(x):
            jac = jacobian(x)
            calls.append((bess, x.copy(), jac.copy()))
            return jac
        return levenberg_marquardt(residuals, recorded, x0)

    monkeypatch.setattr(tomography, "_probe_matrix", recording_probe_matrix)
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
