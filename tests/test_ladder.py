import json
import math

import numpy as np
import pytest
from scipy.special import jv

from fequbit import (
    ConfigurationError,
    LadderState,
    PinemPulse,
    TruncationPolicy,
    WindowError,
    apply_pinem_bessel,
    basis_state,
    derive_beam,
    field_to_g,
    occupied_levels,
    support_leakage,
)
from fequbit.ladder import bessel_row, bessel_tail_half_width
from fequbit.operators import CHEBYSHEV_TAIL_TOL

# frozen at first derivation from the CODATA 2018 constants; see
# test_dispersion_length_regression for the independent evaluation
Z_D_200KEV_800NM = 0.07602815124982064


def test_basis_state_center():
    s = basis_state(0, 8)
    assert s.dim == 17
    assert s.amplitude(0) == 1.0
    assert s.norm() == 1.0


def test_basis_state_offset():
    s = basis_state(3, 8)
    assert s.amplitude(3) == 1.0
    assert s.norm() == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_basis_state_outside_window():
    with pytest.raises(WindowError):
        basis_state(9, 8)


def test_basis_state_accepts_policy():
    s = basis_state(0, TruncationPolicy.adaptive(margin_abs=5))
    assert s.dim == 11


def test_dispersion_length_regression():
    # independent hand evaluation with locally spelled-out constants
    c = 299792458.0
    hbar = 6.62607015e-34 / (2 * math.pi)
    e = 1.602176634e-19
    m_e = 9.1093837015e-31
    rest_ev = m_e * c**2 / e
    gamma = 1.0 + 200e3 / rest_ev
    beta = math.sqrt(1.0 - 1.0 / gamma**2)
    omega = 2 * math.pi * c / 800e-9
    omega_c = m_e * c**2 / hbar
    by_hand = 2 * beta**2 * gamma**3 * (omega_c / omega) * (beta * c / omega)
    assert abs(by_hand - Z_D_200KEV_800NM) / Z_D_200KEV_800NM < 1e-12

    beam = derive_beam(200e3, 800e-9)
    assert abs(beam.z_d - Z_D_200KEV_800NM) / Z_D_200KEV_800NM < 1e-6
    # order of centimeters
    assert 0.01 < beam.z_d < 0.2


def test_halving_wavelength_quarters_z_d():
    full = derive_beam(200e3, 800e-9).z_d
    half = derive_beam(200e3, 400e-9).z_d
    assert half == pytest.approx(full / 4.0, rel=1e-14)


def test_z_d_monotone_in_energy():
    energies = np.linspace(10e3, 1000e3, 40)
    z = [derive_beam(ke, 800e-9).z_d for ke in energies]
    assert all(b > a for a, b in zip(z, z[1:]))


def test_quarter_length_sweep_overlaps_experimental_range():
    quarters = [
        derive_beam(ke, lam).quarter_length_m
        for ke in np.linspace(80e3, 200e3, 7)
        for lam in np.linspace(500e-9, 1600e-9, 12)
    ]
    # range overlaps 0.1-1 cm
    assert min(quarters) <= 1e-2
    assert max(quarters) >= 1e-3


def test_beam_kinematics_consistency():
    beam = derive_beam(137e3, 1032e-9, delta_e_ev=0.4)
    assert abs(beam.beta**2 - (1.0 - 1.0 / beam.gamma**2)) < 1e-12
    # round-trip the kinetic energy from gamma
    rest = beam.kinetic_energy_ev / (beam.gamma - 1.0)
    back = (beam.gamma - 1.0) * rest
    assert back == pytest.approx(137e3, rel=1e-12)
    assert 0.0 < beam.beta < 1.0


def test_energy_spread_gate():
    # photon energy at 800 nm is ~1.55 eV
    derive_beam(200e3, 800e-9, delta_e_ev=1.0)
    with pytest.raises(ConfigurationError):
        derive_beam(200e3, 800e-9, delta_e_ev=1.6)
    with pytest.raises(ConfigurationError):
        derive_beam(-1.0, 800e-9)
    with pytest.raises(ConfigurationError):
        derive_beam(200e3, 0.0)
    with pytest.raises(ConfigurationError):
        derive_beam(200e3, 800e-9, delta_e_ev=-0.1)


def test_beam_json_roundtrip():
    beam = derive_beam(200e3, 800e-9, delta_e_ev=0.3)
    again = type(beam).from_json(json.loads(json.dumps(beam.to_json())))
    assert again == beam


def test_support_leakage_trivial():
    assert support_leakage(basis_state(0, 16), 4) == 0.0
    assert support_leakage(basis_state(16, 16), 1) == 1.0
    assert support_leakage(basis_state(0, 8), 0) == 0.0


def test_support_leakage_monotone_in_window():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    state = LadderState(-4, amps)
    leaks = []
    for half in range(5, 12):
        padded = state.padded(-half, half)
        leaks.append(support_leakage(padded, 4))
    assert all(b <= a for a, b in zip(leaks, leaks[1:]))


def test_support_leakage_post_pulse_below_tolerance():
    for g in (0.5, 5.0, 20.0):
        out = apply_pinem_bessel(basis_state(0, 8), PinemPulse.single(g))
        assert support_leakage(out, 4) < 1e-12


def test_support_leakage_margin_validation():
    with pytest.raises(ValueError):
        support_leakage(basis_state(0, 4), 5)
    with pytest.raises(ValueError):
        support_leakage(basis_state(0, 4), -1)


def test_field_to_g():
    cal = (math.pi / 2) / 50e6  # |g| = pi/2 at 50 MV/m
    assert field_to_g(0.0, cal) == 0.0
    assert abs(field_to_g(50e6, cal)) == pytest.approx(math.pi / 2, rel=1e-14)
    assert field_to_g(80e6, cal) == pytest.approx(2 * field_to_g(40e6, cal))
    with pytest.raises(ConfigurationError):
        field_to_g(1e6, None)


def test_adaptive_half_width_guarantee():
    policy = TruncationPolicy.adaptive(margin_abs=8, margin_rel=7.0)
    for g in (0.0, 0.3, 2.0, 20.0, 250.0):
        x = 2.0 * g
        bound = (math.ceil(x) + 8 + math.ceil(7.0 * x ** (1 / 3))) if x else 8
        assert policy.half_width_for(g) >= bound
    fixed = TruncationPolicy.fixed(21)
    assert fixed.half_width_for(123.0) == 21


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(mode="nope")
    with pytest.raises(ValueError):
        TruncationPolicy.fixed(0)
    with pytest.raises(ValueError):
        TruncationPolicy.adaptive(edge_margin=-1)


def test_state_json_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    amps = rng.normal(size=7) + 1j * rng.normal(size=7)
    state = LadderState(-2, amps)
    again = LadderState.from_json(json.loads(json.dumps(state.to_json())))
    assert again.l_min == state.l_min
    assert np.array_equal(again.amplitudes, state.amplitudes)
    path = tmp_path / "state.json"
    state.dump(path)
    assert np.array_equal(LadderState.load(path).amplitudes, state.amplitudes)


def test_state_is_immutable():
    state = basis_state(0, 4)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 5.0


def test_state_window_accessors():
    state = LadderState(3, np.ones(4))
    assert state.l_max == 6
    assert list(state.indices) == [3, 4, 5, 6]
    with pytest.raises(WindowError):
        state.amplitude(7)
    with pytest.raises(WindowError):
        state.padded(4, 10)


def test_occupied_levels():
    assert occupied_levels(basis_state(0, 8)) == 1
    with pytest.raises(ValueError):
        occupied_levels(LadderState(0, np.array([0.1 + 0j])))


@pytest.mark.parametrize("budget", [1e-24, CHEBYSHEV_TAIL_TOL ** 2 / 8])
@pytest.mark.parametrize("x", [0.0, 0.5, 2.0, 50.0, 500.0])
def test_bessel_row_is_jv_on_its_cut(x, budget):
    # the negative orders come from the reflection J_{-k} = (-1)^k J_k, bit for bit
    k = bessel_tail_half_width(x, budget)
    assert np.array_equal(bessel_row(x, budget), jv(np.arange(-k, k + 1), x))
