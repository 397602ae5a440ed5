import ast
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import jv

import fequbit
from fequbit import (
    ConfigurationError,
    LadderState,
    PinemPulse,
    TruncationPolicy,
    WindowError,
    apply_pinem,
    basis_state,
    derive_beam,
    occupied_levels,
    support_leakage,
)
from fequbit.ladder import bessel_row, write_text
from fequbit.operators import CHEBYSHEV_TAIL_TOL
from helpers import padded
from oracles import bessel_series

# frozen at first derivation from the CODATA 2018 constants; see
# test_dispersion_length_regression for the independent evaluation
Z_D_200KEV_800NM = 0.07602815124982064


def test_basis_state_center():
    s = basis_state(0, 8)
    assert s.dim == 17
    assert s.amplitudes[-s.l_min] == 1.0
    assert s.norm() == 1.0


def test_basis_state_offset():
    s = basis_state(3, 8)
    assert s.amplitudes[3 - s.l_min] == 1.0
    assert s.norm() == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_basis_state_outside_window():
    with pytest.raises(WindowError):
        basis_state(9, 8)
    with pytest.raises(ValueError, match="half-width must be >= 1"):
        basis_state(0, 0)


def test_basis_state_accepts_policy():
    s = basis_state(0, TruncationPolicy.adaptive())
    assert (s.l_min, s.dim) == (-8, 17)


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
    doc = json.loads(json.dumps(beam.to_json()))
    assert type(beam)(**doc) == beam


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
        leaks.append(support_leakage(padded(state, -half, half), 4))
    assert all(b <= a for a, b in zip(leaks, leaks[1:]))


def test_support_leakage_sums_the_edge_probabilities():
    rng = np.random.default_rng(6)
    state = LadderState(-10, rng.normal(size=21) + 1j * rng.normal(size=21))
    p = state.probabilities()
    for margin in range(1, 11):
        assert support_leakage(state, margin) == float(np.sum(p[:margin]) + np.sum(p[-margin:]))


def test_support_leakage_post_pulse_below_tolerance():
    for g in (0.5, 5.0, 20.0):
        out = apply_pinem(basis_state(0, 8), PinemPulse.single(g))
        assert support_leakage(out, 4) < 1e-12


def test_support_leakage_margin_validation():
    with pytest.raises(ValueError):
        support_leakage(basis_state(0, 4), 5)
    with pytest.raises(ValueError):
        support_leakage(basis_state(0, 4), -1)


def test_adaptive_half_width_guarantee():
    # the start window: [-8, 8] on an adaptive policy, the fixed half-width
    start = basis_state(0, TruncationPolicy.adaptive())
    assert (start.l_min, start.dim) == (-8, 17)
    start = basis_state(0, TruncationPolicy.fixed(21))
    assert (start.l_min, start.dim) == (-21, 43)


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(mode="nope")
    with pytest.raises(ValueError):
        TruncationPolicy.fixed(0)
    # the edge margin and leakage tolerance are constants, not settings
    with pytest.raises(TypeError):
        TruncationPolicy.adaptive(edge_margin=1)


def test_adaptive_policy_rejects_a_half_width():
    # an adaptive window follows the state, so a half-width would go unread
    with pytest.raises(ValueError, match="adaptive mode takes no half_width"):
        TruncationPolicy(mode="adaptive", half_width=5)


def test_policy_half_width_must_be_an_integer():
    for half_width in (2.5, 3.0, "4"):
        with pytest.raises(ValueError, match="half_width must be an integer"):
            TruncationPolicy.fixed(half_width)
    policy = TruncationPolicy.fixed(np.int64(5))
    assert type(policy.half_width) is int
    assert basis_state(0, policy).dim == 11


def test_basis_state_level_and_half_width_must_be_integers():
    for bad in (2.5, 3.0, "4"):
        with pytest.raises(ValueError, match="window half-width must be an integer"):
            basis_state(0, bad)
        with pytest.raises(ValueError, match="level must be an integer"):
            basis_state(bad, 8)
    assert basis_state(np.int64(1), np.int64(2)).amplitudes[3] == 1.0


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


@pytest.mark.parametrize("amplitudes", [
    np.array([]), np.ones((2, 2)), np.array([np.nan, 1.0]), np.array([1.0, 1j * np.inf])],
    ids=["empty", "2-d", "nan", "inf"])
def test_state_amplitudes_must_be_a_non_empty_1d_array(amplitudes):
    with pytest.raises(ValueError, match="non-empty 1-d"):
        LadderState(0, amplitudes)


def test_state_window_accessors():
    state = LadderState(3, np.ones(4))
    assert list(state.indices) == [3, 4, 5, 6]


@pytest.mark.parametrize("l_min, dim, kept", [(-3, 7, 0), (2, 4, 2), (-9, 4, -6)])
def test_trimming_an_empty_state_keeps_the_cell_nearest_level_0(l_min, dim, kept):
    trimmed = LadderState(l_min, np.zeros(dim)).trimmed()
    assert (trimmed.l_min, trimmed.dim, trimmed.amplitudes[0]) == (kept, 1, 0)


def test_occupied_levels():
    assert occupied_levels(basis_state(0, 8)) == 1
    with pytest.raises(ValueError):
        occupied_levels(LadderState(0, np.array([0.1 + 0j])))


@pytest.mark.parametrize("budget", [1e-24, CHEBYSHEV_TAIL_TOL ** 2 / 8])
@pytest.mark.parametrize("x", [0.0, 0.5, 2.0, 50.0, 500.0])
def test_bessel_row_is_jv_on_its_cut(x, budget):
    row = bessel_row(x, budget)
    k = row.size // 2
    # within jv's own error at x = 500
    assert np.max(np.abs(row - jv(np.arange(-k, k + 1), x))) <= 5e-14
    # within rounding of the mpmath series wherever that series is cheap
    if x <= 50:
        for order in range(-k, k + 1, max(1, k // 8)):
            assert abs(row[k + order] - bessel_series(order, x)) <= 1e-15
    # J_{-k} = (-1)^k J_k, bit for bit
    assert np.array_equal(row[:k][::-1], row[k + 1:] * (-1.0) ** np.arange(1, k + 1))
    # K is the smallest cut whose tail 2 sum_{j>K} J_j^2, summed from the far
    # end of a jv row that runs well past it, meets the budget
    p = jv(np.arange(math.ceil(x) + 300), x) ** 2
    tail = 2.0 * np.cumsum(p[::-1])[::-1]  # tail[j] = 2 sum_{i>=j} p_i
    assert k == int(np.argmax(tail[1:] <= budget))


def jv_tail_cut(x: float, budget: float) -> int:
    """The smallest K whose tail 2 sum_{j>K} J_j(x)^2, summed from the far end
    of a jv row that runs well past it, meets ``budget``."""
    p = jv(np.arange(math.ceil(x) + 300), x) ** 2
    tail = 2.0 * np.cumsum(p[::-1])[::-1]  # tail[j] = 2 sum_{i>=j} p_i
    return int(np.argmax(tail[1:] <= budget))


@pytest.mark.parametrize("budget", [1e-24, CHEBYSHEV_TAIL_TOL ** 2 / 8])
def test_bessel_row_sweep_keeps_the_jv_cut_and_values(budget):
    # the recurrence's start moves with x; the cut and the values must not
    xs = np.geomspace(1e-8, 500.0, 240)
    for i, x in enumerate(xs):
        row = bessel_row(x, budget)
        k = row.size // 2
        assert k == jv_tail_cut(x, budget), x
        assert np.max(np.abs(row - jv(np.arange(-k, k + 1), x))) <= 5e-14, x
        if x <= 50 and i % 8 == 0:
            for order in range(0, k + 1, max(1, k // 6)):
                assert abs(row[k + order] - bessel_series(order, x)) <= 1e-15, (x, order)


def test_bessel_row_keeps_the_first_orders_of_a_tiny_argument():
    # 2 J_1(1e-8)^2 = 5e-17 is far above the budget, so the cut is K = 1
    assert bessel_row(1e-8, 1e-24).size == 3


@pytest.mark.parametrize("budget", [1e-24, CHEBYSHEV_TAIL_TOL ** 2 / 8])
@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1e-30])
def test_bessel_row_below_its_budget_is_one(x, budget):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = bessel_row(x, budget)
    assert row.tolist() == [1.0]


@pytest.mark.parametrize("budget", [0.0, 1e-101, 1e-7, math.nan])
def test_bessel_row_rejects_a_budget_outside_its_range(budget):
    with pytest.raises(ValueError):
        bessel_row(1.0, budget)


def test_write_text_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_text(path, "0123456789\n" * 100)
    write_text(path, "l,p\n")
    assert path.read_bytes() == b"l,p\n"


def _writes(node, function=None):
    """(function, line) of every call in ``node`` that opens a file for writing."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
        if callee == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            # a mode that is no literal cannot be checked, so it counts as a write
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                yield function, node.lineno
        elif isinstance(node.func, ast.Attribute) and callee in ("write_text", "write_bytes"):
            yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _writes(child, function)


def test_only_write_text_opens_a_file_for_writing():
    found = [(path.name, function)
             for path in sorted(Path(fequbit.__file__).parent.glob("*.py"))
             for function, _ in _writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("ladder.py", "write_text")]


def _reads(node, function=None):
    """(function, line) of every call in ``node`` that opens a file for reading."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
        if callee == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            # a mode that is no literal cannot be checked, so it counts as a read
            if not isinstance(mode, ast.Constant) or (
                    set(str(mode.value)) & set("r+") or not set(str(mode.value)) & set("wax")):
                yield function, node.lineno
        elif isinstance(node.func, ast.Attribute) and callee in (
                "read_text", "read_bytes", "loadtxt", "genfromtxt", "fromfile"):
            yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, function)


@pytest.mark.parametrize("args", [(math.nan, 800e-9), (200e3, math.nan),
                                  (200e3, 800e-9, math.nan)])
def test_derive_beam_rejects_nan(args):
    with pytest.raises(ConfigurationError):
        derive_beam(*args)


def test_only_read_text_opens_a_file_for_reading():
    found = [(path.name, function)
             for path in sorted(Path(fequbit.__file__).parent.glob("*.py"))
             for function, _ in _reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("ladder.py", "read_text")]


@pytest.mark.parametrize("content", [
    b'{"l_min": 0, "amplitudes": [[true, false]]}',
    b'{"l_min": 0, "amplitudes": [[NaN, 0.0]]}',
    b'{"l_min": 0, "amplitudes": [[1e999, 0.0]]}',
    b'{"l_min": true, "amplitudes": [[1.0, 0.0]]}',
    b'{"l_min": 0, "amplitudes": [[1.0, 0.0, 0.0]]}',
    b'{"l_min": 0, "amplitudes": []}',
    b'{"l_min": 0}',
    b'[0, [[1.0, 0.0]]]',
    b'{"l_min": 0, "amplitudes": [[1.0, 0.0]]}\xff',
], ids=["bool", "nan", "inf", "bool-l_min", "triple", "empty", "no-amplitudes", "list",
        "not-utf8"])
def test_state_reader_rejects_a_malformed_file_naming_it(tmp_path, content):
    path = tmp_path / "bad-state.json"
    path.write_bytes(content)
    with pytest.raises(ConfigurationError, match="bad-state.json"):
        LadderState.load(path)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(l_min=st.integers(-2 ** 62, 2 ** 62 - 8),
       pairs=st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=8))
def test_state_file_roundtrip_is_bit_exact(tmp_path_factory, l_min, pairs):
    state = LadderState(l_min, np.array([complex(re, im) for re, im in pairs]))
    path = tmp_path_factory.mktemp("state") / "state.json"
    state.dump(path)
    again = LadderState.load(path)
    assert again.l_min == l_min
    assert again.amplitudes.tobytes() == state.amplitudes.tobytes()
