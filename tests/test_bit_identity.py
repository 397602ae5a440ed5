"""The circuit path's shortcuts give the bits of the whole-array computations.

``apply_pinem`` scans only the ends of a convolution for its trim, convolves
a fundamental without dilating its kernel and slices a window that lies
inside the convolution; ``project_period_p`` takes running sums per residue
class; ``compile_gate`` reads its XYX angles without the global phase;
``Gate.target_matrix`` is built from Python scalars; ``pinem_kernels``
builds many kernels at once, and ``compile_circuit`` hands them to its
pulses; ``LadderState.to_json`` and ``Spectrum.to_json`` read their floats
with one ``tolist``. Each is compared here with the computation it replaced,
bit for bit.

A multi-harmonic pulse is one convolution with its harmonics' kernels
composed, the composed ends trimmed by the same end scan. Its bits are
pinned to ``oracles.composed_kernel_oracle``, which trims by whole-array
sums; the per-harmonic convolutions it replaced are pinned only to within
CHEBYSHEV_TAIL_TOL in l2, the trim's bound.
"""

import json
import math

import numpy as np
import pytest

from fequbit import (
    Gate,
    LadderState,
    PinemPulse,
    Spectrum,
    TruncationPolicy,
    apply_pinem,
    basis_state,
    compile_circuit,
    compile_gate,
    derive_beam,
    eels_spectrum,
    euler_xyx,
    parse_circuit,
    pinem_kernel,
    project_period_p,
    simulate_schedule,
)
from fequbit import ladder, operators
from fequbit.compiler import ZERO_ANGLE_TOL
from fequbit.ladder import DEFAULT_EDGE_MARGIN
from fequbit.operators import _KERNEL_BUDGET, CHEBYSHEV_TAIL_TOL, KERNEL_BLOCK_CELLS, pinem_kernels
from oracles import (adaptive_trim_oracle, composed_kernel_oracle, gate_matrix_oracle,
                     haar_unitary, residue_sums_add_at)

ADAPTIVE = TruncationPolicy.adaptive()
BEAM = derive_beam(200e3, 800e-9)


def dilated_convolution(state: LadderState, pulse: PinemPulse) -> tuple[np.ndarray, int]:
    """The pulse's one convolution with ``composed_kernel_oracle``'s kernel of
    its nonzero harmonics' ``pinem_kernel`` (h = 1 dilated too): (amplitudes,
    l_min) before any trim of the state."""
    kernels = [(h, pinem_kernel(g)) for h, g in pulse.couplings if g != 0]
    kernel, centre = composed_kernel_oracle(kernels, CHEBYSHEV_TAIL_TOL)
    return np.convolve(state.amplitudes, kernel), state.l_min - centre


def sequential_convolution(state: LadderState, pulse: PinemPulse) -> tuple[np.ndarray, int]:
    """The pulse as one untrimmed convolution per nonzero harmonic, in
    harmonic order: (amplitudes, l_min)."""
    amps, l_min = state.amplitudes, state.l_min
    for h, g in pulse.couplings:
        if g != 0:
            kernel, centre = composed_kernel_oracle([(h, pinem_kernel(g))], CHEBYSHEV_TAIL_TOL)
            amps, l_min = np.convolve(amps, kernel), l_min - centre
    return amps, l_min


def on_window(amps: np.ndarray, l_min: int, window_l_min: int, dim: int) -> np.ndarray:
    """``amps`` from ``l_min`` on the dim levels from window_l_min, zero-filled."""
    out = np.zeros(dim, dtype=np.complex128)
    lo, hi = max(l_min, window_l_min), min(l_min + amps.size, window_l_min + dim)
    if lo < hi:
        out[lo - window_l_min:hi - window_l_min] = amps[lo - l_min:hi - l_min]
    return out


def assert_adaptive_matches_oracle(state: LadderState, pulse: PinemPulse) -> tuple[int, int]:
    """apply_pinem against the whole-array trim; returns (convolution l_min, result l_min)."""
    amps, l_min = dilated_convolution(state, pulse)
    want_l_min, want = adaptive_trim_oracle(amps, l_min, DEFAULT_EDGE_MARGIN, CHEBYSHEV_TAIL_TOL)
    got = apply_pinem(state, pulse, ADAPTIVE)
    assert got.l_min == want_l_min
    assert np.array_equal(got.amplitudes, want)
    assert got.amplitudes.tobytes() == want.tobytes()
    return l_min, got.l_min


def random_pulse(rng: np.random.Generator) -> PinemPulse:
    def coupling():
        return 10.0 ** rng.uniform(-2.0, 0.7) * np.exp(2j * np.pi * rng.random())
    kind = int(rng.integers(3))
    if kind == 0:
        return PinemPulse.single(coupling())
    if kind == 1:
        return PinemPulse.multi({1: coupling(), 2: coupling()})
    return PinemPulse.multi({int(rng.integers(1, 4)): coupling()})


@pytest.mark.parametrize("seed", range(20))
def test_adaptive_pulse_is_the_whole_array_trim(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        n = int(rng.integers(1, 700))
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= np.linalg.norm(amps)
        low, high = rng.integers(0, n // 3 + 1, size=2)  # faint cells the trim may drop
        amps[:low] *= 10.0 ** rng.uniform(-20.0, -14.0, size=low)
        amps[n - high:] *= 10.0 ** rng.uniform(-20.0, -14.0, size=high)
        assert_adaptive_matches_oracle(LadderState(int(rng.integers(-400, 400)), amps),
                                       random_pulse(rng))


def padded_state(rng: np.random.Generator, pad: int = 150) -> LadderState:
    """A normalized random state of 1-299 levels centred on a symmetric window
    with ``pad`` zero levels or more on each side."""
    n = int(rng.integers(1, 300))
    amps = np.zeros(n + 2 * pad + (n + 1) % 2, dtype=np.complex128)
    amps[pad:pad + n] = rng.normal(size=n) + 1j * rng.normal(size=n)
    return LadderState(-(amps.size // 2), amps / np.linalg.norm(amps))


def assert_fixed_matches_crop(state: LadderState, pulse: PinemPulse) -> None:
    conv, l_min = dilated_convolution(state, pulse)
    got = apply_pinem(state, pulse, TruncationPolicy.fixed(-state.l_min))
    want = conv[state.l_min - l_min:state.l_min - l_min + state.dim]
    assert got.l_min == state.l_min
    assert got.amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_fixed_pulse_is_the_crop_of_the_convolution(seed):
    rng = np.random.default_rng(100 + seed)
    state = padded_state(rng)  # zeros beyond every kernel's reach
    assert_fixed_matches_crop(state, random_pulse(rng))


@pytest.mark.parametrize("couplings", [{1: 2.0 - 1.0j, 2: 0.7j}, {2: 1.5, 3: -0.4 + 0.9j},
                                       {1: 4.0 * np.exp(0.4j), 2: 2.0j, 3: -1.0},
                                       {1: 0.5, 2: 0.0, 3: 0.3j}])
def test_fixed_multi_harmonic_pulse_is_the_crop_of_the_composed_convolution(couplings):
    # the seeds above draw no pulse of two nonzero harmonics
    assert_fixed_matches_crop(padded_state(np.random.default_rng(105)),
                              PinemPulse.multi(couplings))


@pytest.mark.parametrize("seed", range(6))
def test_composed_pulse_is_within_tol_of_the_per_harmonic_convolutions(seed):
    # Young: a kernel that moves by d in l1 moves a normalized state by <= d in l2
    rng = np.random.default_rng(300 + seed)
    tol, reach = CHEBYSHEV_TAIL_TOL, 900  # beyond three harmonics' kernels at |g| = 50
    impulse = np.zeros(2 * reach + 1, dtype=np.complex128)
    impulse[reach] = 1.0
    impulse = LadderState(-reach, impulse)
    for _ in range(4):
        harmonics = rng.choice([1, 2, 3], size=int(rng.integers(2, 4)), replace=False)
        pulse = PinemPulse.multi({int(h): 10.0 ** rng.uniform(-2.0, math.log10(50.0))
                                  * np.exp(2j * np.pi * rng.random()) for h in harmonics})
        # the kernel apply_pinem uses, as its image of |0>, against the untrimmed one
        kernel = apply_pinem(impulse, pulse, TruncationPolicy.fixed(reach)).amplitudes
        full, full_l_min = sequential_convolution(impulse, pulse)
        kept = np.flatnonzero(kernel)
        lo = kept[0] - reach - full_l_min
        hi = full_l_min + full.size - 1 - (kept[-1] - reach)
        assert np.abs(full[:lo]).sum() <= tol / 2 and np.abs(full[full.size - hi:]).sum() <= tol / 2
        wide = padded_state(rng, reach)
        for state, policy in ((padded_state(rng), ADAPTIVE),
                              (wide, TruncationPolicy.fixed(-wide.l_min))):
            got = apply_pinem(state, pulse, policy)
            want = on_window(*sequential_convolution(state, pulse), got.l_min, got.dim)
            assert np.linalg.norm(got.amplitudes - want) <= tol


@pytest.mark.parametrize("faint_at", ["low", "high", "both"])
def test_trim_run_longer_than_the_first_scan(faint_at):
    rng = np.random.default_rng(7)
    body = rng.normal(size=40) + 1j * rng.normal(size=40)
    faint = np.full(300, 1e-17 + 0j)
    parts = {"low": (faint, body), "high": (body, faint), "both": (faint, body, faint)}
    state = LadderState(-150, np.concatenate(parts[faint_at]))
    conv_l_min, l_min = assert_adaptive_matches_oracle(state, PinemPulse.single(0.7 - 0.4j))
    if faint_at != "high":
        assert l_min - conv_l_min > 256  # the scan had to double past 64 and 128 cells


@pytest.mark.parametrize("l1", [0.0, 3e-14, 9e-14])
def test_state_without_support_keeps_the_convolution(l1):
    state = LadderState(-10, np.full(20, l1 / 20 + 0j))
    conv_l_min, l_min = assert_adaptive_matches_oracle(state, PinemPulse.single(0.3j))
    assert l_min == conv_l_min - DEFAULT_EDGE_MARGIN


@pytest.mark.parametrize("couplings", [{2: 1.1 - 0.2j}, {3: 0.4j}, {2: 0.9, 3: -0.5 + 0.5j},
                                       {1: 0.6, 2: 0.3j, 3: 0.2}])
def test_higher_harmonics_match_the_dilated_kernel(couplings):
    rng = np.random.default_rng(11)
    amps = rng.normal(size=61) + 1j * rng.normal(size=61)
    assert_adaptive_matches_oracle(LadderState(-31, amps / np.linalg.norm(amps)),
                                   PinemPulse.multi(couplings))


@pytest.mark.parametrize("g", [1.3, 0.05j, 4.0 * np.exp(0.3j)])
def test_guards_past_the_convolution_are_zero_filled(g):
    conv_l_min, l_min = assert_adaptive_matches_oracle(LadderState(5, np.array([1.0 + 0j])),
                                                       PinemPulse.single(g))
    assert l_min < conv_l_min  # the window starts outside the convolution


def project_cases():
    rng = np.random.default_rng(23)
    for p in range(2, 6):
        for dim in (*range(1, p), p, 9, 200, 401):
            for l_min in (-7, -4, 0, 3, 12):
                amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                amps *= 10.0 ** rng.uniform(-3.0, 0.0, size=dim)
                yield p, LadderState(l_min, amps)
        signed_zeros = np.full(3 * p + 1, complex(-0.0, -0.0))
        signed_zeros[::p] = 0.5 - 0.25j  # one class holds values, the others only -0.0
        yield p, LadderState(-3, signed_zeros)


def test_project_period_p_is_the_add_at_sum():
    for p, state in project_cases():
        got = project_period_p(state, p, edge_margin=0)
        want = residue_sums_add_at(state, p)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes(), (p, state.l_min, state.dim)


def test_compiled_couplings_are_the_euler_angles():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        u = haar_unitary(rng)
        schedule = compile_gate(Gate("U", entries=tuple(u.ravel())), BEAM)
        a, b, c, _ = euler_xyx(u)
        want = []
        for theta, quarters in ((c, 3), (b, 1), (a, None)):
            if abs(theta) >= ZERO_ANGLE_TOL:
                want.append(("pulse", -0.5j * theta))
            if quarters:
                want.append(("drift", quarters))
        got = [("pulse", el.g) if isinstance(el, PinemPulse) else ("drift", el.quarter_units)
               for el in schedule.elements]
        assert got == want
        assert np.array([v for _, v in got]).tobytes() == np.array([v for _, v in want]).tobytes()


def test_gate_matrices_are_the_numpy_construction():
    # the signed zeros count: _hvh_row's square root branches on them
    rng = np.random.default_rng(2510)
    angles = [0.0, -0.0, np.pi, -np.pi, 0.5 * np.pi, -0.5 * np.pi, 1e-300, -1e-300,
              *rng.uniform(-10.0, 10.0, 200).tolist()]
    gates = [Gate(kind) for kind in ("H", "X", "NOT", "Y", "Z", "S", "T")]
    gates += [Gate(kind, angle=t) for kind in ("RX", "RY", "RZ") for t in angles]
    gates += [Gate("U", entries=tuple(haar_unitary(rng).ravel())) for _ in range(50)]
    gates += [Gate("U", entries=(0, 1, 1, 0)), Gate("U", entries=(-0.0, -1j, 1j, -0.0))]
    for gate in gates:
        want = gate_matrix_oracle(gate.kind, gate.angle, gate.entries)
        assert gate.target_matrix().tobytes() == want.tobytes(), gate.label()


def assert_kernels_are_the_scalar_kernels(gs: list) -> list:
    got = pinem_kernels(gs)
    assert len(got) == len(gs)
    for g, kernel in zip(gs, got):
        want = pinem_kernel(g)
        assert kernel.dtype == want.dtype and kernel.shape == want.shape, g
        assert kernel.tobytes() == want.tobytes(), g
        assert not kernel.flags.writeable
    return got


def test_kernel_batch_is_the_scalar_kernel_on_compiled_angles():
    rng = np.random.default_rng(26)
    thetas = [math.pi, -math.pi, 0.5 * math.pi, -0.5 * math.pi,
              *(-rng.uniform(-math.pi, math.pi, 10_000)).tolist()]  # -uniform: (-pi, pi]
    thetas += thetas[::7]  # repeated angles
    gs = [-0.5j * theta for theta in thetas]  # the coupling compile_gate emits
    cells = sum(ladder._start_order(2.0 * abs(g), _KERNEL_BUDGET) + 1 for g in set(gs))
    assert cells > 10 * KERNEL_BLOCK_CELLS  # many blocks, the last one partial
    got = assert_kernels_are_the_scalar_kernels(gs)
    by_coupling = dict(zip(gs, got))
    assert all(kernel is by_coupling[g] for g, kernel in zip(gs, got))  # built once


def test_kernel_batch_at_the_one_term_boundary():
    # K = 0 with no recurrence where x^2 / 2 <= budget, one step of x above it the recurrence
    x = math.sqrt(2.0 * _KERNEL_BUDGET)
    below, above = [x], [x]
    for _ in range(40):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    xs = sorted(set(below + above))
    assert any(0.5 * v * v <= _KERNEL_BUDGET for v in xs)
    assert any(0.5 * v * v > _KERNEL_BUDGET for v in xs)
    gs = [sign * 0.5j * v for v in xs for sign in (1.0, -1.0)]
    got = assert_kernels_are_the_scalar_kernels(gs)
    assert {kernel.size for kernel in got} == {1, 3}


def test_kernel_batch_sends_other_couplings_to_the_scalar_kernel():
    gs = [0j, -0j, complex(-0.0, 1.5), complex(0.0, -1.5), 0.3 + 0.4j, 1e-3 + 0j, 2.0 - 0j,
          125j, -250j, 4.0 * np.exp(0.3j), 1e-300j, 0.7j, 0.7j, complex(-0.0, 0.7)]
    assert_kernels_are_the_scalar_kernels(gs)
    for g in (125j, -250j):  # a block of one coupling with many even orders to sum
        assert_kernels_are_the_scalar_kernels([g])
    assert pinem_kernels([]) == []


def test_kernel_batch_leaves_restarted_and_rescaled_rows_to_the_scalar_code(monkeypatch):
    # the kernel budget's own start orders never need either, so some are forced
    start_order = ladder._start_order
    low = {3.0: 5, 7.5: 10}  # J_n too large: the scalar code restarts from a higher n
    high = {0.01: 400, 0.02: 300}  # 1 / J_n past 1e250: the scalar code rescales

    def forced(x, budget):
        return low.get(x) or high.get(x) or start_order(x, budget)

    monkeypatch.setattr(ladder, "_start_order", forced)
    monkeypatch.setattr(operators, "_start_order", forced)
    xs = [3.0, 7.5, 0.01, 0.02, 0.5, 2.0, 6.0]
    n = np.array([forced(x, _KERNEL_BUDGET) for x in xs])
    _, _, ok = ladder._bessel_half_block(np.array(xs), n, _KERNEL_BUDGET)
    assert ok.tolist() == [False, False, False, False, True, True, True]
    assert_kernels_are_the_scalar_kernels([0.5j * x for x in xs] + [-0.5j * x for x in xs])


def random_circuit_source(rng: np.random.Generator, n_gates: int) -> str:
    lines = []
    for _ in range(n_gates):
        kind = int(rng.integers(4))
        if kind == 0:
            lines.append(("H", "X", "Y", "Z", "S", "T", "NOT")[int(rng.integers(7))])
        elif kind == 3:
            a, b, c, d = (complex(v) for v in haar_unitary(rng).ravel())
            lines.append(f"U [[{a!r},{b!r}],[{c!r},{d!r}]]")
        else:
            lines.append(f"{('RX', 'RY')[kind - 1]}({rng.uniform(-math.pi, math.pi)!r})")
    return "\n".join(lines) + "\n"


def test_compiled_circuit_runs_the_bits_of_gate_by_gate_schedules():
    circuit = parse_circuit(random_circuit_source(np.random.default_rng(200), 200))
    batched = compile_circuit(circuit, BEAM)
    assert all(vars(el).get("_kernel") is not None for schedule in batched
               for el in schedule.elements if isinstance(el, PinemPulse))
    states = []
    for schedules in (batched, [compile_gate(gate, BEAM) for gate in circuit.gates]):
        state = basis_state(0, ADAPTIVE)
        for schedule in schedules:
            state = simulate_schedule(schedule, state, ADAPTIVE)
        states.append(state)
    assert states[0].l_min == states[1].l_min
    assert states[0].amplitudes.tobytes() == states[1].amplitudes.tobytes()


def test_state_and_spectrum_json_are_the_float_per_part_text():
    # signed zeros, subnormals and the extremes of the float range, and the
    # compiled seed-201 circuit's final state
    parts = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -2.2250738585072014e-308,
             0.1, -1.0 / 3.0]
    rng = np.random.default_rng(201)
    amps = np.array([complex(re, im) for re in parts for im in parts])
    state = LadderState(-3, amps[rng.permutation(amps.size)])
    circuit = parse_circuit(random_circuit_source(rng, 50))
    final = basis_state(0, ADAPTIVE)
    for schedule in compile_circuit(circuit, BEAM):
        final = simulate_schedule(schedule, final, ADAPTIVE)
    for s in (state, final):
        doc = {"l_min": s.l_min,
               "amplitudes": [[float(a.real), float(a.imag)] for a in s.amplitudes]}
        assert json.dumps(s.to_json()) == json.dumps(doc)
    spectrum = eels_spectrum(final)
    doc = {"l_min": spectrum.l_min, "probabilities": list(map(float, spectrum.probabilities))}
    assert json.dumps(spectrum.to_json()) == json.dumps(doc)
    zeros = Spectrum(0, np.array([-0.0, 0.5, 0.0, 0.5]))
    assert json.dumps(zeros.to_json()) == '{"l_min": 0, "probabilities": [-0.0, 0.5, 0.0, 0.5]}'
