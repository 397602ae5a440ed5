"""Independent oracles used by the tests.

Nothing here may call into fequbit's own computational paths: Bessel values
come from a direct power-series summation (arbitrary-precision to survive
the alternating-series cancellation), unitaries from QR, pulse unitaries
from the dense generator, expected projections from plain Python loops.
"""

import math

import mpmath as mp
import numpy as np
from scipy.linalg import expm


def bessel_series(k: int, x: float) -> float:
    """J_k(x) for integer k from the defining power series.

    Summed in arbitrary precision: the series alternates and its largest term
    grows like e^x, so float64 would lose ~0.43*x digits to cancellation.
    """
    if k < 0:
        val = bessel_series(-k, x)
        return -val if k % 2 else val
    if x < 0:
        val = bessel_series(k, -x)
        return -val if k % 2 else val
    dps = 35 + int(0.45 * x)
    with mp.workdps(dps):
        xh = mp.mpf(x) / 2
        q = -(xh * xh)
        term = xh**k / mp.factorial(k)
        total = term
        m = 1
        growth_end = float(xh * xh)
        while True:
            term = term * q / (m * (m + k))
            total += term
            if m * (m + k) > growth_end and abs(term) < mp.mpf(10) ** (5 - dps):
                break
            m += 1
        return float(total)


def pinem_amplitudes_oracle(g: complex, k_values) -> np.ndarray:
    """Closed-form amplitudes e^{i k arg(-g)} J_k(2|g|) from the series oracle."""
    chi = math.atan2((-g).imag, (-g).real)
    return np.array([np.exp(1j * chi * k) * bessel_series(int(k), 2.0 * abs(g))
                     for k in k_values])


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random U(2) via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))


def even_odd_sums_oracle(state) -> tuple[complex, complex]:
    """Brute-force even/odd ladder sums with a plain Python loop."""
    even = 0.0 + 0.0j
    odd = 0.0 + 0.0j
    for l, amp in zip(state.indices, state.amplitudes):
        if l % 2 == 0:
            even += complex(amp)
        else:
            odd += complex(amp)
    return even, odd


def residue_sums_oracle(state, p: int) -> np.ndarray:
    """Brute-force residue-class sums mod p."""
    out = np.zeros(p, dtype=np.complex128)
    for l, amp in zip(state.indices, state.amplitudes):
        out[int(l) % p] += complex(amp)
    return out


def residue_sums_add_at(state, p: int) -> np.ndarray:
    """Residue-class sums mod p by np.add.at over the absolute indices: each
    class is summed in index order, starting from +0."""
    out = np.zeros(p, dtype=np.complex128)
    np.add.at(out, state.indices % p, state.amplitudes)
    return out


def adaptive_trim_oracle(amps: np.ndarray, l_min: int, edge_margin: int,
                         tol: float) -> tuple[int, np.ndarray]:
    """(l_min, amplitudes) of a raw convolution cut to its support plus guards.

    From each end the longest run whose summed |amplitude| is at most tol / 2
    is dropped, found with np.abs of the whole array and one np.cumsum from
    each end; an array whose runs meet keeps every cell. ``edge_margin``
    guard cells are kept per side: a zero-filled window, then the array's
    cells copied in.
    """
    mass = np.abs(amps)
    lo = int(np.searchsorted(np.cumsum(mass), tol / 2, side="right"))
    hi = int(np.searchsorted(np.cumsum(mass[::-1]), tol / 2, side="right"))
    if lo + hi >= amps.size:
        lo = hi = 0
    out_l_min = l_min + lo - edge_margin
    out = np.zeros(amps.size - lo - hi + 2 * edge_margin, dtype=np.complex128)
    src_lo = max(l_min, out_l_min)
    src_hi = min(l_min + amps.size, out_l_min + out.size)
    out[src_lo - out_l_min:src_hi - out_l_min] = amps[src_lo - l_min:src_hi - l_min]
    return out_l_min, out


def composed_kernel_oracle(kernels, tol: float) -> tuple[np.ndarray, int]:
    """(kernel, centre) of one pulse: ``kernels`` lists (h, f) per nonzero
    harmonic, f its kernel at k = -K..K, in harmonic order.

    Each f is placed on a zero-filled copy that steps over every h-th level,
    and the copies are composed with one ``np.convolve`` each, in order.
    With two or more harmonics the longest run at each end whose summed
    |tap| is at most tol / 2 is dropped, found with np.abs of the whole
    kernel and one np.cumsum from each end. ``centre`` is the index of the
    composed k = 0 tap, so the result of a state at l_min starts at
    l_min - centre.
    """
    kernel, centre = None, 0
    for h, f in kernels:
        dilated = np.zeros(h * (f.size - 1) + 1, dtype=np.complex128)
        dilated[::h] = f
        kernel = dilated if kernel is None else np.convolve(kernel, dilated)
        centre += h * (f.size // 2)
    if len(kernels) > 1:
        mass = np.abs(kernel)
        lo = int(np.searchsorted(np.cumsum(mass), tol / 2, side="right"))
        hi = int(np.searchsorted(np.cumsum(mass[::-1]), tol / 2, side="right"))
        kernel, centre = kernel[lo:kernel.size - hi], centre - lo
    return kernel, centre


def pinem_generator(pulse, dim: int) -> np.ndarray:
    """Anti-Hermitian generator of the laser interaction on a dim-level window."""
    if dim < 3:
        raise ValueError("dim must be >= 3")
    a = np.zeros((dim, dim), dtype=np.complex128)
    for h, g in pulse.couplings:
        if h >= dim:
            continue
        idx = np.arange(dim - h)
        a[idx + h, idx] = -g
        a[idx, idx + h] = np.conj(g)
    return a


def commutator_norm(p1, p2, dim: int, interior: int) -> float:
    """Operator norm of [U(p1), U(p2)] on the interior block of the window.

    On the infinite ladder all these unitaries commute (they are Fourier
    multipliers); truncation breaks that only near the edges, so the norm is
    taken after discarding ``interior`` rows/columns at each end.
    """
    if interior < 0 or 2 * interior >= dim:
        raise ValueError("interior margin must satisfy 0 <= interior < dim/2")
    u1 = expm(pinem_generator(p1, dim))
    u2 = expm(pinem_generator(p2, dim))
    c = u1 @ u2 - u2 @ u1
    block = c[interior:dim - interior, interior:dim - interior]
    return float(np.linalg.norm(block, 2))


def _mp_gate_entries(kind: str, angle: float | None, entries) -> list:
    """Row-major entries of a gate's matrix from its definition, as mpmath
    numbers at the working precision; a float angle is taken exactly."""
    if kind == "U":
        return [mp.mpc(complex(z)) for z in entries]
    if kind in ("RX", "RY", "RZ"):
        c, s = mp.cos(mp.mpf(angle)), mp.sin(mp.mpf(angle))
        return {"RX": [c, 1j * s, 1j * s, c], "RY": [c, s, -s, c],
                "RZ": [1, 0, 0, mp.expj(mp.mpf(angle))]}[kind]
    r = 1 / mp.sqrt(2)
    return [mp.mpc(z) for z in {
        "H": [r, r, r, -r], "X": [0, 1, 1, 0], "NOT": [0, 1, 1, 0], "Y": [0, -1j, 1j, 0],
        "Z": [1, 0, 0, -1], "S": [1, 0, 0, 1j], "T": [1, 0, 0, mp.expj(mp.pi / 4)]}[kind]]


def _mp_matmul(p: list, q: list) -> list:
    return [p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3]]


def xyx_schedule_oracle(kind: str, angle: float | None = None, entries=None,
                        dps: int = 40) -> tuple[list, complex]:
    """The schedule the XYX compile rules give for a gate, in ``dps`` digits.

    Returns ([("pulse", g) or ("drift", quarter_units), ...] first applied
    first, unit global phase), with g = -i theta / 2 the coupling of a pulse
    that rotates by Rx(theta). The rules are the compiler's documented
    ones, worked without its arithmetic:
    - Z, S and an RZ within 1e-12 rad of a quarter turn are one drift of
      that many quarters mod 4, none for 0.
    - With V = u / sqrt(det u) (principal root), |Im V00| and |Re V01| both
      <= 1e-12 make an x-rotation: theta = atan2(Im V01, Re V00), folded
      into (-pi/2, pi/2].
    - Otherwise u = phase Rx(a) Ry(b) Rx(c). With H the Hadamard gate, H V H
      = e^{iaZ} Ry(-b) e^{icZ}, whose first row is (cos b e^{i(a+c)},
      -sin b e^{i(a-c)}); the read-off (a, b, c), with b = -atan2(|y|, |x|),
      is taken from it with the four-entry sums x = (V00 + V01 + V10 + V11) / 2
      and y = (V00 - V01 + V10 - V11) / 2, whose cancellation the working
      precision absorbs. An argument is taken as 0 where the modulus is
      <= 1e-14, and angles lie in (-pi, pi].
    - The branch: with fold(t) the t + n pi in (-pi/2, pi/2], the candidates
      (fold a, b, fold c) and (fold(a + pi/2), -b, fold(c - pi/2)) are tried
      in that order against the read-off. Each replaces the best so far if
      its spread a^2 + b^2 + c^2 + 2ac J1(2b)/b is below the best's times
      1 - 1e-9. The schedule is pulse c, drift 3, pulse b, drift 1, pulse a.
    - A pulse of |theta| < 1e-12 is left out.
    The phase is tr(R^dag u) / |tr| for R the product of the kept elements'
    2x2 matrices, multiplied out here.
    """
    with mp.workdps(dps):
        u = _mp_gate_entries(kind, angle, entries)
        tol, arg_tol = mp.mpf("1e-12"), mp.mpf("1e-14")

        def wrap(t):
            t = t - 2 * mp.pi * mp.nint(t / (2 * mp.pi))
            return t + 2 * mp.pi if t <= -mp.pi else t

        quarters = {"Z": 2, "S": 1}.get(kind)
        if kind == "RZ":
            q = mp.mpf(angle) / (mp.pi / 2)
            if abs(q - mp.nint(q)) * mp.pi / 2 < tol:
                quarters = int(mp.nint(q)) % 4
        v = [z / mp.sqrt(u[0] * u[3] - u[1] * u[2]) for z in u]
        if quarters is not None:
            steps = [("drift", quarters)] if quarters else []
        elif abs(mp.im(v[0])) <= tol and abs(mp.re(v[1])) <= tol:
            theta = mp.atan2(mp.im(v[1]), mp.re(v[0]))
            if theta <= -mp.pi / 2:
                theta += mp.pi
            elif theta > mp.pi / 2:
                theta -= mp.pi
            steps = [("pulse", theta)]
        else:
            x = (v[0] + v[1] + v[2] + v[3]) / 2
            y = (v[0] - v[1] + v[2] - v[3]) / 2
            s = mp.arg(x) if abs(x) > arg_tol else mp.mpf(0)
            t = mp.arg(y) if abs(y) > arg_tol else mp.mpf(0)
            a, b, c = wrap((s + t) / 2), -mp.atan2(abs(y), abs(x)), wrap((s - t) / 2)

            def fold(t):
                return t + mp.pi if t <= -mp.pi / 2 else t - mp.pi if t > mp.pi / 2 else t

            def spread(a, b, c):
                return a ** 2 + b ** 2 + c ** 2 + 2 * a * c * mp.besselj(1, 2 * b) / b

            best = (a, b, c)
            for cand in ((fold(a), b, fold(c)), (fold(a + mp.pi / 2), -b, fold(c - mp.pi / 2))):
                if spread(*cand) < spread(*best) * (1 - mp.mpf("1e-9")):
                    best = cand
            a, b, c = best
            steps = [("pulse", c), ("drift", 3), ("pulse", b), ("drift", 1), ("pulse", a)]
        steps = [(what, v) for what, v in steps if what == "drift" or abs(v) >= tol]
        realized = [mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(1)]
        for what, v in steps:
            if what == "pulse":
                c, s = mp.cos(v), mp.sin(v)
                step = [c, 1j * s, 1j * s, c]
            else:
                step = [1, 0, 0, mp.mpc(0, 1) ** v]
            realized = _mp_matmul(step, realized)
        tr = sum(mp.conj(r) * z for r, z in zip(realized, u))
        return ([(what, v if what == "drift" else mp.mpc(0, -v / 2)) for what, v in steps],
                tr / abs(tr))


def spectrogram_per_phase_oracle(amplitudes: np.ndarray, row: np.ndarray,
                                 n_phases: int) -> np.ndarray:
    """Spectrogram data (levels, phases) with one gauge and one convolution per
    scan phase chi_j = 2 pi j / n_phases: |row * (e^{-i(chi + pi) m} psi_m)|^2.

    ``row`` is the probe's real Bessel row J_k(2 m_p), k = -K..K.
    """
    phases = 2.0 * np.pi * np.arange(n_phases) / n_phases
    m = np.arange(amplitudes.size)
    data = np.empty((amplitudes.size + row.size - 1, n_phases))
    for j, chi in enumerate(phases):
        gauge = np.exp(-1j * np.multiply.outer(np.add(chi, np.pi), m))
        data[:, j] = np.abs(np.convolve(gauge * amplitudes, row)) ** 2
    return data


def spectrogram_csv_oracle(scan_phases, probe_magnitude: float, l_min: int,
                           data: np.ndarray) -> str:
    """Spectrogram CSV text with each value written as repr(float(v)): a row
    ``l`` of scan phases, a row ``probe`` of the magnitude once per phase,
    then one row per level."""
    lines = ["l," + ",".join(repr(float(p)) for p in scan_phases),
             "probe," + ",".join([repr(float(probe_magnitude))] * len(scan_phases))]
    for row, values in enumerate(data):
        lines.append(f"{l_min + row}," + ",".join(repr(float(v)) for v in values))
    return "\n".join(lines) + "\n"


def probed_amplitudes_oracle(scan_phases, bess: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """mixed_{j,l} = sum_m e^{-i(chi_j + pi) m} psi_m J_{l-m}, one row per scan
    phase: the gauge from one ``np.exp`` over phases x levels, times psi, times
    ``bess`` (J_{l-m}(2 m_p), data rows by levels) transposed."""
    gauge = np.exp(-1j * np.multiply.outer(np.add(scan_phases, np.pi), np.arange(psi.size)))
    return (gauge * psi) @ bess.T


def toeplitz_oracle(row: np.ndarray, rows_l_min: int, n_rows: int, l_min: int,
                    n: int) -> np.ndarray:
    """J_{l-m}(2 m_p) from the n levels from l_min to the n_rows data rows
    from rows_l_min, entry by entry: ``row`` (k = -K..K) at lag l - m within
    the cut, zero elsewhere."""
    k_half = row.size // 2
    bess = np.zeros((n_rows, n))
    for i in range(n_rows):
        for j in range(n):
            lag = (rows_l_min + i) - (l_min + j)
            if abs(lag) <= k_half:
                bess[i, j] = row[lag + k_half]
    return bess


def spectrogram_product_oracle(amplitudes: np.ndarray, row: np.ndarray,
                               n_phases: int) -> np.ndarray:
    """Spectrogram data (levels, phases) as |mixed|^2 of one product over all
    levels (``probed_amplitudes_oracle`` with ``toeplitz_oracle`` onto the
    n + 2K rows the state reaches), the fit's forward model, at
    chi_j = 2 pi j / n_phases."""
    phases = 2.0 * np.pi * np.arange(n_phases) / n_phases
    n, k_half = amplitudes.size, row.size // 2
    bess = toeplitz_oracle(row, -k_half, n + 2 * k_half, 0, n)
    mixed = probed_amplitudes_oracle(phases, bess, amplitudes)
    return np.ascontiguousarray((np.abs(mixed) ** 2).T)


def fit_jacobian_oracle(scan_phases, bess: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Jacobian of the spectrogram fit's residuals at x = (re psi, im psi).

    ``bess`` is J_{l-m}(2 m_p), data rows by fit levels. With mixed from
    ``probed_amplitudes_oracle`` and weighted = conj(mixed)
    e^{-i(chi_j + pi) m}, the derivative of |mixed_{j,l}|^2 by re psi_m is
    2 J_{l-m} Re(weighted) and by im psi_m is -2 J_{l-m} Im(weighted); rows
    are (phase, data row), columns re psi then im psi.
    """
    n_par = bess.shape[1]
    gauge = np.exp(-1j * np.multiply.outer(np.add(scan_phases, np.pi), np.arange(n_par)))
    mixed = probed_amplitudes_oracle(scan_phases, bess, x[:n_par] + 1j * x[n_par:])
    weighted = np.conj(mixed)[:, :, None] * gauge[:, None, :]
    jac = np.empty(weighted.shape[:2] + (2, n_par))
    jac[:, :, 0] = weighted.real * (2.0 * bess)
    jac[:, :, 1] = weighted.imag * (-2.0 * bess)
    return jac.reshape(-1, 2 * n_par)


def gate_matrix_oracle(kind: str, angle: float | None = None, entries=None) -> np.ndarray:
    """A gate's 2x2 complex128 matrix built as numpy arrays: the named gates
    as literal arrays (H divided by sqrt 2), RX from ``np.cos``/``np.sin``
    with ``1j * s`` off the diagonal, RY from ``math.cos``/``math.sin``, RZ
    as ``np.diag`` of 1 and ``np.exp(1j * angle)``, U from its entries."""
    named = {
        "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0),
        "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "NOT": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        "Z": np.diag([1.0 + 0.0j, -1.0 + 0.0j]),
        "S": np.diag([1.0 + 0.0j, 1.0j]),
        "T": np.diag([1.0 + 0.0j, np.exp(0.25j * np.pi)]),
    }
    if kind in named:
        return named[kind]
    if kind == "RX":
        c, s = np.cos(angle), np.sin(angle)
        return np.array([[c, 1j * s], [1j * s, c]], dtype=np.complex128)
    if kind == "RY":
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, s], [-s, c]], dtype=np.complex128)
    if kind == "RZ":
        return np.diag([1.0 + 0.0j, np.exp(1j * angle)])
    return np.array(entries, dtype=np.complex128).reshape(2, 2)
