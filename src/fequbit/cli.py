"""Command-line interface: simulate, compile, spectrum, eigenphases, tomography, bench.

Configuration precedence is CLI flags over config-file values over built-in
defaults; validation problems are collected and reported in one message.
Each failure class has its own exit code so scripts can branch on outcomes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .compiler import Schedule, compile_circuit, parse_circuit, simulate_schedule
from .errors import CircuitParseError, ConfigurationError, TruncationError, WindowError
from .ladder import (
    NORM_TOL,
    BeamParameters,
    LadderState,
    TruncationPolicy,
    basis_state,
    derive_beam,
    occupied_levels,
)
from .operators import PinemPulse, apply_pinem, eigenphases, pinem_kernel
from .qubit import QubitState, project_qubit
from .tomography import add_shot_noise, eels_spectrum, reconstruct_state, spectrogram

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_TRUNCATION = 4
EXIT_RECONSTRUCTION = 5
EXIT_IO = 6

BLOCH_WEIGHT_FLOOR = 1e-9

MAX_COUNTS = 9.2e18
"""Largest counts per column numpy's Poisson sampler accepts (its limit is near 2**63)."""

MAX_PROBE = 100.0
"""Largest probe magnitude. The fit's Jacobian takes 16 bytes per (phase, data
row, fit level), and on the default fit window rows and levels both grow with
the probe width, so it grows with the square of the magnitude (8.6 GiB at
32 phases and magnitude 1000)."""

MAX_PHASES = 1024
"""Most tomography scan phases; the fit's Jacobian and a complex temporary of
the same size grow with it, 69 MB each at the bound for the 65-level ``H T H``
window at the default probe. Their rows and levels also grow with the probe
width, so phases x probe width stays bounded only through ``MAX_PROBE``
(4.7 GB each for that state at both bounds)."""

MAX_EIGENPHASES_DIM = 4097
"""Largest ``eigenphases --dim``: the tridiagonal eigensolve holds only O(dim)
arrays but takes O(dim^2) time, about 0.3 s at the bound on one x86 server
core."""

MAX_BENCH_DIM = 2**24 + 1
"""Largest ``bench --dim``: the bench state then has at most 2**24 + 1 levels,
about 256 MiB as a complex array; the pulse's arrays add its kernel width."""

MAX_WINDOW = 2**23
"""Largest fixed ``--window`` half-width: a state on the window then has
2**24 + 1 levels, about 256 MiB per complex amplitude array."""


@dataclass
class RunConfig:
    beam_kev: float = 200.0
    wavelength_nm: float = 800.0
    delta_e_ev: float = 0.0
    window: str = "adaptive"
    seed: int = 0
    out: str = "."
    csv: bool = False
    probe: float = 1.0
    phases: int = 32
    counts: float = 0.0
    restarts: int = 16


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path}: invalid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"config file {path}: not UTF-8 ({exc})") from None
    if not isinstance(obj, dict):
        raise ConfigurationError(f"config file {path}: expected a JSON object")
    return obj


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and explicit flags; validate everything at once."""
    values = {f.name: f.default for f in fields(RunConfig)}
    problems = []
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        for key, val in file_values.items():
            if key in values:
                values[key] = val
            else:
                problems.append(f"unknown config key {key!r}")
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    # a value of the wrong type or a number no float can hold is listed and
    # replaced by its default, so the checks below still run; bool is an int
    # subclass but only fits `csv`
    for f in fields(RunConfig):
        kind = type(f.default)
        accepted = (str, int) if f.name == "window" else {float: (int, float)}.get(kind, kind)
        value = values[f.name]
        if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
            problems.append(f"{f.name} must be {kind.__name__}, got {value!r}")
            values[f.name] = f.default
        elif kind is float and not abs(value) <= sys.float_info.max:
            problems.append(f"{f.name} must be finite, got {value!r}")
            values[f.name] = f.default

    config = RunConfig(**values)
    config.window = str(config.window)
    if config.window != "adaptive":
        try:
            if not 1 <= int(config.window) <= MAX_WINDOW:
                problems.append(f"window half-width must be an integer in [1, {MAX_WINDOW}]")
        except ValueError:
            problems.append(f"window must be 'adaptive' or an integer, got {config.window!r}")
    if config.beam_kev <= 0:
        problems.append("beam energy must be > 0 keV")
    if config.wavelength_nm <= 0:
        problems.append("wavelength must be > 0 nm")
    if config.delta_e_ev < 0:
        problems.append("energy spread must be >= 0 eV")
    if config.beam_kev > 0 and config.wavelength_nm > 0 and config.delta_e_ev >= 0:
        try:
            derive_beam(config.beam_kev * 1e3, config.wavelength_nm * 1e-9,
                        config.delta_e_ev)
        except ConfigurationError as exc:
            problems.append(str(exc))
    if int(config.seed) < 0:
        problems.append("seed must be >= 0")
    config.seed = int(config.seed)
    if not 0 < config.probe <= MAX_PROBE:
        problems.append(f"probe magnitude must be in (0, {MAX_PROBE:g}]")
    if not 8 <= config.phases <= MAX_PHASES:
        problems.append(f"scan phases must be in [8, {MAX_PHASES}]")
    if not 0 <= config.counts <= MAX_COUNTS:
        problems.append(f"counts per column must be in [0, {MAX_COUNTS:.2g}]")
    if config.restarts < 1:
        problems.append("need at least 1 reconstruction restart")
    if problems:
        raise ConfigurationError(
            "invalid configuration:\n  - " + "\n  - ".join(problems))
    return config


def _policy(config: RunConfig) -> TruncationPolicy:
    if config.window == "adaptive":
        return TruncationPolicy.adaptive()
    return TruncationPolicy.fixed(int(config.window))


def _beam(config: RunConfig) -> BeamParameters:
    return derive_beam(config.beam_kev * 1e3, config.wavelength_nm * 1e-9,
                       config.delta_e_ev)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise CircuitParseError(f"{path}: not UTF-8 ({exc})") from None


def _outdir(config: RunConfig) -> str:
    os.makedirs(config.out, exist_ok=True)
    return config.out


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


def _state_from_inputs(args, config: RunConfig) -> LadderState:
    if getattr(args, "state", None):
        try:
            state = LadderState.load(args.state)
        except KeyError as exc:
            raise ConfigurationError(f"state file {args.state}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"state file {args.state}: {exc}") from None
        if not abs(state.norm() - 1.0) <= NORM_TOL:
            raise ConfigurationError(
                f"state file {args.state}: norm {state.norm()!r} is not 1 "
                f"within {NORM_TOL:.0e}")
        return state
    return _run_circuit(args.circuit, config)


def _run_circuit(path: str, config: RunConfig,
                 visit=lambda label, state: None) -> LadderState:
    """Parse and compile the DSL file, then simulate it from |0>; ``visit``
    sees |0> and the state after each gate, with the gate's label."""
    circuit = parse_circuit(_read_text(path), name=os.path.basename(path))
    policy = _policy(config)
    state = basis_state(0, policy)
    visit("|0>", state)
    for gate, schedule in zip(circuit.gates, compile_circuit(circuit, _beam(config))):
        state = simulate_schedule(schedule, state, policy)
        visit(gate.label(), state)
    return state


def cmd_simulate(args, config: RunConfig) -> int:
    policy = _policy(config)
    rows = []

    def record(label, state):
        rows.append((str(len(rows)), label, project_qubit(
            state, edge_margin=policy.edge_margin, leakage_tol=policy.leakage_tol)))

    state = _run_circuit(args.circuit, config, record)
    out = _outdir(config)
    state.dump(os.path.join(out, "state.json"))
    _write_json(os.path.join(out, "qubit.json"), rows[-1][2].to_json())
    _write_bloch_csv(os.path.join(out, "bloch.csv"), rows)
    final = rows[-1][2]
    print(f"simulated {len(rows) - 1} gate(s); "
          f"qubit alpha={final.alpha:.6g} beta={final.beta:.6g}")
    print(f"wrote state.json, qubit.json, bloch.csv in {out}")
    return EXIT_OK


def _write_bloch_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("gate_index,gate,alpha_re,alpha_im,beta_re,beta_im,"
                 "weight,bloch_valid,x,y,z\n")
        for index, label, q in rows:
            w = q.weight
            if w > BLOCH_WEIGHT_FLOOR:
                x, y, z = q.bloch_vector()
                tail = f"1,{x!r},{y!r},{z!r}"
            else:
                tail = "0,nan,nan,nan"
            fh.write(f"{index},{label},{q.alpha.real!r},{q.alpha.imag!r},"
                     f"{q.beta.real!r},{q.beta.imag!r},{w!r},{tail}\n")


def load_bloch_csv(path: str) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            toks = line.rstrip("\n").split(",")
            row = dict(zip(header, toks))
            row["qubit"] = QubitState(
                complex(float(row["alpha_re"]), float(row["alpha_im"])),
                complex(float(row["beta_re"]), float(row["beta_im"])))
            rows.append(row)
    return rows


def cmd_compile(args, config: RunConfig) -> int:
    circuit = parse_circuit(_read_text(args.circuit), name=os.path.basename(args.circuit))
    beam = _beam(config)
    schedules = compile_circuit(circuit, beam)
    out = _outdir(config)
    doc = {
        "name": circuit.name,
        "beam": beam.to_json(),
        "gates": [
            {"gate": gate.label(), "schedule": schedule.to_json()}
            for gate, schedule in zip(circuit.gates, schedules)
        ],
    }
    path = os.path.join(out, "schedule.json")
    _write_json(path, doc)
    for gate, schedule in zip(circuit.gates, schedules):
        print(f"{gate.label()}: {schedule.n_pulses} pulse(s), "
              f"{schedule.n_drifts} drift(s)")
    print(f"wrote {path}")
    return EXIT_OK


def load_compiled(path: str) -> list[tuple[str, Schedule]]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [(entry["gate"], Schedule.from_json(entry["schedule"]))
            for entry in doc["gates"]]


def cmd_spectrum(args, config: RunConfig) -> int:
    state = _state_from_inputs(args, config)
    spec = eels_spectrum(state)
    out = _outdir(config)
    if config.csv:
        path = os.path.join(out, "spectrum.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("l,p\n")
            for l, p in zip(spec.indices, spec.probabilities):
                fh.write(f"{l},{float(p)!r}\n")
    else:
        path = os.path.join(out, "spectrum.json")
        _write_json(path, spec.to_json())
    print(f"wrote {path}")
    return EXIT_OK


def load_spectrum_csv(path: str):
    levels, probs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            l, p = line.strip().split(",")
            levels.append(int(l))
            probs.append(float(p))
    from .tomography import Spectrum
    return Spectrum(levels[0], np.asarray(probs))


def cmd_eigenphases(args, config: RunConfig) -> int:
    if not 3 <= args.dim <= MAX_EIGENPHASES_DIM or args.dim % 2 == 0:
        raise ConfigurationError(f"eigenphases needs an odd dim in [3, {MAX_EIGENPHASES_DIM}]")
    if not 0 <= args.g < math.inf:
        raise ConfigurationError("coupling magnitude must be finite and >= 0")
    phases = eigenphases(PinemPulse.single(args.g), args.dim)
    out = _outdir(config)
    path = os.path.join(out, "eigenphases.csv")
    with open(path, "w", encoding="utf-8") as fh:
        for phi in phases:
            fh.write(f"{float(phi)!r}\n")
    print(f"{phases.size} eigenphases in [{phases.min():.6f}, {phases.max():.6f}]")
    print(f"wrote {path}")
    return EXIT_OK


def load_eigenphases_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.array([float(line) for line in fh if line.strip()])


def cmd_tomography(args, config: RunConfig) -> int:
    # narrow the fit window: the simulation already trims its padding, but it
    # keeps edge levels of per-cell probability up to 1e-18 that this cut
    # drops, and the reconstruction cost grows with the data window
    state = _state_from_inputs(args, config).trimmed()
    sg = spectrogram(state, probe_magnitude=config.probe, n_phases=config.phases)
    if config.counts > 0:
        sg = add_shot_noise(sg, config.counts, seed=config.seed)
    out = _outdir(config)
    sg.to_csv(os.path.join(out, "spectrogram.csv"))
    result = reconstruct_state(sg, window=_policy(config), n_restarts=config.restarts,
                               seed=config.seed)
    _write_json(os.path.join(out, "reconstruction.json"), result.to_json())
    qubit = project_qubit(result.state, edge_margin=0)
    _write_json(os.path.join(out, "readout_qubit.json"), qubit.to_json())
    print(f"reconstruction residual {result.residual:.3e} "
          f"({'ok' if result.ok else 'FAILED'}), restarts used {result.restarts}")
    print(f"wrote spectrogram.csv, reconstruction.json, readout_qubit.json in {out}")
    return EXIT_OK if result.ok else EXIT_RECONSTRUCTION


def cmd_bench(args, config: RunConfig) -> int:
    if not 3 <= args.dim <= MAX_BENCH_DIM:
        raise ConfigurationError(f"bench needs dim in [3, {MAX_BENCH_DIM}]")
    if not 0 <= args.g < math.inf:
        raise ConfigurationError("coupling magnitude must be finite and >= 0")
    half = args.dim // 2
    # the kernel runs at least to |k| = floor(2|g|): a window short of that is
    # rejected before the kernel is built
    needed = math.floor(2.0 * args.g)
    if half >= needed:
        needed = pinem_kernel(args.g).size // 2
    if half < needed:
        raise ConfigurationError(
            f"dim {args.dim} too small for |g| = {args.g}; need at least {2 * needed + 1}")
    policy = TruncationPolicy.fixed(half)
    pulse = PinemPulse.single(args.g)
    state = basis_state(0, half)

    t0 = time.perf_counter()
    result = apply_pinem(state, pulse, policy)
    seconds = time.perf_counter() - t0

    report = {
        "g_magnitude": args.g,
        "dim": result.dim,
        "occupied_levels": occupied_levels(result),
        "bessel_seconds": seconds,
        "matexp_seconds": seconds,  # one pulse path; kept as test_bench_report reads it
        "norm_error": abs(result.norm() - 1.0),
    }
    out = _outdir(config)
    path = os.path.join(out, "bench.json")
    _write_json(path, report)
    print(f"|g|={args.g}: {report['occupied_levels']} occupied levels on {result.dim}, "
          f"convolution {seconds * 1e3:.2f} ms")
    print(f"wrote {path}")
    return EXIT_OK


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beam-kev", dest="beam_kev", type=float, default=None,
                        help="electron kinetic energy in keV (default 200)")
    parser.add_argument("--wavelength-nm", dest="wavelength_nm", type=float, default=None,
                        help="laser wavelength in nm (default 800)")
    parser.add_argument("--delta-e-ev", dest="delta_e_ev", type=float, default=None,
                        help="beam energy spread in eV, metadata only (default 0)")
    parser.add_argument("--window", default=None,
                        help="'adaptive' (default) or a fixed half-width integer")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument("--out", default=None, help="output directory (default '.')")
    parser.add_argument("--csv", action="store_true", default=None,
                        help="CSV instead of JSON for tabular outputs")
    parser.add_argument("--config", default=None, help="JSON config file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fequbit",
        description="Free-electron qubit simulator and pulse-schedule compiler")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a circuit end to end from |0>")
    p.add_argument("circuit", help="gate DSL file")
    _add_common_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compile", help="compile a circuit to pulse/drift schedules")
    p.add_argument("circuit", help="gate DSL file")
    _add_common_flags(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("spectrum", help="energy spectrum of a state or circuit output")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--circuit", help="gate DSL file, simulated from |0>")
    group.add_argument("--state", help="ladder-state JSON file")
    _add_common_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("eigenphases", help="eigenphases of one laser interaction")
    p.add_argument("--g", type=float, required=True, help="coupling magnitude |g|")
    p.add_argument("--dim", type=int, required=True, help="odd window dimension")
    _add_common_flags(p)
    p.set_defaults(func=cmd_eigenphases)

    p = sub.add_parser("tomography", help="spectrogram plus state reconstruction")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--circuit", help="gate DSL file, simulated from |0>")
    group.add_argument("--state", help="ladder-state JSON file")
    p.add_argument("--probe", type=float, default=None, help="probe magnitude (default 1)")
    p.add_argument("--phases", type=int, default=None, help="scan phases (default 32)")
    p.add_argument("--counts", type=float, default=None,
                   help="Poisson counts per column, 0 = noiseless (default 0)")
    p.add_argument("--restarts", type=int, default=None,
                   help="most fit starts, tried until one fits (default 16)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("bench", help="time one laser interaction from |0>")
    p.add_argument("--g", type=float, required=True, help="coupling magnitude |g|")
    p.add_argument("--dim", type=int, required=True, help="window dimension")
    _add_common_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        return args.func(args, config)
    except CircuitParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, WindowError) as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("configuration error: out of memory; reduce the sizing flags "
              "(--dim, --phases, --probe, a fixed --window)", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
