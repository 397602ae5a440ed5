"""Command-line interface: simulate, compile, spectrum, eigenphases, tomography.

Each setting is one ``RunConfig`` field, which holds its default, flag help
and range check. Each command's row in the ``_COMMANDS`` table names its
inputs and the settings it reads: the command takes the flag and the
config-file key of those settings alone and checks only them, so another
setting's flag ends with a usage error and its key with a configuration
error. Configuration precedence is CLI flags over config-file values over the
defaults; validation problems are collected and reported in one message.

Scripts can branch on the exit code. ``_EXITS`` is the one table of codes:
each row holds a code's meaning, which the epilog of ``fequbit --help``
lists, the error classes that end with it, and the prefix of their stderr
line. ``main`` maps an error to its code and prefix through that table
alone, save ``MemoryError``, whose message is fixed text. Every file a
command reads goes through ``ladder.read_text``, and the reader of each
format raises the package error whose code the table gives for a malformed
file of it.

A command computes everything first and returns its exit code with its
files: an ordered map from each file name to the writer of that file.
``main`` alone creates ``--out``, once the command has returned, runs the
writers in order and prints one ``wrote <names> in <out>`` line. So a run
that raises creates nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields

from .compiler import compile_circuit, parse_circuit, simulate_schedule
from .errors import CircuitParseError, ConfigurationError, TruncationError, WindowError
from .ladder import (
    NORM_TOL,
    BeamParameters,
    LadderState,
    TruncationPolicy,
    basis_state,
    derive_beam,
    read_json,
    read_text,
    write_text,
)
from .operators import PinemPulse, eigenphases
from .qubit import project_qubit
from .tomography import (
    DEFAULT_N_PHASES,
    DEFAULT_PROBE_MAGNITUDE,
    DEFAULT_RESTARTS,
    MAX_COUNTS,
    add_shot_noise,
    eels_spectrum,
    reconstruct_state,
    spectrogram,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_TRUNCATION = 4
EXIT_RECONSTRUCTION = 5
EXIT_IO = 6
_EXITS = {
    # code: (its meaning in --help, the errors that end with it, their stderr prefix)
    EXIT_OK: ("ok", (), ""),
    EXIT_PARSE: ("circuit or command-line parse", (CircuitParseError,), "parse error"),
    EXIT_CONFIG: ("config or input file, size or out of memory", (ConfigurationError,),
                  "configuration error"),
    EXIT_TRUNCATION: ("truncation or window", (TruncationError, WindowError),
                      "truncation error"),
    EXIT_RECONSTRUCTION: ("reconstruction failed", (), ""),
    EXIT_IO: ("I/O", (OSError,), "i/o error"),
}

BLOCH_WEIGHT_FLOOR = 1e-9

MAX_PROBE = 100.0
"""Largest probe magnitude. The data rows grow with the probe width, the fit
levels do not: the default fit window is the state's own, unless the fit
falls back to every data row, whose phases x rows x rows grow with the
square of the magnitude. ``tomography.MAX_FIT_CELLS`` bounds that fallback.
At this bound the 35-level ``H T H`` state spans 537 data rows, 6.0e5 cells
on its own window and 9.2e6 on every row at the default 32 phases."""

MAX_PHASES = 1024
"""Most tomography scan phases. A fit's phases x data rows x fit levels grow
with it: at the bound, the 65 data rows of ``H T H`` at the default probe
give 2.3e6 cells on the state's 35 levels and 4.3e6 if the fit falls back
to every row. Together with a wide probe or state the product is bounded by
``tomography.MAX_FIT_CELLS``, not by this cap."""

MAX_RESTARTS = 256
"""Most fit starts. Starts after the first run only while the fit fails; each
failed start on the 3-gate ``H T H`` state at the default probe and phases
(``--counts 30``) took 0.07-0.08 s on a 2-core x86 server, with one BLAS
thread and with OpenBLAS's default two alike (medians of 5 runs at 1, 8 and
32 starts), so the bound caps such a run near 20 s. Wider states and more
phases cost more per start."""

MAX_EIGENPHASES_DIM = 4097
"""Largest ``eigenphases --dim``: the closed-form phases take O(dim) time and
memory, so the cost is the CSV the command writes, one line per phase (about
79 kB, written in ~2 ms on one x86 server core, at the bound)."""

MAX_WINDOW = 2**23
"""Largest fixed ``--window`` half-width: a state on the window then has
2**24 + 1 levels, about 256 MiB per complex amplitude array."""


def _setting(default, text: str, check=None, problem: str = "", *, types=None):
    """A ``RunConfig`` field that carries its flag, and its range ``check``
    with the ``problem`` listed when the check fails. The flag's help ``text``
    ends with the default, unless the flag is a switch or the text names
    ``(default`` itself. A value whose type is not in ``types`` fails; they
    default to the default's own, and an int also fits a float (bool is an
    int subclass but not an int here)."""
    kind = type(default)
    if kind is not bool and "(default" not in text:
        text += f" (default {default!r})" if kind is str else f" (default {default:g})"
    flag = {"help": text, **({"action": "store_true"} if kind is bool else {"type": kind})}
    return field(default=default, metadata={
        "flag": flag, "check": check, "problem": problem,
        "types": types or {float: (int, float)}.get(kind, (kind,))})


@dataclass
class RunConfig:
    """Every setting of the commands, read from its flag over a config file over
    the default; the flags, config keys and checks are built from these fields.
    A setting that a command does not read keeps its default there."""

    beam_kev: float = _setting(200.0, "electron kinetic energy in keV", lambda v: v > 0,
                               "beam energy must be > 0 keV")
    wavelength_nm: float = _setting(800.0, "laser wavelength in nm", lambda v: v > 0,
                                    "wavelength must be > 0 nm")
    delta_e_ev: float = _setting(0.0, "beam energy spread in eV, metadata only",
                                 lambda v: v >= 0, "energy spread must be >= 0 eV")
    window: str = _setting("adaptive", "'adaptive' (default) or a fixed half-width integer",
                           types=(str, int))
    seed: int = _setting(0, "RNG seed", lambda v: v >= 0, "seed must be >= 0")
    out: str = _setting(".", "output directory", lambda v: v and "\0" not in v,
                        "out must be a non-empty path with no NUL character")
    csv: bool = _setting(False, "CSV instead of JSON for tabular outputs")
    probe: float = _setting(DEFAULT_PROBE_MAGNITUDE, "probe magnitude",
                            lambda v: 0 < v <= MAX_PROBE,
                            problem=f"probe magnitude must be in (0, {MAX_PROBE:g}]")
    phases: int = _setting(DEFAULT_N_PHASES, "scan phases", lambda v: 8 <= v <= MAX_PHASES,
                           f"scan phases must be in [8, {MAX_PHASES}]")
    counts: float = _setting(0.0, "Poisson counts per column, 0 = noiseless",
                             lambda v: 0 <= v <= MAX_COUNTS,
                             problem=f"counts per column must be in [0, {MAX_COUNTS:.2g}]")
    restarts: int = _setting(DEFAULT_RESTARTS, "most fit starts, tried until one fits",
                             lambda v: 1 <= v <= MAX_RESTARTS,
                             problem=f"reconstruction restarts must be in [1, {MAX_RESTARTS}]")


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and explicit flags of the settings
    ``args.command`` reads; validate them all at once.

    A config-file key that the command does not read is a problem, whether or
    not it names another command's setting. The command flags ``--g`` and
    ``--dim`` are range-checked here too, so one message lists every problem
    before any command allocates.
    """
    read = _COMMANDS[args.command][3]
    values = {f.name: f.default for f in fields(RunConfig)}
    file_values = read_json(args.config) if getattr(args, "config", None) else {}
    if not isinstance(file_values, dict):
        raise ConfigurationError(f"config file {args.config}: expected a JSON object")
    problems = [f"config key {key!r} is not read by {args.command}"
                for key in file_values if key not in read]
    values.update({k: v for k, v in file_values.items() if k in read})
    values.update({k: v for k, v in vars(args).items() if k in read and v is not None})
    # a value of the wrong type or a number no float can hold is listed and
    # replaced by its default, so the checks below still run
    out_of_range = set()
    for f in [f for f in fields(RunConfig) if f.name in read]:
        kind, value, check = type(f.default), values[f.name], f.metadata["check"]
        if type(value) not in f.metadata["types"]:
            problems.append(f"{f.name} must be {kind.__name__}, got {value!r}")
            values[f.name] = f.default
        elif kind is float and not abs(value) <= sys.float_info.max:
            problems.append(f"{f.name} must be finite, got {value!r}")
            values[f.name] = f.default
        elif check and not check(value):
            problems.append(f.metadata["problem"])
            out_of_range.add(f.name)

    config = RunConfig(**values)
    config.window = str(config.window)
    if config.window != "adaptive":
        try:
            if not 1 <= int(config.window) <= MAX_WINDOW:
                problems.append(f"window half-width must be an integer in [1, {MAX_WINDOW}]")
        except ValueError:
            problems.append(f"window must be 'adaptive' or an integer, got {config.window!r}")
    # the beam cross-check quotes the values it is given, so it runs only on
    # beam settings that the command reads and that passed their own checks
    if set(_BEAM) <= set(read) - out_of_range:
        try:
            _beam(config)
        except ConfigurationError as exc:
            problems.append(str(exc))
    if getattr(args, "g", None) is not None and not 0 <= 2.0 * args.g < math.inf:
        problems.append("coupling magnitude must be >= 0 with 2|g| finite")
    if getattr(args, "dim", None) is not None:
        if not 3 <= args.dim <= MAX_EIGENPHASES_DIM or args.dim % 2 == 0:
            problems.append(f"{args.command} needs an odd dim in [3, {MAX_EIGENPHASES_DIM}]")
    if problems:
        raise ConfigurationError("invalid configuration:\n  - " + "\n  - ".join(problems))
    return config


def _policy(config: RunConfig) -> TruncationPolicy:
    if config.window == "adaptive":
        return TruncationPolicy.adaptive()
    return TruncationPolicy.fixed(int(config.window))


def _beam(config: RunConfig) -> BeamParameters:
    return derive_beam(config.beam_kev * 1e3, config.wavelength_nm * 1e-9,
                       config.delta_e_ev)


def _read_circuit(path: str):
    return parse_circuit(read_text(path, CircuitParseError), name=os.path.basename(path))


def _outdir(config: RunConfig) -> str:
    os.makedirs(config.out, exist_ok=True)
    return config.out


def _text(text: str):
    """The writer of a file that holds ``text``."""
    return lambda path: write_text(path, text)


def _json(obj):
    """The writer of ``obj`` as an indented JSON file."""
    return _text(json.dumps(obj, indent=2))


def _state_from_inputs(args, config: RunConfig) -> LadderState:
    if getattr(args, "state", None):
        state = LadderState.load(args.state)
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
    circuit = _read_circuit(path)
    policy = _policy(config)
    state = basis_state(0, policy)
    visit("|0>", state)
    for gate, schedule in zip(circuit.gates, compile_circuit(circuit, _beam(config))):
        state = simulate_schedule(schedule, state, policy)
        visit(gate.label(), state)
    return state


def cmd_simulate(args, config: RunConfig) -> tuple[int, dict]:
    rows = []

    def record(label, state):
        rows.append((str(len(rows)), label, project_qubit(state)))

    state = _run_circuit(args.circuit, config, record)
    final = rows[-1][2]
    print(f"simulated {len(rows) - 1} gate(s); "
          f"qubit alpha={final.alpha:.6g} beta={final.beta:.6g}")
    return EXIT_OK, {"state.json": state.dump, "qubit.json": _json(final.to_json()),
                     "bloch.csv": lambda path: _write_bloch_csv(path, rows)}


def _write_bloch_csv(path: str, rows) -> None:
    """One row per visited state; a label with commas (a ``U`` gate) is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["gate_index", "gate", "alpha_re", "alpha_im", "beta_re", "beta_im",
                     "weight", "bloch_valid", "x", "y", "z"])
    for index, label, q in rows:
        valid = q.weight > BLOCH_WEIGHT_FLOOR
        xyz = q.bloch_vector() if valid else (math.nan,) * 3
        numbers = (q.alpha.real, q.alpha.imag, q.beta.real, q.beta.imag, q.weight)
        writer.writerow([index, label, *map(repr, numbers), int(valid), *map(repr, xyz)])
    write_text(path, buf.getvalue())


def cmd_compile(args, config: RunConfig) -> tuple[int, dict]:
    circuit = _read_circuit(args.circuit)
    beam = _beam(config)
    schedules = compile_circuit(circuit, beam)
    for gate, schedule in zip(circuit.gates, schedules):
        print(f"{gate.label()}: {schedule.n_pulses} pulse(s), "
              f"{schedule.n_drifts} drift(s)")
    return EXIT_OK, {"schedule.json": _json({
        "name": circuit.name,
        "beam": beam.to_json(),
        "gates": [{"gate": gate.label(), "schedule": schedule.to_json()}
                  for gate, schedule in zip(circuit.gates, schedules)],
    })}


def cmd_spectrum(args, config: RunConfig) -> tuple[int, dict]:
    spec = eels_spectrum(_state_from_inputs(args, config))
    if config.csv:
        return EXIT_OK, {"spectrum.csv": _text("l,p\n" + "".join(
            f"{l},{float(p)!r}\n" for l, p in zip(spec.indices, spec.probabilities)))}
    return EXIT_OK, {"spectrum.json": _json(spec.to_json())}


def cmd_eigenphases(args, config: RunConfig) -> tuple[int, dict]:
    phases = eigenphases(PinemPulse.single(args.g), args.dim)
    print(f"{phases.size} eigenphases in [{phases.min():.6f}, {phases.max():.6f}]")
    return EXIT_OK, {"eigenphases.csv": _text("".join(f"{float(phi)!r}\n" for phi in phases))}


def cmd_tomography(args, config: RunConfig) -> tuple[int, dict]:
    # narrow the fit window: the simulation already trims its padding, but it
    # keeps edge levels of per-cell probability up to 1e-18 that this cut
    # drops, and the reconstruction cost grows with the data window
    state = _state_from_inputs(args, config).trimmed()
    sg = spectrogram(state, probe_magnitude=config.probe, n_phases=config.phases)
    if config.counts > 0:
        sg = add_shot_noise(sg, config.counts, seed=config.seed)
    result = reconstruct_state(sg, window=_policy(config), n_restarts=config.restarts,
                               seed=config.seed)
    qubit = project_qubit(result.state, edge_margin=0)
    print(f"reconstruction residual {result.residual:.3e} "
          f"({'ok' if result.ok else 'FAILED'}), restarts used {result.restarts}")
    return EXIT_OK if result.ok else EXIT_RECONSTRUCTION, {
        "spectrogram.csv": sg.to_csv, "reconstruction.json": _json(result.to_json()),
        "readout_qubit.json": _json(qubit.to_json())}


_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)
"""What each parser reads as a negative number, not an option name. argparse's
own pattern misses exponent, inf and nan forms: it would take the value of
``--beam-kev -1e-3`` for an option and stop with a usage error before the
configuration checks list the problem."""

_BEAM = ("beam_kev", "wavelength_nm", "delta_e_ev")
"""The beam settings: every command that can run a circuit builds a beam from them."""

_COMMANDS = {
    # name: (function, help, what it reads: a positional circuit, --circuit or
    # --state, or the pulse flags --g and --dim; then the settings it reads, in
    # the order its help lists their flags)
    "simulate": (cmd_simulate, "run a circuit end to end from |0>", "circuit",
                 (*_BEAM, "window", "out")),
    "compile": (cmd_compile, "compile a circuit to pulse/drift schedules", "circuit",
                (*_BEAM, "out")),
    "spectrum": (cmd_spectrum, "energy spectrum of a state or circuit output", "--circuit",
                 (*_BEAM, "window", "out", "csv")),
    "eigenphases": (cmd_eigenphases, "eigenphases of one laser interaction", "--g", ("out",)),
    "tomography": (cmd_tomography, "spectrogram plus state reconstruction", "--circuit",
                   ("probe", "phases", "counts", "restarts", *_BEAM, "window", "seed", "out")),
}

_SIZING = {"dim": "--dim", "phases": "--phases", "probe": "--probe", "window": "a fixed --window"}
"""The flags whose values size a run's arrays, by their ``args`` names, as the
out-of-memory line names them."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fequbit",
        description="Free-electron qubit simulator and pulse-schedule compiler",
        epilog="exit codes:\n" + "".join(
            f"  {code}  {meaning}\n" for code, (meaning, _, _) in _EXITS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {f.name: f.metadata["flag"] for f in fields(RunConfig)}
    for name, (func, text, reads, settings) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        if reads == "circuit":
            p.add_argument("circuit", help="gate DSL file")
        elif reads == "--circuit":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--circuit", help="gate DSL file, simulated from |0>")
            group.add_argument("--state", help="ladder-state JSON file")
        else:
            p.add_argument("--g", type=float, required=True, help="coupling magnitude |g|")
            p.add_argument("--dim", type=int, required=True, help="odd window dimension")
        for setting in settings:
            p.add_argument("--" + setting.replace("_", "-"), dest=setting, default=None,
                           **flags[setting])
        p.add_argument("--config", default=None, help="JSON config file")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
        code, files = args.func(args, config)
        out = _outdir(config)
        for name, write in files.items():
            write(os.path.join(out, name))
        print(f"wrote {', '.join(files)} in {out}")
        return code
    except tuple(e for _, errors, _ in _EXITS.values() for e in errors) as exc:
        code = next(c for c, (_, errors, _) in _EXITS.items() if isinstance(exc, errors))
        print(f"{_EXITS[code][2]}: {exc}", file=sys.stderr)
        return code
    except MemoryError:
        # the flags the command took, as the reader table gave them to its parser
        sizing = ", ".join(flag for name, flag in _SIZING.items() if name in vars(args))
        print("configuration error: out of memory"
              + (f"; reduce the sizing flags ({sizing})" if sizing else ""), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
