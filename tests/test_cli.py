import cmath
import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fequbit import (
    CircuitParseError,
    ConfigurationError,
    LadderState,
    Schedule,
    TruncationError,
    WindowError,
    basis_state,
    cli,
    compile_gate,
)
from fequbit.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RECONSTRUCTION,
    EXIT_TRUNCATION,
    MAX_EIGENPHASES_DIM,
    MAX_RESTARTS,
    RunConfig,
    main,
)
from fequbit.ladder import NORM_TOL
from fequbit.tomography import Spectrogram
from helpers import load_bloch_csv, load_compiled, load_eigenphases_csv, load_spectrum_csv


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circ.txt"
    path.write_text("H\nX\n")
    return str(path)


def out_args(tmp_path, sub="out"):
    return ["--out", str(tmp_path / sub)]


# nested deeper than the json module's recursion limit on every supported Python
NESTED_JSON = "[" * 100_000 + "]" * 100_000


def test_simulate_writes_outputs(tmp_path, circuit_file, capsys):
    code = main(["simulate", circuit_file, *out_args(tmp_path)])
    assert code == EXIT_OK
    out = tmp_path / "out"
    state = LadderState.load(out / "state.json")
    assert abs(state.norm() - 1.0) < 1e-10
    qubit = json.loads((out / "qubit.json").read_text())
    alpha = complex(*qubit["alpha"])
    beta = complex(*qubit["beta"])
    # X H |0>_q: both components 1/sqrt(2) in magnitude
    assert abs(alpha) == pytest.approx(2**-0.5, abs=1e-9)
    assert abs(beta) == pytest.approx(2**-0.5, abs=1e-9)
    rows = load_bloch_csv(out / "bloch.csv")
    assert len(rows) == 3  # initial point plus one per gate
    assert rows[0]["gate"] == "|0>"
    assert float(rows[0]["z"]) == pytest.approx(1.0)
    assert rows[1]["bloch_valid"] == "1"
    assert float(rows[1]["x"]) == pytest.approx(1.0, abs=1e-9)


def test_simulate_empty_circuit_is_parse_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["simulate", str(empty), *out_args(tmp_path)]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_simulate_missing_file_is_io_error(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.txt")]) == EXIT_IO


def test_simulate_bad_gate_is_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("H\nWAT\n")
    assert main(["simulate", str(bad), *out_args(tmp_path)]) == EXIT_PARSE


@pytest.mark.parametrize("line, message", [
    ("RX()", "missing angle"),
    ("U [[1,0],[0]]", "malformed matrix, expected"),
    ("U [[a,0],[0,1]]", "malformed matrix entry"),
])
def test_malformed_gate_line_is_parse_error_naming_its_line(tmp_path, capsys, line, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"H\n{line}\n")
    assert main(["simulate", str(bad), *out_args(tmp_path)]) == EXIT_PARSE
    assert f"line 2: {message}" in capsys.readouterr().err


def test_simulate_invalid_config_aggregates(tmp_path, circuit_file, capsys):
    code = main(["simulate", circuit_file, "--beam-kev", "-2",
                 "--wavelength-nm", "0", *out_args(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "beam energy" in err
    assert "wavelength" in err


@pytest.mark.parametrize("flags", [["--beam-kev", "nan"], ["--wavelength-nm", "nan"],
                                   ["--delta-e-ev", "nan"]])
def test_simulate_non_finite_flag_is_config_error(tmp_path, circuit_file, flags):
    assert main(["simulate", circuit_file, *flags, *out_args(tmp_path)]) == EXIT_CONFIG


def test_config_number_beyond_float_range_is_config_error(tmp_path, circuit_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"beam_kev": 1' + "0" * 400 + "}")
    code = main(["simulate", circuit_file, "--config", str(cfg), *out_args(tmp_path)])
    assert code == EXIT_CONFIG
    assert "beam_kev must be finite" in capsys.readouterr().err


def test_simulate_truncation_error_on_tiny_fixed_window(tmp_path, circuit_file):
    code = main(["simulate", circuit_file, "--window", "5", *out_args(tmp_path)])
    assert code == EXIT_TRUNCATION


def test_config_file_and_flag_precedence(tmp_path, circuit_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beam_kev": 80.0, "wavelength_nm": 500.0}))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["compile", circuit_file, "--config", str(cfg),
                 "--out", str(out1)]) == EXIT_OK
    assert main(["compile", circuit_file, "--config", str(cfg),
                 "--beam-kev", "200", "--wavelength-nm", "800",
                 "--out", str(out2)]) == EXIT_OK
    z80 = json.loads((out1 / "schedule.json").read_text())["beam"]["z_d"]
    z200 = json.loads((out2 / "schedule.json").read_text())["beam"]["z_d"]
    assert z80 == pytest.approx(0.0064341312, rel=1e-6)  # config file won
    assert z200 == pytest.approx(0.07602815124982064, rel=1e-9)  # flag overrode


def test_unknown_config_key_rejected(tmp_path, circuit_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beam_kiloelectronvolt": 80.0}))
    assert main(["compile", circuit_file, "--config", str(cfg),
                 *out_args(tmp_path)]) == EXIT_CONFIG


def test_invalid_config_json_rejected(tmp_path, circuit_file):
    cfg = tmp_path / "cfg.json"
    for content in ("{not json", NESTED_JSON):
        cfg.write_text(content)
        assert main(["compile", circuit_file, "--config", str(cfg),
                     *out_args(tmp_path)]) == EXIT_CONFIG


def test_config_value_of_wrong_type_is_listed(tmp_path, circuit_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beam_kev": "abc", "wavelength_nm": 0}))
    assert main(["compile", circuit_file, "--config", str(cfg),
                 *out_args(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "beam_kev" in err
    assert "wavelength" in err


@pytest.mark.parametrize("content", [
    "{not json",
    json.dumps({"amplitudes": [[1.0, 0.0]]}),  # no l_min
    json.dumps({"l_min": 0, "amplitudes": [[2.0, 0.0]]}),  # norm^2 = 4
    json.dumps({"l_min": 1e30, "amplitudes": [[1.0, 0.0]]}),
    json.dumps({"l_min": 10 ** 20, "amplitudes": [[1.0, 0.0]]}),
    json.dumps({"l_min": 1.5, "amplitudes": [[1.0, 0.0]]}),
    pytest.param(NESTED_JSON, id="nested-100000-deep"),
])
def test_bad_state_file_is_config_error(tmp_path, content):
    state_path = tmp_path / "state.json"
    state_path.write_text(content)
    for command in ("spectrum", "tomography"):
        assert main([command, "--state", str(state_path),
                     *out_args(tmp_path)]) == EXIT_CONFIG


def test_compile_outputs_schedule_json(tmp_path):
    circ = tmp_path / "zs.txt"
    circ.write_text("Z\nS\nH\n")
    assert main(["compile", str(circ), *out_args(tmp_path)]) == EXIT_OK
    entries = load_compiled(tmp_path / "out" / "schedule.json")
    assert [label for label, _ in entries] == ["Z", "S", "H"]
    z_schedule = entries[0][1]
    assert isinstance(z_schedule, Schedule)
    assert z_schedule.n_pulses == 0
    assert z_schedule.n_drifts == 1
    assert z_schedule.elements[0].quarter_units == 2
    s_schedule = entries[1][1]
    assert s_schedule.elements[0].quarter_units == 1
    h_schedule = entries[2][1]
    assert h_schedule.n_pulses <= 3
    assert h_schedule.n_drifts <= 2


def test_spectrum_json_and_csv(tmp_path, circuit_file):
    assert main(["spectrum", "--circuit", circuit_file, *out_args(tmp_path, "j")]) == EXIT_OK
    doc = json.loads((tmp_path / "j" / "spectrum.json").read_text())
    assert abs(sum(doc["probabilities"]) - 1.0) < 1e-9
    assert main(["spectrum", "--circuit", circuit_file, "--csv",
                 *out_args(tmp_path, "c")]) == EXIT_OK
    spec = load_spectrum_csv(tmp_path / "c" / "spectrum.csv")
    assert abs(spec.probabilities.sum() - 1.0) < 1e-9


def test_spectrum_from_state_file(tmp_path):
    state_path = tmp_path / "state.json"
    basis_state(3, 8).dump(state_path)
    assert main(["spectrum", "--state", str(state_path), *out_args(tmp_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    probs = np.asarray(doc["probabilities"])
    assert probs[3 - doc["l_min"]] == 1.0


def test_eigenphases_csv(tmp_path):
    assert main(["eigenphases", "--g", "0.25", "--dim", "201",
                 *out_args(tmp_path)]) == EXIT_OK
    phases = load_eigenphases_csv(tmp_path / "out" / "eigenphases.csv")
    assert phases.size == 201
    assert np.max(np.abs(phases)) <= 0.5 + 0.02


def test_eigenphases_validation(tmp_path):
    assert main(["eigenphases", "--g", "0.25", "--dim", "200",
                 *out_args(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("g", ["nan", "inf", "1e308"])
def test_eigenphases_non_finite_coupling_is_config_error(tmp_path, g):
    assert main(["eigenphases", "--g", g, "--dim", "21", *out_args(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("error, code, line", [
    (CircuitParseError("bad gate", line=3), EXIT_PARSE, "parse error: line 3: bad gate"),
    (ConfigurationError("bad value"), EXIT_CONFIG, "configuration error: bad value"),
    (TruncationError("edge weight"), EXIT_TRUNCATION, "truncation error: edge weight"),
    (WindowError("off the window"), EXIT_TRUNCATION, "truncation error: off the window"),
    (OSError("disk full"), EXIT_IO, "i/o error: disk full"),
    (MemoryError(), EXIT_CONFIG, "configuration error: out of memory; reduce the sizing "
                                 "flags (--dim)"),
], ids=["CircuitParseError", "ConfigurationError", "TruncationError", "WindowError",
        "OSError", "MemoryError"])
def test_each_error_class_ends_with_its_code_and_stderr_line(tmp_path, monkeypatch, capsys,
                                                             error, code, line):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("fequbit.cli.eigenphases", fail)
    assert main(["eigenphases", "--g", "0.25", "--dim", "21", *out_args(tmp_path)]) == code
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("command, sizing", [
    ("simulate", "a fixed --window"), ("compile", None), ("spectrum", "a fixed --window"),
    ("eigenphases", "--dim"), ("tomography", "--phases, --probe, a fixed --window")])
def test_out_of_memory_names_the_sizing_flags_the_command_takes(
        tmp_path, circuit_file, monkeypatch, capsys, command, sizing):
    def fail(config):
        raise MemoryError

    monkeypatch.setattr("fequbit.cli._outdir", fail)
    argv = [command, *(a.format(circuit=circuit_file) for a in READERS[command][1])]
    assert main([*argv, *out_args(tmp_path)]) == EXIT_CONFIG
    hint = f"; reduce the sizing flags ({sizing})" if sizing else ""
    assert capsys.readouterr().err == f"configuration error: out of memory{hint}\n"


@pytest.mark.parametrize("flags", [["--counts", "nan"], ["--counts", "inf"],
                                   ["--counts", "1e20"], ["--probe", "nan"],
                                   ["--probe", "1e300"], ["--probe", "1000"],
                                   ["--phases", "1025"], ["--window", "8388609"]])
def test_tomography_bad_number_is_config_error(tmp_path, circuit_file, flags):
    code = main(["tomography", "--circuit", circuit_file, *flags, *out_args(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("restarts", [MAX_RESTARTS + 1, 10 ** 9])
def test_restarts_beyond_its_cap_is_config_error(tmp_path, circuit_file, monkeypatch,
                                                 restarts):
    monkeypatch.setattr("fequbit.cli.reconstruct_state", _allocates)
    code = main(["tomography", "--circuit", circuit_file, "--restarts", str(restarts),
                 *out_args(tmp_path)])
    assert code == EXIT_CONFIG


def test_tomography_deterministic_under_seed(tmp_path):
    circ = tmp_path / "x.txt"
    circ.write_text("X\n")
    base = ["tomography", "--circuit", str(circ), "--counts", "1e5",
            "--restarts", "3", "--seed", "7"]
    assert main([*base, "--out", str(tmp_path / "r1")]) == EXIT_OK
    assert main([*base, "--out", str(tmp_path / "r2")]) == EXIT_OK
    sg1 = (tmp_path / "r1" / "spectrogram.csv").read_text()
    sg2 = (tmp_path / "r2" / "spectrogram.csv").read_text()
    assert sg1 == sg2
    rec1 = (tmp_path / "r1" / "reconstruction.json").read_text()
    rec2 = (tmp_path / "r2" / "reconstruction.json").read_text()
    assert rec1 == rec2
    again = Spectrogram.from_csv(tmp_path / "r1" / "spectrogram.csv")
    assert again.n_phases == 32


def test_tomography_noiseless_readout(tmp_path):
    state_path = tmp_path / "state.json"
    basis_state(0, 6).dump(state_path)
    assert main(["tomography", "--state", str(state_path),
                 *out_args(tmp_path)]) == EXIT_OK
    qubit = json.loads((tmp_path / "out" / "readout_qubit.json").read_text())
    assert abs(complex(*qubit["alpha"])) == pytest.approx(1.0, abs=1e-6)


def test_tomography_failure_exit_code(tmp_path):
    state_path = tmp_path / "state.json"
    basis_state(0, 6).dump(state_path)
    code = main(["tomography", "--state", str(state_path), "--counts", "150",
                 "--restarts", "2", *out_args(tmp_path)])
    assert code == EXIT_RECONSTRUCTION
    report = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert report["ok"] is False


def test_tomography_fit_window_missing_the_data_is_truncation_error(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    LadderState(100, np.array([0.6, 0.8j])).dump(state_path)
    code = main(["tomography", "--state", str(state_path), "--window", "5",
                 *out_args(tmp_path)])
    assert code == EXIT_TRUNCATION
    assert "does not overlap" in capsys.readouterr().err


def _allocates(*args, **kwargs):
    raise AssertionError("an oversized flag reached an allocating call")


@pytest.mark.parametrize("argv", [
    # 4098 is even and rejected as such; 4099 is the first odd dim beyond the cap
    ["eigenphases", "--g", "0.25", "--dim", str(MAX_EIGENPHASES_DIM + 2)],
])
def test_dim_beyond_its_cap_is_config_error(tmp_path, monkeypatch, argv):
    for name in ("eigenphases", "basis_state"):
        monkeypatch.setattr(f"fequbit.cli.{name}", _allocates)
    assert main([*argv, *out_args(tmp_path)]) == EXIT_CONFIG


def test_even_eigenphases_dim_is_config_error(tmp_path, monkeypatch):
    # an even dim has no symmetric window [-half, half]: nothing is built or written
    for name in ("eigenphases", "basis_state"):
        monkeypatch.setattr(f"fequbit.cli.{name}", _allocates)
    assert main(["eigenphases", "--g", "2.0", "--dim", "50",
                 *out_args(tmp_path)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_flag_problems_are_reported_together(capsys):
    code = main(["eigenphases", "--g", "nan", "--dim", "4", "--out", ""])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    for problem in ("coupling magnitude", "odd dim", "out must be a non-empty path"):
        assert problem in err


def test_bloch_csv_flags_degenerate_rows(tmp_path):
    from fequbit import QubitState
    from fequbit.cli import _write_bloch_csv

    path = tmp_path / "bloch.csv"
    _write_bloch_csv(path, [("0", "|0>", QubitState(1.0, 0.0)),
                            ("1", "weird", QubitState(0.0, 0.0))])
    rows = load_bloch_csv(path)
    assert rows[0]["bloch_valid"] == "1"
    assert rows[1]["bloch_valid"] == "0"
    assert rows[1]["x"] == "nan"


def test_non_utf8_circuit_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.dsl"
    bad.write_bytes(b"H\n\xff\xfe\n")
    assert main(["simulate", str(bad), *out_args(tmp_path)]) == EXIT_PARSE
    assert "not UTF-8" in capsys.readouterr().err


def test_non_utf8_config_is_config_error(tmp_path, circuit_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": 1\xff}')
    assert main(["compile", circuit_file, "--config", str(cfg),
                 *out_args(tmp_path)]) == EXIT_CONFIG
    assert "not UTF-8" in capsys.readouterr().err


def test_bloch_csv_quotes_a_u_gate_label(tmp_path):
    # the label "U [[0j,(1+0j)],[(1+0j),0j]]" holds commas
    circ = tmp_path / "u.txt"
    circ.write_text("U [[0,1],[1,0]]\nH\n")
    assert main(["simulate", str(circ), *out_args(tmp_path)]) == EXIT_OK
    out = tmp_path / "out"
    rows = load_bloch_csv(out / "bloch.csv")  # raises on a row of another width
    assert [row["gate"] for row in rows] == ["|0>", "U [[0j,(1+0j)],[(1+0j),0j]]", "H"]
    assert abs(rows[1]["qubit"].alpha) < 1e-9
    assert abs(rows[1]["qubit"].beta) == pytest.approx(1.0, abs=1e-9)
    assert rows[2]["qubit"].beta == pytest.approx(-rows[2]["qubit"].alpha, abs=1e-9)
    qubit = json.loads((out / "qubit.json").read_text())
    assert rows[2]["qubit"].alpha == complex(*qubit["alpha"])
    assert rows[2]["qubit"].beta == complex(*qubit["beta"])


@pytest.mark.parametrize("argv", [
    ["simulate", "{circuit}"],
    ["tomography", "--circuit", "{circuit}", "--counts", "1e5", "--seed", "3"],
])
def test_rerun_into_the_same_out_gives_the_same_bytes(tmp_path, circuit_file, argv):
    argv = [a.format(circuit=circuit_file) for a in argv]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_output_path_that_is_a_directory_is_io_error(tmp_path, circuit_file, capsys):
    (tmp_path / "out" / "state.json").mkdir(parents=True)
    assert main(["simulate", circuit_file, *out_args(tmp_path)]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


# JSON numbers the reader must survive: nan, inf, bools and ints no float holds
_FUZZ_NUMBERS = (st.floats() | st.booleans() | st.integers()
                 | st.sampled_from([2 ** 62, -2 ** 63, 10 ** 400]))
_FUZZ_SCALARS = st.none() | st.text(max_size=3) | _FUZZ_NUMBERS
_FUZZ_KEYS = st.sampled_from(["l_min", "amplitudes", "x"])


def _fuzz_json(depth: int):
    """JSON values nested at most ``depth`` deep, lists at most 8 long."""
    if depth == 0:
        return _FUZZ_SCALARS
    inner = _fuzz_json(depth - 1)
    return (_FUZZ_SCALARS | st.lists(inner, max_size=8)
            | st.dictionaries(_FUZZ_KEYS, inner, max_size=3))


# near-misses of the state format, whose amplitude count is at most 8 (unit
# norm ones too, so that some files are read), and any other document up to 4
# deep; no fuzzed value sizes an array
_FUZZ_STATES = st.fixed_dictionaries({
    "l_min": st.integers(-8, 8) | _FUZZ_NUMBERS,
    "amplitudes": st.sampled_from([[[1.0, 0.0]], [[0.6, 0.0], [0.0, -0.8]], [[True, False]]])
    | st.lists(st.tuples(_FUZZ_NUMBERS, _FUZZ_NUMBERS)
               | st.lists(_FUZZ_NUMBERS, max_size=3), max_size=8)})


@given(doc=_FUZZ_STATES | _fuzz_json(4))
def test_fuzzed_state_file_is_read_or_rejected(tmp_path_factory, doc):
    out = tmp_path_factory.mktemp("fuzz")
    (out / "state.json").write_text(json.dumps(doc))
    assert main(["spectrum", "--state", str(out / "state.json"),
                 "--out", str(out)]) in (EXIT_OK, EXIT_CONFIG)


def test_bool_amplitudes_in_a_state_file_are_config_error(tmp_path):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"l_min": 0, "amplitudes": [[True, False]]}))
    for command in ("spectrum", "tomography"):
        assert main([command, "--state", str(state_path),
                     *out_args(tmp_path)]) == EXIT_CONFIG


def _is_unit_state_document(doc) -> bool:
    """The state format, checked on the decoded JSON itself: an integer l_min
    within +-2**62, a non-empty list of [re, im] pairs of finite numbers that
    are not bools, and norm 1 within NORM_TOL."""
    if not (isinstance(doc, dict) and "l_min" in doc and "amplitudes" in doc):
        return False
    l_min, pairs = doc["l_min"], doc["amplitudes"]
    if type(l_min) is not int or abs(l_min) > 2 ** 62 or not isinstance(pairs, list):
        return False
    if not pairs or not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        return False
    numbers = [x for pair in pairs for x in pair]
    if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in numbers):
        return False
    return abs(math.hypot(*numbers) - 1.0) <= NORM_TOL


# unit states, and the same states with a bool, a nan or an int no float
# holds in place of one number
_NEAR_UNIT_STATES = st.fixed_dictionaries({
    "l_min": st.integers(-8, 8) | st.sampled_from([True, 1.5, 2 ** 63]),
    "amplitudes": st.sampled_from([
        [[1, 0]], [[0.0, -1.0]], [[0.6, 0.0], [0.0, -0.8]],
        [[True, False]], [[1, False]], [[0.6, 0.0], [math.nan, -0.8]], [[10 ** 400, 0]]])})


@given(doc=_NEAR_UNIT_STATES | _FUZZ_STATES)
def test_fuzzed_state_file_is_read_exactly_when_it_is_a_unit_state(tmp_path_factory, doc):
    out = tmp_path_factory.mktemp("fuzz")
    text = json.dumps(doc)
    (out / "state.json").write_text(text)
    code = main(["spectrum", "--state", str(out / "state.json"), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG)
    assert (code == EXIT_OK) == _is_unit_state_document(json.loads(text))


@pytest.mark.parametrize("flags", [["--beam-kev", "1e300"], ["--wavelength-nm", "1e300"],
                                   ["--beam-kev", "1e-300"]],
                         ids=["gamma-overflows", "z_d-overflows", "z_d-is-zero"])
def test_beam_without_a_positive_float_dispersion_length_is_config_error(
        tmp_path, circuit_file, capsys, flags):
    assert main(["compile", circuit_file, *flags, *out_args(tmp_path)]) == EXIT_CONFIG
    assert "z_D" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_out_holding_a_nul_is_config_error(tmp_path, circuit_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "a\0b")}))
    assert main(["compile", circuit_file, "--config", str(cfg)]) == EXIT_CONFIG
    assert "NUL" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_out_is_config_error_before_any_run(tmp_path, monkeypatch, capsys, source):
    # an empty path used to fail only at the first write, after the whole run
    work = tmp_path / "work"
    work.mkdir()
    (work / "h.txt").write_text("H\n")
    (work / "cfg.json").write_text(json.dumps({"out": "", "beam_kev": -1}))
    monkeypatch.chdir(work)
    monkeypatch.setattr("fequbit.cli.simulate_schedule", _allocates)
    argv = (["--out", "", "--beam-kev", "-1"] if source == "flag"
            else ["--config", "cfg.json"])
    assert main(["simulate", "h.txt", *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "NUL" in err and "beam energy must be > 0 keV" in err
    assert sorted(p.name for p in work.iterdir()) == ["cfg.json", "h.txt"]


def test_number_no_int_holds_is_config_error(tmp_path, circuit_file):
    # json reads at most 4300 digits into an int; without that limit the
    # value itself is out of range
    digits = "1" * 5000
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"beam_kev": ' + digits + "}")
    assert main(["compile", circuit_file, "--config", str(cfg),
                 *out_args(tmp_path)]) == EXIT_CONFIG
    state_path = tmp_path / "state.json"
    state_path.write_text('{"l_min": ' + digits + ', "amplitudes": [[1.0, 0.0]]}')
    assert main(["spectrum", "--state", str(state_path), *out_args(tmp_path)]) == EXIT_CONFIG


def test_fit_beyond_its_cell_cap_is_config_error(tmp_path, circuit_file, monkeypatch, capsys):
    # the cap is checked before the fit builds its first array
    monkeypatch.setattr("fequbit.tomography.MAX_FIT_CELLS", 1000)
    monkeypatch.setattr("fequbit.tomography._probe_matrix", _allocates)
    assert main(["tomography", "--circuit", circuit_file, *out_args(tmp_path)]) == EXIT_CONFIG
    assert "cells" in capsys.readouterr().err


def test_fit_beyond_its_cell_cap_writes_no_spectrogram(tmp_path, circuit_file, monkeypatch):
    monkeypatch.setattr("fequbit.tomography.MAX_FIT_CELLS", 1000)
    assert main(["tomography", "--circuit", circuit_file, *out_args(tmp_path)]) == EXIT_CONFIG
    assert not (tmp_path / "out" / "spectrogram.csv").exists()


def test_failed_fit_writes_all_three_outputs(tmp_path):
    state_path = tmp_path / "state.json"
    basis_state(0, 6).dump(state_path)
    code = main(["tomography", "--state", str(state_path), "--counts", "150",
                 "--restarts", "2", *out_args(tmp_path)])
    assert code == EXIT_RECONSTRUCTION
    written = {p.name for p in (tmp_path / "out").iterdir()}
    assert written == {"spectrogram.csv", "reconstruction.json", "readout_qubit.json"}


@pytest.mark.parametrize("argv, code, max_fit_cells", [
    (["tomography", "--state", "{state}", "--window", "5"], EXIT_TRUNCATION, None),
    (["tomography", "--circuit", "{hth}"], EXIT_CONFIG, 1000),
    (["simulate", "{hth}", "--window", "3"], EXIT_TRUNCATION, None),
], ids=["fit-window-off-the-data", "fit-beyond-its-cell-cap", "simulate-on-a-tiny-window"])
def test_a_run_that_fails_creates_no_out(tmp_path, monkeypatch, capsys, argv, code,
                                         max_fit_cells):
    # a command returns its files and only then is --out made, so a fit that
    # raises leaves no empty directory behind
    hth = tmp_path / "hth.txt"
    hth.write_text("H\nT\nH\n")
    state_path = tmp_path / "state.json"
    LadderState(100, np.array([0.6, 0.8j])).dump(state_path)
    if max_fit_cells:
        monkeypatch.setattr("fequbit.tomography.MAX_FIT_CELLS", max_fit_cells)
    argv = [a.format(hth=hth, state=state_path) for a in argv]
    assert main([*argv, *out_args(tmp_path)]) == code
    assert capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, code", [
    (["simulate", "{circuit}"], EXIT_OK),
    (["compile", "{circuit}"], EXIT_OK),
    (["spectrum", "--circuit", "{circuit}"], EXIT_OK),
    (["spectrum", "--circuit", "{circuit}", "--csv"], EXIT_OK),
    (["eigenphases", "--g", "2", "--dim", "9"], EXIT_OK),
    (["tomography", "--circuit", "{circuit}"], EXIT_OK),
    (["tomography", "--state", "{state}", "--counts", "150", "--restarts", "2"],
     EXIT_RECONSTRUCTION),
], ids=["simulate", "compile", "spectrum", "spectrum-csv", "eigenphases", "tomography",
        "tomography-failed-fit"])
def test_the_wrote_line_names_exactly_the_files_in_out(tmp_path, circuit_file, capsys,
                                                       argv, code):
    state_path = tmp_path / "state.json"
    basis_state(0, 6).dump(state_path)
    out = tmp_path / "out"
    argv = [a.format(circuit=circuit_file, state=state_path) for a in argv]
    assert main([*argv, "--out", str(out)]) == code
    last = capsys.readouterr().out.splitlines()[-1]
    names = re.fullmatch(r"wrote (.+) in (.+)", last)
    assert names and names[2] == str(out)
    assert sorted(names[1].split(", ")) == sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("counts", ["0.01", "1"])
def test_spectrogram_column_with_no_counts_is_config_error(tmp_path, counts, capsys):
    # at 0.01 counts no column counts an electron; the fit used to match the
    # empty image with the zero state and exit 0
    circ = tmp_path / "h.txt"
    circ.write_text("H\n")
    code = main(["tomography", "--circuit", str(circ), "--counts", counts,
                 *out_args(tmp_path)])
    assert code == EXIT_CONFIG
    assert "counts per column" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, problem", [("--beam-kev", "beam"), ("--probe", "probe"),
                                           ("--counts", "counts")])
@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1", "-inf", "-nan"])
def test_negative_float_in_any_form_is_config_error(tmp_path, circuit_file, capsys, flag,
                                                    problem, value):
    # exponent, inf and nan forms reach the checks as numbers, not option names
    code = main(["tomography", "--circuit", circuit_file, flag, value, *out_args(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid configuration" in err and problem in err


def test_help_lists_every_exit_code(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == EXIT_OK
    table = capsys.readouterr().out.split("exit codes:\n")[1]
    listed = {int(line.split()[0]) for line in table.splitlines() if line.strip()}
    assert listed == {value for name, value in vars(cli).items() if name.startswith("EXIT_")}


HELP_COMMANDS = ["", *cli._COMMANDS]


def _expected_help() -> dict:
    """``cli_help.txt``: each ``$ fequbit ... --help`` line, then that command's
    help at 80 columns."""
    parts = re.split(r"^\$ (.*)\n", (Path(__file__).parent / "cli_help.txt").read_text(),
                     flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_text_is_unchanged(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([*command.split(), "--help"])
    assert stop.value.code == EXIT_OK
    line = " ".join(["fequbit", *command.split(), "--help"])
    assert capsys.readouterr().out == _expected_help()[line]


# per setting: a valid value for the config file, other than the default, and
# a flag whose value overrides it
SETTING_SOURCES = [
    ("beam_kev", 80.0, ["--beam-kev", "100"], 100.0),
    ("wavelength_nm", 500.0, ["--wavelength-nm", "600"], 600.0),
    ("delta_e_ev", 0.5, ["--delta-e-ev", "0.25"], 0.25),
    ("window", 40, ["--window", "50"], "50"),
    ("seed", 5, ["--seed", "7"], 7),
    ("out", "from-file", ["--out", "from-flag"], "from-flag"),
    ("csv", True, ["--csv"], True),
    ("probe", 2.5, ["--probe", "3"], 3.0),
    ("phases", 16, ["--phases", "24"], 24),
    ("counts", 1e5, ["--counts", "1e4"], 1e4),
    ("restarts", 4, ["--restarts", "8"], 8),
]


def test_setting_sources_cover_every_setting():
    assert [case[0] for case in SETTING_SOURCES] == [f.name for f in fields(RunConfig)]


def _config_for(argv) -> RunConfig:
    return cli.build_config(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("name, in_file, flag, from_flag", SETTING_SOURCES,
                         ids=[case[0] for case in SETTING_SOURCES])
def test_each_setting_is_read_from_the_config_file_and_a_flag_overrides_it(
        tmp_path, name, in_file, flag, from_flag):
    default = {f.name: f.default for f in fields(RunConfig)}[name]
    assert in_file != default and from_flag != default
    cfg = tmp_path / "cfg.json"
    # tomography reads every setting but csv, which spectrum alone reads
    command = "spectrum" if name == "csv" else "tomography"
    argv = [command, "--circuit", "h.txt", "--config", str(cfg)]
    cfg.write_text(json.dumps({name: in_file}))
    # read as the default's type: a window's int is kept as its string
    assert getattr(_config_for(argv), name) == type(default)(in_file)
    # a flag wins over the file, whether the file holds the default or not
    for file_value in (in_file, default):
        cfg.write_text(json.dumps({name: file_value}))
        assert getattr(_config_for([*argv, *flag]), name) == from_flag
    assert getattr(_config_for(argv[:3]), name) == default


_BEAM = ("beam_kev", "wavelength_nm", "delta_e_ev")
# the settings each command reads, and its other inputs; a command refuses the
# flag (argparse's exit 2) and the config-file key (exit 3) of any other setting
READERS = {
    "simulate": ({*_BEAM, "window", "out"}, ["{circuit}"]),
    "compile": ({*_BEAM, "out"}, ["{circuit}"]),
    "spectrum": ({*_BEAM, "window", "out", "csv"}, ["--circuit", "{circuit}"]),
    "eigenphases": ({"out"}, ["--g", "2", "--dim", "9"]),
    "tomography": ({*_BEAM, "window", "out", "seed", "probe", "phases", "counts", "restarts"},
                   ["--circuit", "{circuit}"]),
}


@pytest.mark.parametrize("name, in_file, flag, from_flag", SETTING_SOURCES,
                         ids=[case[0] for case in SETTING_SOURCES])
@pytest.mark.parametrize("command", READERS)
def test_each_command_takes_the_settings_it_reads_and_no_other(
        tmp_path, circuit_file, capsys, command, name, in_file, flag, from_flag):
    reads, inputs = READERS[command]
    argv = [command, *(a.format(circuit=circuit_file) for a in inputs)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: in_file}))
    if name in reads:
        default = {f.name: f.default for f in fields(RunConfig)}[name]
        assert getattr(_config_for([*argv, "--config", str(cfg)]), name) == type(default)(in_file)
        assert getattr(_config_for([*argv, *flag]), name) == from_flag
        return
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        main([*argv, *flag, "--out", str(out)])
    assert stop.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert name in err and command in err
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _assert_documented_exit(argv, out) -> None:
    """``main`` returns a documented exit code, and a compile it lets pass
    wrote JSON with no Infinity or NaN."""
    code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_CONFIG, EXIT_TRUNCATION, EXIT_RECONSTRUCTION,
                    EXIT_IO)
    if code == EXIT_OK:
        json.loads((out / "schedule.json").read_text(), parse_constant=_reject_constant)


# beam numbers at the ends of the float range, where the kinematics overflow
# or vanish, and an output directory that may be empty or hold a NUL; flags
# are passed as --flag=value, so a leading '-' stays a value
_FUZZ_FLOATS = st.floats() | st.sampled_from([1e300, 1e-300, 1e-3, 1e3])
_FUZZ_FLAGS = st.fixed_dictionaries({}, optional={
    "--beam-kev": _FUZZ_FLOATS, "--wavelength-nm": _FUZZ_FLOATS,
    "--delta-e-ev": _FUZZ_FLOATS})


@given(flags=_FUZZ_FLAGS, out=st.text(alphabet="ab\0", max_size=3))
def test_fuzzed_flags_end_in_a_documented_exit_code(tmp_path_factory, flags, out):
    # an empty out name leaves --out the run's own directory with a trailing
    # slash, a valid path
    work = tmp_path_factory.mktemp("fuzz")
    (work / "h.txt").write_text("H\n")
    _assert_documented_exit(
        ["compile", str(work / "h.txt"), f"--out={work}/{out}",
         *(f"{flag}={value}" for flag, value in flags.items())], work / out)


# up to three config keys with fuzzed values (no key sizes an array, as
# `compile` builds no state), or a document of another shape
_FUZZ_CONFIG = st.dictionaries(
    st.sampled_from([f.name for f in fields(RunConfig)] + ["x"]),
    _FUZZ_SCALARS | _FUZZ_FLOATS, max_size=3)


@given(config=st.none() | _FUZZ_CONFIG | _fuzz_json(2),
       out=st.text(alphabet="ab\0", min_size=1, max_size=3))
def test_fuzzed_config_file_ends_in_a_documented_exit_code(tmp_path_factory, config, out):
    # a config object's "out" becomes a path under the run's own directory
    work = tmp_path_factory.mktemp("fuzz")
    (work / "h.txt").write_text("H\n")
    if config is None or isinstance(config, dict):
        config = {**(config or {}), "out": f"{work}/{out}"}
    (work / "cfg.json").write_text(json.dumps(config))
    _assert_documented_exit(
        ["compile", str(work / "h.txt"), "--config", str(work / "cfg.json")],
        work / out)


@given(config=_FUZZ_CONFIG)
def test_fuzzed_tomography_config_is_taken_or_listed(tmp_path_factory, config):
    # compile reads the beam and out alone; tomography checks every other
    # setting's config-file value, so the same keys are merged and checked here
    cfg = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    cfg.write_text(json.dumps(config))
    try:
        _config_for(["tomography", "--circuit", "h.txt", "--config", str(cfg)])
    except ConfigurationError:
        pass


def test_compile_file_is_unchanged_by_the_pulse_kernels(tmp_path, monkeypatch):
    circ = tmp_path / "circ.txt"
    circ.write_text("H\nRX(0.3)\nT\nRY(-1.2)\nU [[0,1],[1j,0]]\n")
    assert main(["compile", str(circ), *out_args(tmp_path, "batched")]) == EXIT_OK
    monkeypatch.setattr(cli, "compile_circuit",
                        lambda circuit, beam: [compile_gate(g, beam) for g in circuit.gates])
    assert main(["compile", str(circ), *out_args(tmp_path, "plain")]) == EXIT_OK
    batched = (tmp_path / "batched" / "schedule.json").read_bytes()
    assert batched == (tmp_path / "plain" / "schedule.json").read_bytes()


def _qubit_file(path) -> tuple[complex, complex]:
    q = json.loads(path.read_text())
    return complex(*q["alpha"]), complex(*q["beta"])


@pytest.mark.parametrize("flags, floor", [
    ([], 1 - 1e-9),
    (["--counts", "1e5", "--seed", "3"], 0.999),
    (["--probe", "20", "--counts", "1e5", "--seed", "3"], 0.999),
], ids=["noiseless", "counts-1e5", "probe-20"])
def test_hth_readout_qubit_matches_the_simulated_one(tmp_path, flags, floor):
    # up to global phase and weight
    circ = tmp_path / "hth.txt"
    circ.write_text("H\nT\nH\n")
    assert main(["simulate", str(circ), *out_args(tmp_path, "simulate")]) == EXIT_OK
    assert main(["tomography", "--circuit", str(circ), *flags,
                 *out_args(tmp_path, "tomography")]) == EXIT_OK
    a, b = _qubit_file(tmp_path / "simulate" / "qubit.json")
    x, y = _qubit_file(tmp_path / "tomography" / "readout_qubit.json")
    fidelity = (abs(a.conjugate() * x + b.conjugate() * y) ** 2
                / ((abs(a) ** 2 + abs(b) ** 2) * (abs(x) ** 2 + abs(y) ** 2)))
    assert fidelity >= floor


def _rx(t: float) -> np.ndarray:
    return np.array([[math.cos(t), 1j * math.sin(t)], [1j * math.sin(t), math.cos(t)]])


def test_compiled_large_angle_schedules_times_their_phase_are_their_gates(tmp_path):
    # angles far past 2 pi, read back from schedule.json
    circ = tmp_path / "large-angles.txt"
    circ.write_text("RZ(1e300)\nRZ(0.5pi)\nRX(1e300)\n")
    assert main(["compile", str(circ), *out_args(tmp_path)]) == EXIT_OK
    targets = [np.diag([1, cmath.exp(1e300j)]), np.diag([1, 1j]), _rx(1e300)]
    doc = json.loads((tmp_path / "out" / "schedule.json").read_text())
    for entry, target in zip(doc["gates"], targets, strict=True):
        realized = np.eye(2)
        for el in entry["schedule"]["elements"]:
            step = (_rx(-2 * el["pulse"]["g"][1]) if "pulse" in el
                    else np.diag([1, 1j ** el["drift"]["quarter_units"]]))
            realized = step @ realized
        err = np.abs(complex(*entry["schedule"]["global_phase"]) * realized - target).max()
        assert err < 1e-12, (entry["gate"], err)


def test_3000_rx_gates_end_in_rx_of_their_angle_sum(tmp_path):
    # distinct angles: compile_circuit builds their kernels in several blocks of
    # KERNEL_BLOCK_CELLS; the comb qubit must be RX(sum of angles) |0>
    angles = [0.001 * (i + 1) for i in range(3000)]
    circ = tmp_path / "rx3000.txt"
    circ.write_text("".join(f"RX({t})\n" for t in angles))
    assert main(["simulate", str(circ), *out_args(tmp_path)]) == EXIT_OK
    alpha, beta = _qubit_file(tmp_path / "out" / "qubit.json")
    t = sum(angles)
    assert abs(abs(alpha) - abs(math.cos(t))) < 1e-8
    assert abs(abs(beta) - abs(math.sin(t))) < 1e-8
