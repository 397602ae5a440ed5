import json

import numpy as np
import pytest

from fequbit import LadderState, Schedule, basis_state
from fequbit.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RECONSTRUCTION,
    EXIT_TRUNCATION,
    MAX_BENCH_DIM,
    MAX_EIGENPHASES_DIM,
    load_bloch_csv,
    load_compiled,
    load_eigenphases_csv,
    load_spectrum_csv,
    main,
)
from fequbit.tomography import Spectrogram


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circ.txt"
    path.write_text("H\nX\n")
    return str(path)


def out_args(tmp_path, sub="out"):
    return ["--out", str(tmp_path / sub)]


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
    cfg.write_text("{not json")
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


@pytest.mark.parametrize("g", ["nan", "inf"])
def test_eigenphases_non_finite_coupling_is_config_error(tmp_path, g):
    assert main(["eigenphases", "--g", g, "--dim", "21", *out_args(tmp_path)]) == EXIT_CONFIG


def test_out_of_memory_is_config_error(tmp_path, monkeypatch, capsys):
    # an oversized --dim or --phases ends in MemoryError; allocate nothing here
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("fequbit.cli.eigenphases", exhausted)
    assert main(["eigenphases", "--g", "0.25", "--dim", "21",
                 *out_args(tmp_path)]) == EXIT_CONFIG
    assert "--dim" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--counts", "nan"], ["--counts", "inf"],
                                   ["--counts", "1e20"], ["--probe", "nan"],
                                   ["--probe", "1e300"], ["--probe", "1000"],
                                   ["--phases", "1025"], ["--window", "8388609"]])
def test_tomography_bad_number_is_config_error(tmp_path, circuit_file, flags):
    code = main(["tomography", "--circuit", circuit_file, *flags, *out_args(tmp_path)])
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


def test_bench_report(tmp_path):
    assert main(["bench", "--g", "2.0", "--dim", "201", *out_args(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "bench.json").read_text())
    assert report["dim"] == 201
    assert report["occupied_levels"] >= 1
    assert report["bessel_seconds"] > 0
    assert report["matexp_seconds"] > 0
    assert report["norm_error"] < 1e-10


def test_bench_rejects_undersized_window(tmp_path):
    assert main(["bench", "--g", "50", "--dim", "51", *out_args(tmp_path)]) == EXIT_CONFIG


def test_bench_window_must_hold_the_whole_kernel(tmp_path):
    # at |g| = 250 the kernel runs to |k| = 576; a half-width of 565 would cut it
    assert main(["bench", "--g", "250", "--dim", "1131", *out_args(tmp_path)]) == EXIT_CONFIG


def test_bench_rejects_a_short_window_before_building_the_kernel(tmp_path, monkeypatch):
    # a kernel for |g| = 1e8 would take gigabytes; dim 201 is rejected first
    monkeypatch.setattr("fequbit.cli.pinem_kernel", _allocates)
    assert main(["bench", "--g", "1e8", "--dim", "201", *out_args(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("g", ["nan", "inf"])
def test_bench_non_finite_coupling_is_config_error(tmp_path, g):
    assert main(["bench", "--g", g, "--dim", "201", *out_args(tmp_path)]) == EXIT_CONFIG


def _allocates(*args, **kwargs):
    raise AssertionError("an oversized flag reached an allocating call")


@pytest.mark.parametrize("argv", [
    # 4098 is even and rejected as such; 4099 is the first odd dim beyond the cap
    ["eigenphases", "--g", "0.25", "--dim", str(MAX_EIGENPHASES_DIM + 2)],
    ["bench", "--g", "2.0", "--dim", str(MAX_BENCH_DIM + 1)],
])
def test_dim_beyond_its_cap_is_config_error(tmp_path, monkeypatch, argv):
    for name in ("eigenphases", "basis_state", "apply_pinem"):
        monkeypatch.setattr(f"fequbit.cli.{name}", _allocates)
    assert main([*argv, *out_args(tmp_path)]) == EXIT_CONFIG


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
