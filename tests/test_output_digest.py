"""``tools/output_digest.py compare``: what it reports for each kind of
difference between two records."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("output_digest", _PATH)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # it pins BLAS threads for its own runs
        spec.loader.exec_module(module)
    return module


def test_compare_counts_the_changed_entries_and_the_largest_change(digest):
    before = {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([1 + 1j, 2j])}
    after = {"a": np.array([1.0, 2.5, 2.0]), "b": np.array([1 + 1j, 2j])}
    assert digest.compare(before, after) == [
        "a: 2 of 3 entries changed, largest 1.00e+00",
        "b: 0 of 2 entries changed, largest 0.00e+00",
    ]


def test_compare_counts_nan_on_both_sides_as_unchanged(digest):
    before = {"a": np.array([np.nan, 1.0, np.nan])}
    after = {"a": np.array([np.nan, 1.0, 2.0])}
    assert digest.compare(before, before) == ["a: 0 of 3 entries changed, largest 0.00e+00"]
    assert digest.compare(before, after)[0].startswith("a: 1 of 3 entries changed")


def test_compare_reports_a_changed_shape(digest):
    before = {"row": np.zeros(5)}
    after = {"row": np.zeros(7)}
    assert digest.compare(before, after) == ["row: shape (5,) -> (7,)"]


def test_compare_reports_a_key_on_one_side_only(digest):
    both = np.ones(2)
    assert digest.compare({"k": both, "old": both}, {"k": both, "new": both}) == [
        "k: 0 of 2 entries changed, largest 0.00e+00",
        "new: only in after",
        "old: only in before",
    ]


def test_record_keeps_each_readout_item(digest, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(_PATH.parent.parent / "perfbench"))
    import workloads
    from fequbit import Spectrogram

    items = workloads.Readout(101).items
    out = digest.readout_outputs(101)
    per_item = {"noiseless_l_min", "noiseless_data", "csv_bytes", "l_min", "amplitudes", "fit",
                "evaluations"}
    assert {key.rsplit("/", 1)[0] for key in out} == {f"readout101/{i.name}" for i in items}
    for item in items:
        key = f"readout101/{item.name}"
        got = {k.rsplit("/", 1)[1] for k in out if k.rsplit("/", 1)[0] == key}
        assert got == (per_item | {"noisy_l_min", "noisy_data"} if item.counts
                       else per_item | {"true_residual_max"})
        kept = "noisy" if item.counts else "noiseless"
        path = tmp_path / "sg.csv"
        path.write_bytes(out[f"{key}/csv_bytes"].tobytes())
        sg = Spectrogram.from_csv(path)
        assert sg.l_min == out[f"{key}/{kept}_l_min"][0]
        assert sg.data.tobytes() == out[f"{key}/{kept}_data"].tobytes()
        residual, ok, restarts, best_restart = out[f"{key}/fit"]
        assert ok and residual <= 0.05 and 0 <= best_restart < restarts
        # one [residuals, Jacobian] count per start, a narrowed try included
        evaluations = out[f"{key}/evaluations"]
        assert evaluations.shape[1] == 2 and evaluations.shape[0] >= restarts
        assert np.all(evaluations[:, 0] >= 1) and np.all(evaluations[:, 1] >= 1)
        assert np.all(evaluations[:, 1] <= evaluations[:, 0])
        assert out[f"{key}/amplitudes"].size > 0 and out[f"{key}/l_min"].shape == (1,)
        if not item.counts:
            # the spectrogram and the fit share one forward model, bit for bit
            assert out[f"{key}/true_residual_max"].tolist() == [0.0]
    again = digest.readout_outputs(101)
    assert all(" 0 of " in line for line in digest.compare(out, again))


def test_record_keeps_each_cli_file_with_its_bytes(digest, monkeypatch, tmp_path):
    monkeypatch.chdir(_PATH.parent.parent)  # it runs the CLI of the checkout it is in
    out = digest.cli_outputs()
    files = {key for key in out if not key.endswith("/bytes")}
    assert {key.split("/")[1] for key in files} == set(digest.CLI_RUNS)
    assert {key for key in out if key.endswith("/bytes")} == {f"{k}/bytes" for k in files}
    for key in files:
        # the bytes hold the very numbers kept for the file
        path = tmp_path / key.rsplit("/", 1)[1]
        path.write_bytes(out[f"{key}/bytes"].tobytes())
        assert digest.compare({key: out[key]}, {key: digest._file_numbers(path)}) == [
            f"{key}: 0 of {out[key].size} entries changed, largest 0.00e+00"]
