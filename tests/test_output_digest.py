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
