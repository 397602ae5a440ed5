"""Shared test utilities: window alignment, random states and readers of
the files the CLI writes."""

import csv
import json

import numpy as np

from fequbit import FspPhase, LadderState, PinemPulse, QubitState, Schedule, Spectrum
from fequbit.ladder import bessel_row


def padded(state: LadderState, l_min: int, l_max: int) -> LadderState:
    """``state`` zero-padded onto the window [l_min, l_max], which must contain its own."""
    below, above = state.l_min - l_min, l_max - (state.l_min + state.dim - 1)
    assert below >= 0 and above >= 0, "the padded window must contain the state's"
    return LadderState(l_min, np.pad(state.amplitudes, (below, above)))


def aligned_pair(s1: LadderState, s2: LadderState) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude arrays of both states zero-padded onto their joint window."""
    lo = min(s1.l_min, s2.l_min)
    hi = max(s1.l_min + s1.dim, s2.l_min + s2.dim) - 1
    return padded(s1, lo, hi).amplitudes, padded(s2, lo, hi).amplitudes


def state_distance(s1: LadderState, s2: LadderState) -> float:
    a, b = aligned_pair(s1, s2)
    return float(np.linalg.norm(a - b))


def state_fidelity(s1: LadderState, s2: LadderState) -> float:
    a, b = aligned_pair(s1, s2)
    return float(abs(np.vdot(a, b)) ** 2
                 / (np.vdot(a, a).real * np.vdot(b, b).real))


def random_interior_state(rng: np.random.Generator, support_half: int,
                          window_half: int) -> LadderState:
    """Normalized random state supported on [-support_half, support_half]
    inside the window [-window_half, window_half]."""
    assert support_half < window_half
    amps = np.zeros(2 * window_half + 1, dtype=np.complex128)
    n = 2 * support_half + 1
    block = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps[window_half - support_half:window_half + support_half + 1] = block
    amps /= np.linalg.norm(amps)
    return LadderState(-window_half, amps)


def bessel_tail_half_width(x: float, budget: float) -> int:
    """Smallest K >= 0 with 2 * sum_{k>K} J_k(x)^2 <= budget (see ``bessel_row``)."""
    return bessel_row(x, budget).size // 2


def load_bloch_csv(path) -> list[dict]:
    """Rows of bloch.csv keyed by the header; a row with another field count
    than the header raises."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for toks in reader:
            if len(toks) != len(header):
                raise ValueError(f"{len(toks)} fields under a {len(header)}-column header")
            row = dict(zip(header, toks))
            row["qubit"] = QubitState(
                complex(float(row["alpha_re"]), float(row["alpha_im"])),
                complex(float(row["beta_re"]), float(row["beta_im"])))
            rows.append(row)
    return rows


def schedule_from_json(obj: dict, quarter_length_m: float) -> Schedule:
    """Inverse of ``Schedule.to_json``; the drifts' ``meters`` are not read."""
    elements = []
    for entry in obj["elements"]:
        if "pulse" in entry:
            elements.append(PinemPulse.single(complex(*entry["pulse"]["g"])))
        elif "drift" in entry:
            elements.append(FspPhase.quarter(entry["drift"]["quarter_units"]))
        else:
            raise ValueError(f"unknown schedule element {entry!r}")
    return Schedule(tuple(elements), complex(*obj["global_phase"]), quarter_length_m)


def load_compiled(path) -> list[tuple[str, Schedule]]:
    """(gate label, schedule) pairs of schedule.json; one quarter unit is the
    document's beam z_d / 4."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    quarter_length_m = doc["beam"]["z_d"] / 4.0
    return [(entry["gate"], schedule_from_json(entry["schedule"], quarter_length_m))
            for entry in doc["gates"]]


def load_spectrum_csv(path) -> Spectrum:
    levels, probs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            l, p = line.strip().split(",")
            levels.append(int(l))
            probs.append(float(p))
    return Spectrum(levels[0], np.asarray(probs))


def load_eigenphases_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.array([float(line) for line in fh if line.strip()])
