"""Per-layer numbers from one traced pass, and the ROADMAP Baseline rows.

Times named ``<module>.<function>.s`` are inclusive: the summed duration of
every span of that function. ``layer.<module>.self_s`` is the summed self
time (duration minus direct children) of the module's spans. Counts come from
the spans' recorded attributes or from the pass's outputs, never from timing,
so they repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from fequbit import compiler, ladder, operators
from workloads import BEAM, INITIAL_HALF_WIDTH, Circuit, Pulses, Readout

COUNTED_CALLS = ("operators.apply_pinem", "operators.apply_fsp",
                 "operators.apply_pinem_bessel", "qubit.project_qubit",
                 "tomography.reconstruct_state")


def layer_metrics(tracer, workload, records) -> dict:
    m = defaultdict(float)
    spans = tracer.spans
    for span, own in zip(spans, tracer.self_times()):
        name = span.name
        if name == "operators.apply_pinem_matexp":
            # the package switches paths on window size; so does this split
            dense = span.attrs["dim"] <= operators.MATEXP_DENSE_MAX_DIM
            name += ".dense" if dense else ".chebyshev"
            m[name + ".calls"] += 1
        elif name in COUNTED_CALLS:
            m[name + ".calls"] += 1
        m[name + ".s"] += span.duration
        m[f"layer.{span.layer}.self_s"] += own
        parent = spans[span.parent] if span.parent is not None else None
        if span.layer == "operators" and "dim" in span.attrs and (
                parent is None or parent.layer != "operators"):
            m["operators.levels_processed"] += span.attrs["dim"]
        if name == "compiler.simulate_schedule":
            m["compiler.simulate_schedule.pulses"] += span.attrs["pulses"]
            m["compiler.simulate_schedule.drifts"] += span.attrs["drifts"]
        if name == "tomography.reconstruct_state":
            for key in ("restarts", "data_rows", "fit_params"):
                m[f"{name}.{key}"] += span.attrs[key]
            m[f"{name}.ok_frac"] += span.attrs["ok"]
            m[f"{name}.residual_max"] = max(m[f"{name}.residual_max"],
                                            span.attrs["residual"])
    if m["tomography.reconstruct_state.calls"]:
        m["tomography.reconstruct_state.ok_frac"] /= m["tomography.reconstruct_state.calls"]

    outputs = [(item, out) for item, out, _, ok in records if ok]
    states = [(out, out.state) for _, out in outputs if getattr(out, "state", None) is not None]
    if states:
        m["ladder.window_levels.final"] = sum(s.dim for _, s in states)
        m["ladder.window_levels.max"] = max(getattr(o, "max_dim", s.dim) for o, s in states)
        m["ladder.window_bloat"] = (m["ladder.window_levels.final"]
                                    / sum(ladder.occupied_levels(s) for _, s in states))
    m["io.bytes_written"] = sum(getattr(out, "bytes_written", 0) for _, out in outputs)
    if isinstance(workload, Readout):
        m["tomography.readout.infidelity_max"] = max(
            (workload.infidelity(item, out) for item, out in outputs), default=0.0)
        # the two ways the fit is used: one restart without noise, two or more with
        noisy = {item.name for item, *_ in records if item.counts}
        for span in spans:
            if span.name == "tomography.reconstruct_state":
                kind = "noisy" if span.item in noisy else "noiseless"
                m[f"tomography.reconstruct_state.{kind}_s"] += span.duration
    return dict(m)


def _best_of(reps: int, fn, *args) -> float:
    """Median wall time of ``reps`` calls, for the Baseline rows."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def baseline_rows(workload, tracer, tiny: bool) -> dict:
    """The ROADMAP Baseline rows that belong to this workload, timed untraced."""
    rows = {}
    if isinstance(workload, Readout):
        # the H state reconstruction of the traced pass (55 data rows at full size)
        rows["baseline.reconstruct_h55.s"] = sum(
            s.duration for s in tracer.spans
            if s.name == "tomography.reconstruct_state" and s.item == "H")
    elif isinstance(workload, Circuit):
        h = compiler.Gate("H")
        schedule = compiler.compile_gate(h, BEAM)
        start = ladder.basis_state(0, INITIAL_HALF_WIDTH)
        reps = 5 if tiny else 50
        rows["baseline.compile_h.s"] = _best_of(reps, compiler.compile_gate, h, BEAM)
        rows["baseline.simulate_h.s"] = _best_of(reps, compiler.simulate_schedule,
                                                 schedule, start)
        rows["baseline.effective_qubit_gate_h.s"] = _best_of(
            reps, compiler.effective_qubit_gate, schedule)
    elif isinstance(workload, Pulses):
        # (|g|, half-width); the smoke test shrinks them
        bessel, dense, cheb_half = ((5.0, 64), (5.0, 50), 600) if tiny else (
            (250.0, 2048), (50.0, 500), 1000)
        rows["baseline.bessel_g250_4097.s"] = _best_of(
            5, operators.apply_pinem_bessel, ladder.basis_state(0, bessel[1]),
            operators.PinemPulse.single(bessel[0]), ladder.TruncationPolicy.fixed(bessel[1]))
        rows["baseline.dense_expm_1001_g50.s"] = _best_of(
            1, operators.apply_pinem_matexp, ladder.basis_state(0, dense[1]),
            operators.PinemPulse.single(dense[0]), ladder.TruncationPolicy.fixed(dense[1]))
        cheb_start = ladder.basis_state(0, cheb_half)
        cheb_policy = ladder.TruncationPolicy.fixed(cheb_half)
        rows["baseline.chebyshev_2001_g50.s"] = _best_of(
            5, operators.apply_pinem_matexp, cheb_start,
            operators.PinemPulse.single(50.0), cheb_policy)
        rows["baseline.chebyshev_2001_g50_2h.s"] = _best_of(
            5, operators.apply_pinem_matexp, cheb_start,
            operators.PinemPulse.multi({1: 25.0, 2: 25.0j}), cheb_policy)
    return rows

