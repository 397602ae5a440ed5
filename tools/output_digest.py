"""Record the numeric outputs of a checkout, and compare two records, so that a
change can list every output it moves and by how much.

    python3 tools/output_digest.py record OUT.npz
    python3 tools/output_digest.py compare BEFORE.npz AFTER.npz

``record`` runs from the root of a checkout and imports its ``src/`` and
``perfbench/``, with BLAS pinned to one thread. For each seed in ``SEEDS`` it
builds the perfbench ``circuit`` items and compiles and simulates them as that
workload does. It keeps per gate the pulse couplings, the schedule's element codes
(-1 for a pulse, the quarter units for a drift), the global phase and the
projected qubit, and per item the final ``l_min`` and amplitudes. It runs the
perfbench ``pulses`` items as that workload does and keeps each ``apply_pinem``
result (``l_min`` and amplitudes), closure defect and eigenphases. It runs the
perfbench ``readout`` items as that workload does and keeps per item the
noiseless spectrogram, the noisy one where the item has counts (each as
``l_min`` and data), the bytes of the CSV the item writes, the reconstructed
``l_min`` and amplitudes, the fit's residual, ok, restarts and best
restart, and per start of ``_levenberg_marquardt`` (the narrowed try of a
fit that falls back included) its counts of residual and Jacobian
evaluations, so a change of the fit's arithmetic shows whether it moved the
path of the fit and not only its numbers. For a noiseless item it also keeps
the largest |residual| of the first start's fit, which runs on the state's
own window, at the state's true amplitudes: 0 where the spectrogram and the
fit share one forward model bit for bit. It keeps
``bessel_row`` on ``BESSEL_XS`` at the probe's budget 1e-24 and at the pulse
kernels' CHEBYSHEV_TAIL_TOL^2 / 8: the cut K per x, and the rows end to end.
It then runs each CLI command as ``CLI_RUNS`` lists it: ``simulate``,
``compile``, ``tomography --circuit`` and ``spectrum --circuit`` (JSON and
CSV) on ``H T H``, and ``eigenphases --g 2 --dim 9``. It keeps every number of
each JSON and CSV file they write, in file order, and the file's bytes, so a
change of its text that keeps the numbers shows too.

``compare`` prints, per output, how many entries changed and the largest
absolute change; a changed shape is reported as such.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

SEEDS = (101, 9001, 7)
BESSEL_XS = np.geomspace(1e-8, 500.0, 240)
CLI_RUNS = {
    "simulate": ["simulate", "{hth}"],
    "compile": ["compile", "{hth}"],
    "tomography": ["tomography", "--circuit", "{hth}"],
    "spectrum": ["spectrum", "--circuit", "{hth}"],
    "spectrum-csv": ["spectrum", "--circuit", "{hth}", "--csv"],
    "eigenphases": ["eigenphases", "--g", "2", "--dim", "9"],
}


def circuit_outputs(seed: int) -> dict:
    import workloads
    from fequbit import PinemPulse, compiler, ladder, qubit

    out = {}
    for item in workloads.Circuit(seed).items:
        key = f"circuit{seed}/{item.name}"
        schedules = compiler.compile_circuit(compiler.parse_circuit(item.source), workloads.BEAM)
        state = ladder.basis_state(0, workloads.INITIAL_HALF_WIDTH)
        qubits = []
        for schedule in schedules:
            state = compiler.simulate_schedule(schedule, state, workloads.POLICY)
            projected = qubit.project_qubit(state, edge_margin=workloads.POLICY.edge_margin,
                                            leakage_tol=workloads.POLICY.leakage_tol)
            qubits.append((projected.alpha, projected.beta))
        elements = [el for schedule in schedules for el in schedule.elements]
        out[f"{key}/couplings"] = np.array(
            [el.g for el in elements if isinstance(el, PinemPulse)], dtype=complex)
        out[f"{key}/element_codes"] = np.array(
            [-1 if isinstance(el, PinemPulse) else el.quarter_units for el in elements])
        out[f"{key}/global_phase"] = np.array([s.global_phase for s in schedules])
        out[f"{key}/qubit_per_gate"] = np.array(qubits)
        out[f"{key}/final_l_min"] = np.array([state.l_min])
        out[f"{key}/final_amplitudes"] = state.amplitudes.copy()
    return out


def pulse_outputs(seed: int) -> dict:
    import workloads

    out = {}
    workload = workloads.Pulses(seed)
    for item in workload.items:
        key = f"pulses{seed}/{item.name}"
        result = workload.run(item, "")
        if result.phases is not None:
            out[f"{key}/eigenphases"] = result.phases
            continue
        out[f"{key}/l_min"] = np.array([result.state.l_min])
        out[f"{key}/amplitudes"] = result.state.amplitudes
        if item.kind == "multi":
            out[f"{key}/closure"] = np.array([result.closure])
    return out


def _counted_fit(sg, seed: int):
    """``reconstruct_state(sg, seed=seed)``, the counts of residual and
    Jacobian evaluations of each of its ``_levenberg_marquardt`` starts, and
    the first start's (counted) residuals callable."""
    from fequbit import tomography

    counts, fits = [], []
    levenberg_marquardt = tomography._levenberg_marquardt

    def counted(residuals, jacobian, x0):
        count = [0, 0]
        counts.append(count)

        def counted_residuals(x):
            count[0] += 1
            return residuals(x)

        def counted_jacobian(x):
            count[1] += 1
            return jacobian(x)
        fits.append(counted_residuals)
        return levenberg_marquardt(counted_residuals, counted_jacobian, x0)

    tomography._levenberg_marquardt = counted
    try:
        result = tomography.reconstruct_state(sg, seed=seed)
    finally:
        tomography._levenberg_marquardt = levenberg_marquardt
    return result, np.array(counts), fits[0]


def readout_outputs(seed: int) -> dict:
    import workloads
    from fequbit import tomography

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spectrogram.csv")
        for item in workloads.Readout(seed).items:
            key = f"readout{seed}/{item.name}"
            state = item.state.trimmed() if item.expected_qubit is not None else item.state
            sg = tomography.spectrogram(state)
            out[f"{key}/noiseless_l_min"] = np.array([sg.l_min])
            out[f"{key}/noiseless_data"] = sg.data
            if item.counts:
                sg = tomography.add_shot_noise(sg, item.counts, seed=item.noise_seed)
                out[f"{key}/noisy_l_min"] = np.array([sg.l_min])
                out[f"{key}/noisy_data"] = sg.data
            sg.to_csv(path)
            out[f"{key}/csv_bytes"] = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
            result, out[f"{key}/evaluations"], residuals = _counted_fit(sg, item.fit_seed)
            out[f"{key}/l_min"] = np.array([result.state.l_min])
            out[f"{key}/amplitudes"] = result.state.amplitudes
            out[f"{key}/fit"] = np.array([result.residual, result.ok, result.restarts,
                                          result.best_restart])
            if not item.counts:
                true_x = np.concatenate([state.amplitudes.real, state.amplitudes.imag])
                out[f"{key}/true_residual_max"] = np.array([np.max(np.abs(residuals(true_x)))])
    return out


def bessel_outputs() -> dict:
    from fequbit.ladder import bessel_row
    from fequbit.operators import CHEBYSHEV_TAIL_TOL

    out = {}
    for name, budget in (("probe", 1e-24), ("kernel", CHEBYSHEV_TAIL_TOL ** 2 / 8)):
        rows = [bessel_row(x, budget) for x in BESSEL_XS]
        out[f"bessel_row/{name}/cuts"] = np.array([row.size // 2 for row in rows])
        out[f"bessel_row/{name}/values"] = np.concatenate(rows)
    return out


def _numbers(value) -> list:
    """Every number in a parsed JSON value, depth first; null counts as nan."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    if value is None:
        return [float("nan")]
    return [float(value)] if isinstance(value, (bool, int, float)) else []


def _file_numbers(path: Path) -> np.ndarray:
    if path.suffix == ".json":
        return np.array(_numbers(json.loads(path.read_text(encoding="utf-8"))))
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            for field in row:
                try:
                    values.append(float(field))
                except ValueError:
                    pass
    return np.array(values)


def cli_outputs() -> dict:
    out = {}
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    with tempfile.TemporaryDirectory() as tmp:
        hth = os.path.join(tmp, "hth.txt")
        Path(hth).write_text("H\nT\nH\n", encoding="utf-8")
        for name, args in CLI_RUNS.items():
            outdir = os.path.join(tmp, name)
            argv = [a.format(hth=hth) for a in args] + ["--out", outdir]
            subprocess.run([sys.executable, "-m", "fequbit", *argv], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            for path in sorted(Path(outdir).iterdir()):
                out[f"cli/{name}/{path.name}"] = _file_numbers(path)
                out[f"cli/{name}/{path.name}/bytes"] = np.frombuffer(path.read_bytes(),
                                                                     dtype=np.uint8)
    return out


def compare(before: dict, after: dict) -> list[str]:
    lines = []
    for key in sorted(set(before) | set(after)):
        if key not in before or key not in after:
            lines.append(f"{key}: only in {'after' if key in after else 'before'}")
            continue
        a, b = before[key], after[key]
        if a.shape != b.shape:
            lines.append(f"{key}: shape {a.shape} -> {b.shape}")
            continue
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        changed = int(np.count_nonzero(~same))
        largest = float(np.max(np.abs(a - b)[~same])) if changed else 0.0
        lines.append(f"{key}: {changed} of {a.size} entries changed, largest {largest:.2e}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    record = sub.add_parser("record", help="write this checkout's outputs to an .npz file")
    record.add_argument("out")
    diff = sub.add_parser("compare", help="per output, the entries two records differ in")
    diff.add_argument("before")
    diff.add_argument("after")
    args = parser.parse_args(argv)
    if args.mode == "record":
        sys.path[:0] = ["src", "perfbench"]
        arrays = cli_outputs()
        arrays.update(bessel_outputs())
        for seed in SEEDS:
            arrays.update(circuit_outputs(seed))
            arrays.update(pulse_outputs(seed))
            arrays.update(readout_outputs(seed))
        np.savez(args.out, **arrays)
        return 0
    with np.load(args.before) as before, np.load(args.after) as after:
        print("\n".join(compare(dict(before), dict(after))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
