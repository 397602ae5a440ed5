"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: ``python3 perfbench/smoke.py``. It checks that

1. every workload, untraced and traced, prints each metric BENCHMARK.json
   names, with its unit, and passes its own gates;
2. every gate catches a deliberately corrupted output;
3. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits nonzero without printing a result.

Exits 0 when all hold. Takes about a minute on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def _run(cwd, workload, trace):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def check_metrics(failures):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{what}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{what}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{what}: gates failed: {proc.stderr[-2000:]}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                failures.append(f"{what}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed.items()) ^ set(expected.items()))}")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
            if bad:
                failures.append(f"{what}: non-numeric values for {bad}")


def check_gates_catch_corruption(failures):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from fequbit import qubit
    from workloads import Circuit, Pulses, Readout, hth_qubit

    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        def expect_caught(workload, item, out, corrupt, what):
            if workload.check(item, out):
                failures.append(f"{what}: the uncorrupted output already fails")
            elif not workload.check(item, corrupt(out)):
                failures.append(f"{what}: corrupted output passed the gate")

        def flip_one_phase(amps, index):
            amps = np.array(amps)
            amps[index] *= -1.0
            return amps

        readout = Readout(3, tiny=True)
        for item in readout.items:
            out = readout.run(item, workdir)
            state = out.result.state
            second = int(np.argsort(np.abs(state.amplitudes))[-2])
            flipped = type(state)(state.l_min, flip_one_phase(state.amplitudes, second))
            expect_caught(readout, item, out, lambda o, s=flipped: dataclasses.replace(
                o, result=dataclasses.replace(o.result, state=s)), f"readout {item.name}")

        circuit = Circuit(3, tiny=True)
        for item in circuit.items:
            out = circuit.run(item, workdir)
            expect_caught(circuit, item, out, lambda o: dataclasses.replace(
                o, qubit=qubit.QubitState(o.qubit.alpha, -o.qubit.beta)),
                f"circuit {item.name}")

        pulses = Pulses(3, tiny=True)
        for item in pulses.items:
            out = pulses.run(item, workdir)
            if item.kind == "eigenphases":
                bad = [dataclasses.replace(out, phases=flip_one_phase(out.phases, 0))]
            else:
                peak = int(np.argmax(np.abs(out.state.amplitudes)))
                bad = [dataclasses.replace(out, state=type(out.state)(
                    out.state.l_min, flip_one_phase(out.state.amplitudes, peak)))]
                if item.kind == "multi":
                    bad.append(dataclasses.replace(out, closure=1e-6))
            for b in bad:
                expect_caught(pulses, item, out, lambda o, b=b: b, f"pulses {item.name}")

        # the CLI gate, fed a readout with the phase of beta flipped
        expected = hth_qubit()
        with open(os.path.join(workdir, "readout_qubit.json"), "w", encoding="utf-8") as fh:
            json.dump(qubit.QubitState(complex(expected[0]), complex(-expected[1]))
                      .to_json(), fh)
        if not readout.check_cli(workdir):
            failures.append("cli tomography gate passed a flipped phase")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_refuses_without_source(failures):
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "readout", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"without src/ the run exited {proc.returncode} "
                            f"and printed {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    failures: list[str] = []
    check_refuses_without_source(failures)
    check_gates_catch_corruption(failures)
    check_metrics(failures)
    for line in failures:
        print("FAIL", line)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
