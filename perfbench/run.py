"""fequbit benchmark: one seeded workload per run, outputs checked, metrics printed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload readout|circuit|pulses --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: a fresh interpreter, spawned to the end of ``import fequbit``;
  the best of three samples per round over all rounds.
- ``op_s``: the in-process work (see ``workloads.py``), from each input's
  best time over the rounds. ``readout``: the median over its states.
  ``circuit`` and ``pulses``: the sum over all inputs, i.e. one pass.

With ``--trace 1`` it reports the per-layer metrics: the workload's
``python -m fequbit`` commands, process start included (best of two per
round), and the layers' numbers from one traced pass over the same inputs,
whose spans it writes to ``.perfbench/``. Both kinds of run are made of
rounds (imports or CLI commands, then one untraced pass over the inputs)
repeated until ``--seconds`` have gone by, at least twice. Identical work is
reported as its best repeat because noise on a shared machine only adds time.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS is pinned to one thread here and in every child process, before numpy
is imported. The load is a closed loop with one caller.
"""

from __future__ import annotations

import argparse
import os
import sys

BLAS_THREADS = "1"
BLAS_ENV = {name: BLAS_THREADS for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

SETUP_PER_ROUND = 3
CLI_PER_ROUND = 2
MIN_ROUNDS = 2
CLI_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "op_s": "s"}

PER_LAYER = {
    "bench.batch_s": "s",
    "bench.items_per_s": "1/s",
    "bench.failed_frac": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.span_coverage": "ratio",
    "cli.simulate.s": "s",
    "cli.compile.s": "s",
    "cli.tomography.s": "s",
    "cli.eigenphases.s": "s",
    "layer.compiler.self_s": "s",
    "layer.operators.self_s": "s",
    "layer.ladder.self_s": "s",
    "layer.qubit.self_s": "s",
    "layer.tomography.self_s": "s",
    "layer.io.self_s": "s",
    "compiler.parse_circuit.s": "s",
    "compiler.compile_circuit.s": "s",
    "compiler.simulate_schedule.s": "s",
    "compiler.simulate_schedule.pulses": "count",
    "compiler.simulate_schedule.drifts": "count",
    "operators.apply_pinem.s": "s",
    "operators.apply_pinem.calls": "count",
    "operators.apply_fsp.s": "s",
    "operators.apply_fsp.calls": "count",
    "operators.apply_pinem_bessel.s": "s",
    "operators.apply_pinem_bessel.calls": "count",
    "operators.apply_pinem_matexp.dense.s": "s",
    "operators.apply_pinem_matexp.dense.calls": "count",
    "operators.apply_pinem_matexp.chebyshev.s": "s",
    "operators.apply_pinem_matexp.chebyshev.calls": "count",
    "operators.eigenphases.s": "s",
    "operators.levels_processed": "count",
    "ladder.window_levels.final": "count",
    "ladder.window_levels.max": "count",
    "ladder.window_bloat": "ratio",
    "ladder.LadderState.trimmed.s": "s",
    "qubit.project_qubit.s": "s",
    "qubit.project_qubit.calls": "count",
    "qubit.closure_check.s": "s",
    "tomography.reconstruct_state.s": "s",
    "tomography.reconstruct_state.calls": "count",
    "tomography.reconstruct_state.restarts": "count",
    "tomography.reconstruct_state.data_rows": "count",
    "tomography.reconstruct_state.fit_params": "count",
    "tomography.reconstruct_state.noiseless_s": "s",
    "tomography.reconstruct_state.noisy_s": "s",
    "tomography.reconstruct_state.ok_frac": "ratio",
    "tomography.reconstruct_state.residual_max": "ratio",
    "tomography.readout.infidelity_max": "ratio",
    "tomography.spectrogram.s": "s",
    "tomography.add_shot_noise.s": "s",
    "io.LadderState.dump.s": "s",
    "io.Spectrogram.to_csv.s": "s",
    "io.bytes_written": "bytes",
    "baseline.compile_h.s": "s",
    "baseline.simulate_h.s": "s",
    "baseline.effective_qubit_gate_h.s": "s",
    "baseline.reconstruct_h55.s": "s",
    "baseline.bessel_g250_4097.s": "s",
    "baseline.dense_expm_1001_g50.s": "s",
    "baseline.chebyshev_2001_g50.s": "s",
    "baseline.chebyshev_2001_g50_2h.s": "s",
}


@dataclass
class Samples:
    setup: list[float]
    cli: dict[str, list[float]]  # per command
    walls: list[float]  # passes whose items all succeeded
    items: list[list[float]]  # per item, its successful runs


class Run:
    """One benchmark run: its scratch directory, child environment and tallies."""

    def __init__(self, root: str, workload, seconds: float, tiny: bool, circuit_text: str):
        self.root = root
        self.workload = workload
        self.seconds = seconds
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench"))
        self.hth = os.path.join(self.workdir, "hth.dsl")
        with open(self.hth, "w", encoding="utf-8") as fh:
            fh.write(circuit_text)
        self.env = dict(os.environ)  # BLAS_ENV included
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))

    def tally(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems), file=sys.stderr)
        return not problems

    def setup_sample(self, samples: list[float]) -> None:
        """Time from spawning a fresh interpreter to the end of its import."""
        code = "import time, fequbit; print(repr(time.monotonic()))"
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=self.env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
                              cwd=self.workdir, check=False)
        if self.tally([] if proc.returncode == 0 else [proc.stderr.strip()], "import"):
            samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)

    def cli_round(self, rep: int, samples: dict[str, list[float]]) -> None:
        """Run the workload's CLI commands once each, timing them with process start."""
        for name, template, check in self.workload.cli:
            outdir = os.path.join(self.workdir, f"cli-{name}-{rep}")
            argv = [sys.executable, "-m", "fequbit",
                    *(a.format(hth=self.hth) for a in template), "--out", outdir]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S, cwd=self.workdir, check=False)
            elapsed = time.perf_counter() - t0
            problems = ([f"exit {proc.returncode}: {proc.stderr.strip()}"]
                        if proc.returncode else check(outdir))
            if self.tally(problems, f"cli {name}"):
                samples.setdefault(name, []).append(elapsed)

    def one_pass(self, tracer=None):
        """Run every item once, then check every output; returns (wall, records)."""
        records = []
        start = time.perf_counter()
        for item in self.workload.items:
            if tracer is not None:
                tracer.item = item.name
            t0 = time.perf_counter()
            try:
                out, error = self.workload.run(item, self.workdir), None
            except Exception as exc:  # the run reports any failure and goes on
                out, error = None, exc
                traceback.print_exc(file=sys.stderr)
            records.append([item, out, time.perf_counter() - t0, error])
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.item = None
        for record in records:
            item, out, _, error = record
            problems = ([f"{type(error).__name__}: {error}"] if error is not None
                        else self.workload.check(item, out))
            record[3] = self.tally(problems, f"{self.workload.name} {item.name}")
        return wall, records

    def rounds(self, setup_per_round: int, cli_per_round: int) -> Samples:
        """Rounds of fresh imports, the CLI commands and one untraced pass.

        Rounds repeat until ``seconds`` have gone by, at least MIN_ROUNDS
        times. Spreading each kind of sample over the whole run keeps one slow
        spell on a shared machine from reaching all of them.
        """
        self.workload.run(self.workload.items[0], self.workdir)  # warm lazy set-up
        samples = Samples([], {}, [], [[] for _ in self.workload.items])
        start = time.perf_counter()
        done = 0
        while done < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            for _ in range(setup_per_round):
                self.setup_sample(samples.setup)
            for rep in range(cli_per_round):
                self.cli_round(done * cli_per_round + rep, samples.cli)
            wall, records = self.one_pass()
            done += 1
            if all(r[3] for r in records):
                samples.walls.append(wall)
            for times, (_, _, seconds, ok) in zip(samples.items, records):
                if ok:
                    times.append(seconds)
        return samples

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _best(samples, pick=min):
    if not samples:
        raise RuntimeError("no operation of this kind succeeded")
    return pick(samples)


def end_to_end(run: Run) -> dict:
    samples = run.rounds(1 if run.tiny else SETUP_PER_ROUND, 0)
    best_items = [min(times) for times in samples.items if times]
    op = _best(best_items, statistics.median if run.workload.per_item else sum)
    return {"setup_s": _best(samples.setup), "op_s": op}


def per_layer(run: Run, seed: int) -> dict:
    from layers import baseline_rows, layer_metrics
    from tracing import Tracer

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    samples = run.rounds(0, 1 if run.tiny else CLI_PER_ROUND)
    for name, _, _ in run.workload.cli:
        if samples.cli.get(name):
            metrics[f"cli.{name}.s"] = min(samples.cli[name])
    untraced = _best(samples.walls)
    with Tracer() as tracer:
        traced_wall, records = run.one_pass(tracer)
    metrics.update(layer_metrics(tracer, run.workload, records))
    metrics["bench.batch_s"] = untraced
    metrics["bench.items_per_s"] = sum(run.workload.units(r[0]) for r in records) / untraced
    metrics["bench.trace_overhead"] = traced_wall / untraced - 1.0
    metrics["bench.span_coverage"] = tracer.root_time() / traced_wall
    metrics.update(baseline_rows(run.workload, tracer, run.tiny))
    tracer.write_jsonl(os.path.join(run.root, ".perfbench",
                                    f"spans-{run.workload.name}-{seed}.jsonl"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and repetitions, for the smoke test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fequbit", "__init__.py")):
        print(f"perfbench: no src/fequbit under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import HTH, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(root, WORKLOADS[args.workload](args.seed, args.tiny), args.seconds, args.tiny,
              HTH)
    try:
        values = per_layer(run, args.seed) if args.trace else end_to_end(run)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        values["bench.failed_frac"] = run.failed / run.attempted
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
