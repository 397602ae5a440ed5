"""Steadiness report: many seeded runs per workload, spreads against the bounds.

Run from the repository root (takes about 40 minutes on two cores):

    python3 perfbench/steady.py

For every workload in BENCHMARK.json it runs the untraced benchmark once per
seed of each set (SET_A, SET_B) and reports, per end-to-end metric, the
median and quartiles and the spread (interquartile distance over the
median). A spread above the metric's bound is flagged unresolved; above a
third of it, noted. Set B's median is compared with set A's, in either
direction. Two traced runs on the held-out seed check that the per-layer
counts repeat exactly, that spans cover the in-process time, and give the
Baseline rows, compared with ROADMAP. Writes ``perfbench/results/``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
SET_A = range(101, 111)
SET_B = range(201, 211)
HELD_OUT = 9001  # not used while building the benchmark

# ROADMAP Baseline (2 OpenBLAS threads, best of several runs), seconds
ROADMAP_BASELINE = {
    "cli.simulate.s": 1.06,
    "cli.compile.s": 0.95,
    "cli.tomography.s": 5.9,
    "baseline.bessel_g250_4097.s": 9.4e-3,
    "baseline.dense_expm_1001_g50.s": 6.07,
    "baseline.chebyshev_2001_g50.s": 6.05e-3,
    "baseline.chebyshev_2001_g50_2h.s": 6.05e-3,
    "baseline.compile_h.s": 0.08e-3,
    "baseline.simulate_h.s": 0.12e-3,
    "baseline.effective_qubit_gate_h.s": 0.21e-3,
    "baseline.reconstruct_h55.s": 1.5,
}
COUNT_SUFFIXES = (".calls", ".restarts", ".data_rows", ".fit_params", ".pulses", ".drifts",
                  "levels_processed", "window_levels.final", "window_levels.max")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["stderr"] = proc.stderr.strip()
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "min": min(values), "max": max(values)}


def machine() -> dict:
    def out(*argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True, check=False,
                                  timeout=30).stdout.strip()
        except OSError:
            return ""

    lscpu = dict(line.split(":", 1) for line in out("lscpu").splitlines() if ":" in line)
    probe = ("import ctypes, glob, json, os, numpy, scipy\n"
             "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,"
             " 'numpy.libs', '*openblas*'))\n"
             "threads = None\n"
             "for lib in libs:\n"
             "    try: threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()\n"
             "    except (OSError, AttributeError): pass\n"
             "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
             " 'blas': cfg.get('name'), 'blas_version': cfg.get('version'),"
             " 'blas_threads_at_runtime': threads}))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    libs = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                     capture_output=True, text=True).stdout)
    return {
        "git_sha": out("git", "rev-parse", "HEAD") or "unknown",
        "cpu_model": lscpu.get("Model name", "").strip(),
        "caches": {k.strip(): v.strip() for k, v in lscpu.items() if "cache" in k},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **libs,
        "blas_threads_pinned": env["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(RESULTS, exist_ok=True)
    raw_path = os.path.join(RESULTS, "runs.json")
    raw = {"machine": machine(), "run_seconds": seconds, "untraced": {}, "traced": {}}

    for workload in (w["name"] for w in spec["workloads"]):
        for label, seed_list in (("a", SET_A), ("b", SET_B)):
            for seed in seed_list:
                result = bench(workload, seed, seconds, 0)
                raw["untraced"].setdefault(workload, {}).setdefault(label, []).append(
                    {"seed": seed, **result})
                print(workload, label, seed, {k: round(v["value"], 4)
                                              for k, v in result["metrics"].items()},
                      flush=True)
                with open(raw_path, "w", encoding="utf-8") as fh:
                    json.dump(raw, fh, indent=1)
        raw["traced"][workload] = [bench(workload, HELD_OUT, seconds, 1) for _ in range(2)]
        with open(raw_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=1)

    with open(os.path.join(RESULTS, "steadiness.md"), "w", encoding="utf-8") as fh:
        fh.write(report(raw, bounds))
    return 0


def report(raw: dict, bounds: dict) -> str:
    lines = ["# Steadiness report", "",
             f"Machine: `{json.dumps(raw['machine'])}`", "",
             f"Each run measures {raw['run_seconds']} s (`--seconds`). Set A seeds "
             f"{SET_A.start}-{SET_A.stop - 1}, set B seeds {SET_B.start}-{SET_B.stop - 1}; "
             f"the held-out seed {HELD_OUT} was not used while building the benchmark.", "",
             "## End-to-end metrics, untraced", "",
             "| workload | metric | set | n | median | q1 | q3 | spread | bound | status |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for workload, sets in raw["untraced"].items():
        medians = {}
        for label, runs in sets.items():
            failed = sum(r["failed"] for r in runs)
            for name in bounds:
                s = summary([r["metrics"][name]["value"] for r in runs])
                medians[(name, label)] = s["median"]
                status = ("unresolved: spread above bound" if s["spread"] > bounds[name]
                          else "above a third of bound" if s["spread"] > bounds[name] / 3
                          else "steady")
                lines.append(f"| {workload} | {name} | {label} | {s['n']} | {s['median']:.4g} "
                             f"| {s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.3f} "
                             f"| {bounds[name]} | {status} |")
            lines.append(f"| {workload} | failed checks | {label} | | {failed} of "
                         f"{sum(r['attempted'] for r in runs)} | | | | | |")
        for name in bounds:
            if (name, "a") in medians and (name, "b") in medians:
                change = medians[(name, "b")] / medians[(name, "a")] - 1.0
                verdict = "within bound" if abs(change) <= bounds[name] else "OUTSIDE BOUND"
                lines.append(f"| {workload} | {name} | B vs A | | {change:+.3f} | | | "
                             f"| {bounds[name]} | {verdict} |")
    lines += ["", f"## Traced runs on the held-out seed {HELD_OUT}", "",
              "| workload | correct | counts repeat | span coverage | trace overhead |",
              "|---|---|---|---|---|"]
    baseline = {}
    for workload, (first, second) in raw["traced"].items():
        m1, m2 = first["metrics"], second["metrics"]
        counts = [n for n in m1 if n.endswith(COUNT_SUFFIXES)]
        differ = [n for n in counts if m1[n]["value"] != m2[n]["value"]]
        lines.append(f"| {workload} | {first['correct'] and second['correct']} "
                     f"| {'yes' if not differ else 'NO: ' + ', '.join(differ)} "
                     f"| {m1['bench.span_coverage']['value']:.4f}, "
                     f"{m2['bench.span_coverage']['value']:.4f} "
                     f"| {m1['bench.trace_overhead']['value']:+.4f}, "
                     f"{m2['bench.trace_overhead']['value']:+.4f} |")
        for name in ROADMAP_BASELINE:
            if m1[name]["value"]:
                baseline[name] = (workload, min(m1[name]["value"], m2[name]["value"]))
    lines += ["", "## ROADMAP Baseline rows (1 BLAS thread here, 2 in ROADMAP)", "",
              "| row | workload | ROADMAP s | measured s | ratio | differs by >20% |",
              "|---|---|---|---|---|---|"]
    for name, ref in ROADMAP_BASELINE.items():
        if name in baseline:
            workload, value = baseline[name]
            ratio = value / ref
            lines.append(f"| {name} | {workload} | {ref:.4g} | {value:.4g} | {ratio:.2f} "
                         f"| {'yes' if abs(ratio - 1.0) > 0.2 else 'no'} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
