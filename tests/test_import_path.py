import os
import subprocess
import sys

import fequbit


def test_import_loads_neither_scipy_linalg_nor_optimize():
    # both load on first use, inside the functions that need them
    src = os.path.dirname(os.path.dirname(os.path.abspath(fequbit.__file__)))
    code = ("import sys, fequbit\n"
            "print(' '.join(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == ""


def test_eigenphases_load_no_linear_algebra():
    # the phases have a closed form; no eigensolver is imported for them
    src = os.path.dirname(os.path.dirname(os.path.abspath(fequbit.__file__)))
    code = ("import sys, fequbit\n"
            "fequbit.eigenphases(fequbit.PinemPulse.single(1.3), 101)\n"
            "print('scipy.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_noisy_reconstruction_loads_no_optimizer():
    # the fit takes its own Levenberg-Marquardt steps; no scipy solver is imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(fequbit.__file__)))
    code = ("import sys\n"
            "from fequbit import LadderState, add_shot_noise, reconstruct_state, spectrogram\n"
            "sg = add_shot_noise(spectrogram(LadderState(-1, [0.6, 0.0, 0.8j])), 1e5, seed=1)\n"
            "result = reconstruct_state(sg, seed=0)\n"
            "print(result.ok, 'scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "True False"


def test_runtime_loads_no_scipy():
    # Bessel rows, spectrograms and fits are numpy only; scipy is a test dependency
    src = os.path.dirname(os.path.dirname(os.path.abspath(fequbit.__file__)))
    code = ("import sys\n"
            "import fequbit\n"
            "from fequbit import (LadderState, PinemPulse, add_shot_noise, apply_pinem,\n"
            "                     basis_state, reconstruct_state, spectrogram)\n"
            "apply_pinem(basis_state(0, 8), PinemPulse.single(250.0))\n"
            "sg = add_shot_noise(spectrogram(LadderState(-1, [0.6, 0.0, 0.8j])), 1e5, seed=1)\n"
            "result = reconstruct_state(sg, seed=0)\n"
            "print(result.ok, sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "True []"
