"""In-memory spans around the package's public calls, for the traced run.

The tracer wraps public functions of ``fequbit`` from outside: every module
attribute (and class attribute, for methods) that refers to a traced
function is swapped for a wrapper while the tracer is installed, so calls the
package makes between its own modules are recorded too. Nothing under
``src/`` changes. Each span records its name, start, end, parent span and
the id of the workload item it belongs to, plus a few numbers read from the
call's arguments and result. Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    item: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _out_dim(args, kwargs, result):
    return {"dim": result.dim if hasattr(result, "dim") else result.size}


def _reconstruct_attrs(args, kwargs, result):
    sg = args[0] if args else kwargs["sg"]
    return {"restarts": result.restarts, "data_rows": sg.n_levels,
            "fit_params": 2 * result.state.dim, "ok": result.ok,
            "residual": result.residual}


def _schedule_attrs(args, kwargs, result):
    schedule = args[0] if args else kwargs["schedule"]
    return {"pulses": schedule.n_pulses, "drifts": schedule.n_drifts, "dim": result.dim}


# span name -> (module, attribute path, attrs(args, kwargs, result) or None)
TRACED = {
    "compiler.parse_circuit": ("compiler", "parse_circuit", None),
    "compiler.compile_circuit": ("compiler", "compile_circuit", None),
    "compiler.compile_gate": ("compiler", "compile_gate", None),
    "compiler.simulate_schedule": ("compiler", "simulate_schedule", _schedule_attrs),
    "compiler.effective_qubit_gate": ("compiler", "effective_qubit_gate", None),
    "operators.apply_pinem": ("operators", "apply_pinem", _out_dim),
    "operators.apply_pinem_bessel": ("operators", "apply_pinem_bessel", _out_dim),
    "operators.apply_pinem_matexp": ("operators", "apply_pinem_matexp", _out_dim),
    "operators.apply_fsp": ("operators", "apply_fsp", _out_dim),
    "operators.pinem_kernel": ("operators", "pinem_kernel", None),
    "operators.eigenphases": ("operators", "eigenphases", _out_dim),
    "ladder.basis_state": ("ladder", "basis_state", None),
    "ladder.occupied_levels": ("ladder", "occupied_levels", None),
    "ladder.LadderState.trimmed": ("ladder", "LadderState.trimmed", None),
    "qubit.project_qubit": ("qubit", "project_qubit", None),
    "qubit.closure_check": ("qubit", "closure_check", None),
    "tomography.spectrogram": ("tomography", "spectrogram", None),
    "tomography.add_shot_noise": ("tomography", "add_shot_noise", None),
    "tomography.reconstruct_state": ("tomography", "reconstruct_state", _reconstruct_attrs),
    "io.LadderState.dump": ("ladder", "LadderState.dump", None),
    "io.Spectrogram.to_csv": ("tomography", "Spectrogram.to_csv", None),
}


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None,
                        item=self.item)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span.end = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fequbit" or n.startswith("fequbit."))]
        for name, (module_name, path, attrs) in TRACED.items():
            owner = sys.modules[f"fequbit.{module_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, attrs)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def root_time(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "item": s.item,
                                     **s.attrs}) + "\n")
