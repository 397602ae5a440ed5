"""Each public name of ``fequbit`` has a caller outside the tests, or a reason.

The names are the ones ``fequbit/__init__.py`` exports and the public
methods, properties and class attributes of the classes among them
(dataclass fields are data, not calls). A name counts as called when code in
``src/fequbit`` other than ``__init__.py``, or in ``perfbench/``, reads it:
as a name or an attribute (an assignment, such as a class attribute's own
definition, does not count), or as the last part of a dotted string such as
perfbench's traced paths (``"LadderState.trimmed"``). Spelling is all the
check reads, so a homonym keeps a name alive; it never flags a live one.
``from_json``, ``to_json`` and ``indices`` are the members two exported
classes share, so the check cannot tell their callers apart:
``BeamParameters.from_json`` had none but passed on ``LadderState.from_json``'s,
and went by hand.

A name that only tests call is debt (ROADMAP aim 2), unless ``KEPT`` lists
it with the reason a user of the pipeline reaches for it, and its docstring
gives that reason in a sentence that starts "Public because".
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import fequbit
from fequbit.ladder import DEFAULT_POLICY

ROOT = Path(__file__).resolve().parents[1]

KEPT = {
    "unparse": "the one writer of the gate DSL that parse_circuit reads",
    "euler_xyx": "the XYX angles of any target, without building a schedule",
    "gate_fidelity": "the score a compiled or simulated gate is compared with its target by",
    "Gate.target_matrix": "the matrix a compiled schedule should realize",
    "QubitState.as_vector": "the form a 2x2 gate is applied to",
    "Spectrogram.from_csv": "reads back the spectrogram.csv that fequbit tomography writes",
}

# read by perfbench alone until ROADMAP item 6 deletes them; of the policy's class
# attributes only an attribute read counts, as a parameter may share their spelling
PERFBENCH_ONLY = {"apply_pinem_bessel", "apply_pinem_matexp", "MATEXP_DENSE_MAX_DIM"}
POLICY_ATTRIBUTES = {"edge_margin", "leakage_tol"}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def names_read(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _DOTTED.fullmatch(node.value)):
                names.add(node.value.rsplit(".", 1)[-1])
    return names


def public_surface() -> dict[str, object]:
    """Qualified name -> object for every export and every public member of
    an exported class."""
    surface = {}
    for name, obj in vars(fequbit).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        surface[name] = obj
        if inspect.isclass(obj):
            data = ({f.name for f in dataclasses.fields(obj)}
                    if dataclasses.is_dataclass(obj) else set())
            for member in vars(obj):
                if not member.startswith("_") and member not in data:
                    surface[f"{name}.{member}"] = getattr(obj, member)
    return surface


CALLED = names_read([*(p for p in (ROOT / "src" / "fequbit").glob("*.py")
                          if p.name != "__init__.py"),
                        *(ROOT / "perfbench").glob("*.py")])


def called(qualified: str) -> bool:
    return qualified.rsplit(".", 1)[-1] in CALLED


def test_every_public_name_has_a_caller_or_a_kept_reason():
    uncalled = sorted(name for name in public_surface() if not called(name))
    assert [name for name in uncalled if name not in KEPT] == []


@pytest.mark.parametrize("name", sorted(KEPT))
def test_each_kept_name_is_public_only_by_its_reason(name):
    surface = public_surface()
    assert name in surface, f"{name} is gone: drop it from KEPT"
    assert not called(name), f"{name} has a caller now: drop it from KEPT"
    obj = surface[name]
    doc = inspect.getdoc(obj.fget if isinstance(obj, property) else obj) or ""
    assert "Public because" in doc


def test_no_test_reads_a_name_only_perfbench_may_read():
    # identifiers and imports only, so the lists above, being strings, pass
    readers = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            read = {getattr(node, key, None) for key in ("id", "name", "attr")} & PERFBENCH_ONLY
            if isinstance(node, ast.Attribute) and node.attr in POLICY_ATTRIBUTES:
                read.add(f".{node.attr}")
            readers |= {f"{path.name} reads {name}" for name in read}
    assert not readers, "; ".join(sorted(readers))


def test_the_package_exports_no_perfbench_only_name():
    # perfbench reads these through their modules, which keep them
    exported = PERFBENCH_ONLY | {"occupied_levels"}
    assert sorted(exported & set(vars(fequbit))) == []


def test_every_policy_parameter_defaults_to_the_default_policy():
    # one default spelling: no exported function takes None for "the default policy"
    takers = {}
    for name, obj in public_surface().items():
        if not callable(obj) or inspect.isclass(obj):
            continue
        for param in inspect.signature(obj).parameters.values():
            if "TruncationPolicy" in str(param.annotation):
                takers[f"{name}({param.name})"] = param.default
    assert {"apply_pinem(policy)", "basis_state(window)", "reconstruct_state(window)"} <= set(takers)
    assert [name for name, default in takers.items() if default is not DEFAULT_POLICY] == []
