"""Each public name of ``fequbit`` has a caller outside the tests, or a reason.

The names are the ones ``fequbit/__init__.py`` exports and the public
methods, properties and class attributes of the classes among them
(dataclass fields are data, not calls). A name counts as called when code in
``src/fequbit`` other than ``__init__.py``, or in ``perfbench/``, reads it:
as a name or an attribute (an assignment, such as a class attribute's own
definition, does not count), or as the last part of a dotted string such as
perfbench's traced paths (``"LadderState.trimmed"``). Spelling is all the
check reads, so a homonym keeps a name alive; it never flags a live one.

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

ROOT = Path(__file__).resolve().parents[1]

KEPT = {
    "unparse": "the one writer of the gate DSL that parse_circuit reads",
    "euler_xyx": "the XYX angles of any target, without building a schedule",
    "gate_fidelity": "the score a compiled or simulated gate is compared with its target by",
    "Gate.target_matrix": "the matrix a compiled schedule should realize",
    "QubitState.as_vector": "the form a 2x2 gate is applied to",
    "Spectrogram.from_csv": "reads back the spectrogram.csv that fequbit tomography writes",
}

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
