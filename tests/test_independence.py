"""The two routes stay independent: the normal form takes from the
semantics module only its tolerance, its matrix comparison and its wire
cap, and the semantics module takes nothing from the normal form."""

import ast
from pathlib import Path

import zxel

SRC = Path(zxel.__file__).parent


def _imported(source: str) -> set[str]:
    """Every name a zxel module's source imports, as a dotted path:
    relative imports resolved within zxel, a ``from`` import as its
    module and name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "zxel" + (f".{base}" if base else "")
            out |= {f"{base}.{alias.name}" for alias in node.names}
    return out


def _from(module: str, target: str) -> set[str]:
    """What ``zxel.<module>`` imports of ``zxel.<target>``."""
    names = _imported((SRC / f"{module}.py").read_text())
    return {n for n in names
            if n == f"zxel.{target}" or n.startswith(f"zxel.{target}.")}


def test_import_reader_sees_every_form():
    for source, name in [
            ("import zxel.normalform", "zxel.normalform"),
            ("from . import normalform as nf", "zxel.normalform"),
            ("from .normalform import normalize", "zxel.normalform.normalize"),
            ("from zxel.normalform import NormalForm",
             "zxel.normalform.NormalForm"),
            ("def f():\n    from .normalform import nf_tensor",
             "zxel.normalform.nf_tensor")]:
        assert _imported(source) == {name}, source


def test_semantics_imports_nothing_from_normalform():
    assert _from("semantics", "normalform") == set()


def test_normalform_takes_three_names_from_semantics():
    assert _from("normalform", "semantics") == {
        "zxel.semantics.DEFAULT_TOL", "zxel.semantics.matrices_equal",
        "zxel.semantics.wire_cap"}
