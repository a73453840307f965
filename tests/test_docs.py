"""README's module map names the public surface: every name the package
exports, and every public top-level function or class of ``src/zxel``
that nothing in ``src/zxel`` refers to, so that API only tests call is
either documented with its reason or deleted."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zxel"


def _module_map_words() -> set[str]:
    """Every identifier inside backticks in README's module map."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    return {word for span in re.findall(r"`([^`]*)`", section)
            for word in re.findall(r"\w+", span)}


def _lazy_exports(tree: ast.Module) -> list[str]:
    """The names the package resolves on first use: the string tuple
    ``_RULES_EXPORTS`` that its module ``__getattr__`` reads."""
    [node] = [node for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets]
              == ["_RULES_EXPORTS"]]
    return list(ast.literal_eval(node.value))


def test_module_map_names_the_public_surface():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    mapped = _module_map_words()
    exported = [alias.asname or alias.name
                for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    exported += _lazy_exports(trees["__init__.py"])
    assert [name for name in exported if name not in mapped] == []
    # a plain import binds a module, which is public surface only if it
    # is one of the package's own
    submodules = {p.stem for p in SRC.glob("*.py")}
    imported = [(alias.asname or alias.name).split(".")[0]
                for node in trees["__init__.py"].body
                if isinstance(node, ast.Import) for alias in node.names]
    assert [name for name in imported if not name.startswith("_")
            and name not in submodules] == []
    # names read anywhere in src/: a call, a reference, an attribute, or
    # an import by a module other than the package's (which may rename)
    read = {getattr(node, "id", None) or getattr(node, "attr", None)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    read |= {alias.name for module, tree in trees.items()
             if module != "__init__.py" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = [f"{module}:{node.name}"
              for module, tree in sorted(trees.items()) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith(("_", "cmd_"))
              and node.name not in read]
    assert [name for name in unread
            if name.split(":")[1] not in mapped] == []
