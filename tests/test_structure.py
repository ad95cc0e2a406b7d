"""Structure checks on the package source.

No module of `cup` uses another module's private names, either as
`from .x import _y` or as `alias._y` on a `cup` module alias. The known
exceptions are listed with the ROADMAP item that removes each.
"""

import ast
from pathlib import Path

import cup

SRC = Path(cup.__file__).parent

KNOWN = {
    # ROADMAP item 5: the parser's clause grammar check goes public
    ("parser", "formulas", "_clause_in"),
    # ROADMAP item 3: one lazy renderer for guarded terms replaces both
    ("soundness", "guardedness", "_snap_term"),
    ("soundness", "trees", "_diamond_min_depth"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _target(node: ast.ImportFrom, alias: str) -> str:
    """The cup module an import names, or '' when it is not one."""
    mod = node.module or ""
    if node.level == 0:
        if mod == "cup":
            return alias
        return mod[len("cup."):] if mod.startswith("cup.") else ""
    return mod or alias


def cross_module_private_uses() -> set[tuple[str, str, str]]:
    uses = set()
    for path in sorted(SRC.glob("*.py")):
        here = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for a in node.names:
                    target = _target(node, a.name)
                    if not target:
                        continue
                    if node.module in (None, "cup"):
                        # `from . import terms as tm`: a module alias
                        aliases[a.asname or a.name] = a.name
                    elif _private(a.name) and target != here:
                        uses.add((here, target, a.name))
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("cup.") and a.asname:
                        aliases[a.asname] = a.name.split(".", 1)[1]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and _private(node.attr)):
                target = aliases[node.value.id]
                if target != here:
                    uses.add((here, target, node.attr))
    return uses


def test_no_cross_module_private_use_beyond_the_known():
    # equality, not inclusion: a removed use must leave the list too
    assert cross_module_private_uses() == KNOWN


def test_scanner_sees_both_forms(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text("from .b import _hidden\nfrom . import c as cc\nx = cc._inner\ny = cc.public\n")
    (tmp_path / "b.py").write_text("from . import b as self_alias\nz = self_alias._own\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert cross_module_private_uses() == {("a", "b", "_hidden"), ("a", "c", "_inner")}
