"""Structure checks on the package source.

No module of `cup` uses another module's private names, either as
`from .x import _y` or as `alias._y` on a `cup` module alias. Every
module-level function, class and assigned name is mentioned somewhere in
`cup` other than in its own statement and the package's re-exports, and
every public method of a module-level class is mentioned as an attribute
outside its own body, apart from the listed names kept for tests. No
handler in `cup` catches every exception, so only `CupError` subclasses
become verdicts and any other exception surfaces; `cli.main` catches only
`CupError` subclasses, and every file an option names is opened in the
CLI's one file helper. No function in `cup` mutates a module-level dict,
set or list: a memo lives on an object (`Signature`, `Program`), never in a global.
Every record is slotted: it carries no `__dict__` of its own. Every name
the package exports resolves on first use, and starting the CLI loads
neither `dataclasses` nor the layers only `model` and `soundness` run.
Only `engine._solve` counts a search node, and no `raise` in `cup`
names `CupError` itself rather than a subclass.
"""

import ast
import collections
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cup
from cup import errors
from cup.errors import CupError

SRC = Path(cup.__file__).parent

KNOWN: set[tuple[str, str, str]] = set()

KEPT = {
    # the paper's immediate consequence operator T; the property budget checks
    # it is monotone and the gfp tests check I <= T(I) through it
    ("trees", "t_operator"),
    # the paper's tree metric; the acceptance gate and the property budget
    # check that snapshots converge in it and that it is an ultrametric
    ("trees", "distance"),
    # one fix-beta step, the paper's unfolding rule; the property budget checks
    # that it preserves types
    ("terms", "fixbeta_unfold"),
    # the paper's conservative-extension check for lemma instances, part of
    # the acceptance gate
    ("soundness", "conservative_extension_check"),
    # a fixed-point definition by name; the acceptance gate reads the
    # corpus definitions through it
    ("formulas", "Program.fix_def"),
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


def _own_names(stmt) -> set[str]:
    """The names a module-level statement defines: a def's or class's name,
    or the plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _public_methods(stmt) -> list:
    """The defs in a class statement's body whose names take no underscore."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [m for m in stmt.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and m.name[0] != "_"]


def unreferenced_definitions() -> set[tuple[str, str]]:
    """(module, name) of every module-level def, class or assigned name
    that no name, attribute or import alias in `cup` mentions outside its
    own statement, and (module, "Class.method") of every public method of
    a module-level class that no attribute in `cup` mentions outside the
    method's own body; a re-export in `__init__.py` is not a use."""
    defined = set()
    mentioned = set()
    methods = []  # (module, class name, def statement)
    attributes = collections.defaultdict(list)  # the attribute nodes of each name
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _own_names(stmt)
            defined |= {(path.stem, name) for name in own}
            methods += [(path.stem, stmt.name, m) for m in _public_methods(stmt)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                    attributes[name].append(node)
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:
                    mentioned.add(name)
    unused = {(mod, name) for mod, name in defined if name not in mentioned}
    for mod, cls, method in methods:
        body = set(map(id, ast.walk(method)))
        if all(id(node) in body for node in attributes[method.name]):
            unused.add((mod, f"{cls}.{method.name}"))
    return unused


def test_every_definition_is_used_beyond_the_kept():
    # equality, not inclusion: a helper that gains a caller must leave the list
    assert unreferenced_definitions() == KEPT


def test_definition_scanner_sees_each_kind_of_mention(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text(
        "import b\nfrom .c import by_import\n"
        "def by_name(): pass\ndef by_attribute(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Unused: pass\n"
        "x = by_name, b.by_attribute\n"
        "TABLE = {1: 2}\nSELF: dict = {'k': SELF}\nPAIR, COUNT = (), len(TABLE)\n"
    )
    (tmp_path / "c.py").write_text("def by_import(): pass\ndef only_reexported(): pass\n")
    (tmp_path / "__init__.py").write_text("from .c import only_reexported\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert unreferenced_definitions() == {
        ("a", "recursive"), ("a", "Unused"), ("a", "x"), ("a", "SELF"), ("a", "PAIR"), ("a", "COUNT"),
        ("c", "only_reexported"),
    }


def test_definition_scanner_sees_each_mention_of_a_method(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text(
        "class K:\n"
        "    def by_attribute(self): return 0\n"
        "    def recursive(self): return self.recursive()\n"
        "    @property\n    def prop(self): return 1\n"
        "    def by_name_only(self): pass\n"
        "    def _private(self): pass\n"
        "    def __repr__(self): return ''\n"
        "X = K().by_attribute(), K.prop\n"
        "def f(by_name_only): return by_name_only\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import f, X\n"
        "class L:\n    def in_another_module(self): pass\n    def unused(self): pass\n"
        "class M(L):\n    def walk(self): return self.in_another_module()\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert unreferenced_definitions() == {
        ("a", "K.recursive"), ("a", "K.by_name_only"), ("b", "L.unused"), ("b", "M"), ("b", "M.walk"),
    }


BROAD = {"Exception", "BaseException"}


def _caught(handler: ast.ExceptHandler) -> list:
    """The exceptions a handler names, one per name in a tuple; none for a
    bare `except:`."""
    if handler.type is None:
        return []
    return handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]


def broad_handlers() -> set[tuple[str, int]]:
    """(module, line) of every bare `except:` and every handler that names
    `Exception` or `BaseException`, alone or in a tuple."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None or any(isinstance(c, ast.Name) and c.id in BROAD for c in _caught(node)):
                out.add((path.stem, node.lineno))
    return out


def test_no_handler_catches_everything():
    assert broad_handlers() == set()


def test_broad_handler_scanner_sees_each_form(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text(
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, BaseException) as e:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert broad_handlers() == {("a", 3), ("a", 7), ("a", 11)}


def handled_in(module: str, function: str) -> list[str]:
    """The source text of each exception a handler in the module-level
    function catches, one per name in a tuple, '' for a bare `except:`."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    (func,) = [s for s in tree.body if isinstance(s, ast.FunctionDef) and s.name == function]
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.ExceptHandler):
            out += [ast.unparse(c) for c in _caught(node)] or [""]
    return out


def test_the_cli_turns_only_cup_errors_into_exit_codes():
    names = handled_in("cli", "main")
    classes = [getattr(errors, n, None) for n in names]
    assert names and all(isinstance(c, type) and issubclass(c, CupError) for c in classes), names


def test_handler_scanner_sees_each_form(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text(
        "def main():\n"
        "    try:\n        pass\n    except ParseError:\n        pass\n"
        "    except (CupError, json.JSONDecodeError) as e:\n        pass\n"
        "    except:\n        pass\n"
        "def other():\n    try:\n        pass\n    except OSError:\n        pass\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert handled_in("a", "main") == ["ParseError", "CupError", "json.JSONDecodeError", ""]


def sites(match) -> list[tuple[str, str]]:
    """(module, function) of every syntax node in `cup` that match accepts,
    in source order, by the innermost function around it, '' at module
    level."""
    out = []

    def visit(node, module: str, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if match(child):
                out.append((module, where))
            visit(child, module, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return out


def calls_of(callee: str) -> set[tuple[str, str]]:
    """The sites of every call of callee in `cup`, a name such as `open` or
    a dotted attribute such as `sys.setrecursionlimit`, as written."""
    return set(sites(lambda n: isinstance(n, ast.Call) and ast.unparse(n.func) == callee))


def writes_of(attribute: str) -> list[tuple[str, str]]:
    """The site of each write, plain or augmented, to an attribute of that
    name, once per write."""
    return sites(lambda n: isinstance(n, ast.Attribute) and n.attr == attribute and isinstance(n.ctx, ast.Store))


def test_files_are_opened_only_in_the_cli_file_helper():
    assert calls_of("open") == {("cli", "_file")}


def test_no_site_sets_the_recursion_limit():
    # proof documents are flat and proof trees are walked on stacks, so no
    # step's stack grows with a proof's depth
    assert calls_of("sys.setrecursionlimit") == set()


def test_open_scanner_sees_each_place(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text(
        "TEXT = open('x').read()\n"
        "def outer():\n    def inner():\n        return open('y')\n    return [open(p) for p in 'z']\n"
        "def descriptor():\n    return os.open('w', 0), path.open()\n"
        "sys.setrecursionlimit(2000)\n"
        "def window():\n    return [sys.setrecursionlimit(n) for n in (1, 2)], setrecursionlimit(3)\n"
        "def other():\n    return os.sys.setrecursionlimit(4), sys.getrecursionlimit()\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert calls_of("open") == {("a", ""), ("a", "inner"), ("a", "outer")}
    assert calls_of("sys.setrecursionlimit") == {("a", ""), ("a", "window")}


def test_the_node_count_is_kept_only_by_solve():
    # `nodes_expanded` counts the sequents search expands, and only the
    # step that expands one may count it
    assert writes_of("nodes") == [("engine", "_solve")]


def test_write_scanner_sees_each_form(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text(
        "STATS.nodes = 0\n"
        "def solve(ctx):\n    ctx.stats.nodes += 1\n    return ctx.stats.nodes, ctx.nodes()\n"
        "def outer(a, b):\n    def inner():\n        a.nodes, b.depth = 1, 2\n    b.max_depth = 3\n"
        "def annotated(c):\n    c.nodes: int = 4\n    del c.nodes\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert writes_of("nodes") == [("a", ""), ("a", "solve"), ("a", "inner"), ("a", "annotated")]


def bare_cup_errors() -> list[tuple[str, str]]:
    """The site of each `raise` of `CupError` itself, called or not, rather
    than of a named subclass."""
    def match(node) -> bool:
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return ast.unparse(exc).split(".")[-1] == "CupError"

    return sites(match)


def test_every_raise_names_a_subclass_of_cup_error():
    # a verdict or an exit code says which error it is
    assert bare_cup_errors() == []


def test_raise_scanner_sees_each_form(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text(
        "def f():\n    raise CupError('x')\n"
        "def g():\n    raise errors.CupError\n"
        "def h():\n    raise UsageError('y') from CupError('z')\n"
        "def i():\n    try:\n        pass\n    except CupError:\n        raise\n"
        "raise CupErrorish()\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert bare_cup_errors() == [("a", "f"), ("a", "g")]


CONTAINERS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
CONTAINER_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict", "Counter"}
MUTATORS = {"add", "append", "update", "setdefault", "extend", "insert", "pop", "clear", "remove", "discard"}


def _is_container(value) -> bool:
    if isinstance(value, CONTAINERS):
        return True
    func = value.func if isinstance(value, ast.Call) else None
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    return name in CONTAINER_CALLS


def _mutated_names(func) -> set[str]:
    """The global names a function body mutates: a subscript assigned,
    augmented or deleted, or a mutating method called on the name."""
    local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
    declared = set()
    out = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for t in targets:
            if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                out.add(t.value.id)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Name)):
            out.add(node.func.value.id)
    return {n for n in out if n not in local or n in declared}


def mutated_globals() -> set[tuple[str, str]]:
    """(module, name) of every module-level dict, set or list in `cup`
    that a function mutates."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        containers = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None and _is_container(stmt.value):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                containers |= {t.id for t in targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                out |= {(path.stem, n) for n in _mutated_names(node) & containers}
    return out


def test_no_function_mutates_a_module_level_container():
    assert mutated_globals() == set()


def test_mutated_global_scanner_sees_each_form(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text(
        "from collections import defaultdict\n"
        "BY_KEY = {}\nSEEN = set()\nLOG: list = []\nBAGS = defaultdict(list)\nCACHE = dict()\n"
        "READ = {'x': 1}\nSHADOWED = []\nFIXED = (1, 2)\nAT_IMPORT = []\nAT_IMPORT.append(0)\n"
        "def f(k, v):\n    BY_KEY[k] = v\n    SEEN.add(k)\n    LOG.append(v)\n    return READ[k], FIXED[0]\n"
        "def g(k):\n    BAGS.setdefault(k, []).append(k)\n    CACHE.update({k: k})\n"
        "def h(k):\n    SHADOWED = []\n    SHADOWED.append(k)\n    return SHADOWED\n"
    )
    (tmp_path / "b.py").write_text(
        "MEMO = {}\nCOUNT = []\n"
        "def f(MEMO):\n    MEMO['x'] = 1\n"
        "def g():\n    global COUNT\n    COUNT = []\n    COUNT.append(1)\n"
        "h = lambda k: COUNT.extend(k)\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert mutated_globals() == {
        ("a", "BY_KEY"), ("a", "SEEN"), ("a", "LOG"), ("a", "BAGS"), ("a", "CACHE"), ("b", "COUNT"),
    }


def record_classes() -> set[type]:
    """Every class a `cup` module defines that carries `_fields`, which
    `terms.record` sets."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"cup.{path.stem}".removesuffix(".__init__"))
        found.update(v for v in vars(module).values()
                     if isinstance(v, type) and "_fields" in vars(v) and v.__module__ == module.__name__)
    return found


def test_kernel_values_declare_slots_and_have_no_instance_dict():
    classes = record_classes()
    # the scan finds the class behind every `@record` in the source
    decorated = sum(len(re.findall(r"^@(?:tm\.)?record\b", p.read_text(encoding="utf-8"), re.M))
                    for p in SRC.glob("*.py"))
    assert len(classes) == decorated > 0
    for cls in classes:
        assert "__slots__" in vars(cls), cls
        # a layout with no dict: no instance of cls, or of a subclass
        # with slots, has a __dict__
        assert cls.__dictoffset__ == 0, cls


# every name the package exported when `cup/__init__` imported them all,
# by module; each must still come through `from cup import <name>`
EXPORTED = {
    "engine": ("LemmaStore", "ProofTree", "SearchConfig", "SearchOutcome", "Sequent", "check", "coprove",
               "promote_lemma", "prove"),
    "formulas": ("Atom", "Calculus", "Conj", "Disj", "Exists", "Forall", "Formula", "HClause", "Impl", "Program",
                 "Top", "classify", "to_h_clauses"),
    "guardedness": ("GuardReport", "is_guarded_atom", "is_guarded_fixed_point", "snapshot"),
    "parser": ("export_proof", "import_proof", "parse_goal", "parse_program", "parse_term", "pp_formula",
               "pp_term"),
    "soundness": ("DeltaRecord", "audit_proof", "build_candidate", "conservative_extension_check", "verify_postfixed"),
    "terms": ("Signature", "Term", "alpha_eq", "beta_normalize", "fixbeta_equiv", "fixbeta_unfold", "free_vars",
              "is_first_order", "substitute", "subterms", "typecheck", "type_order"),
    "trees": ("InstanceConfig", "Interpretation", "Tree", "atom_to_tree", "distance", "gfp_approx",
              "member_of_model", "t_operator", "term_to_tree", "truncate"),
}


def test_every_exported_name_resolves_to_its_module_s_object():
    for mod, names in EXPORTED.items():
        module = importlib.import_module(f"cup.{mod}")
        for name in names:
            scope: dict = {}
            exec(f"from cup import {name}", scope)
            assert scope[name] is getattr(module, name), (mod, name)
    with pytest.raises(AttributeError, match="^module 'cup' has no attribute 'no_such_name'$"):
        cup.no_such_name


# what starting the CLI must not load: the class builders `cup` no longer
# uses, the corpus lookup, the tree metric's numbers, the annotations'
# names, which are never evaluated, and the layers only `model` and
# `soundness` run
NOT_AT_START = ("dataclasses", "inspect", "importlib.resources", "fractions", "typing", "cup.trees",
                "cup.soundness")


def _loaded_after(code: str) -> set[str]:
    """The modules of NOT_AT_START that a fresh interpreter without `site`
    has loaded after running the code."""
    probe = f"import sys\n{code}\nprint(' '.join(m for m in {NOT_AT_START!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         capture_output=True, text=True, timeout=60, check=True)
    return set(out.stdout.split())


def test_starting_the_cli_loads_only_what_a_subcommand_runs():
    assert _loaded_after("import cup.cli") == set()
    # the positive control: the first use of an exported name loads its
    # module, and a submodule's name, no attribute of the package, imports it
    assert _loaded_after("import cup.cli, cup\ncup.gfp_approx\nfrom cup import soundness") == {
        "cup.trees", "cup.soundness"}
