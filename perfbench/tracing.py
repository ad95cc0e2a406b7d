"""Layer spans recorded from outside the program.

Each traced function is wrapped once, and the wrapper is installed where
callers look the name up, never inside the function's own module:

- each module's `tm`/`eng`/`tr`/`ps`/`sd`/`gd` alias is swapped for a proxy
  module whose traced names are the wrappers, so self-recursive kernel
  functions (`beta_normalize`, `subst1`, `alpha_eq`, ...) recurse
  through their own module's globals and stay untraced;
- module globals are patched only for non-recursive names
  (`trees.atom_to_tree`) and for names a module binds with
  `from .x import ...` (`trees.snapshot`, `engine.classify`, ...).

`engine.unify` is the one exception: only `engine` calls it, and it calls
itself through the same global, so its wrapper passes straight through
when the innermost open span is already `engine.unify`.

A span is (name, start, end, parent span, operation id; operation 0 is
the set-up); spans are kept in memory and written out by `write`. Self
time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import time
import types
from array import array

from cup import engine, formulas, guardedness, parser, soundness, terms, trees

# traced functions, by layer; the layer is the module's name
TRACED = {
    "parser": ("parse_program", "parse_goal", "export_proof", "import_proof"),
    "engine": ("coprove", "prove", "check", "unify", "unify_modulo"),
    "terms": ("beta_normalize", "subst1", "is_first_order", "typecheck", "has_fix",
              "fair_unfold", "alpha_eq", "fixbeta_equiv"),
    "guardedness": ("is_guarded_atom", "snapshot"),
    "formulas": ("classify", "formula_alpha_eq"),
    "trees": ("gfp_approx", "universe_terms", "atom_to_tree", "member_of_model", "justify"),
    "soundness": ("audit_proof", "build_candidate", "merge_with_model", "verify_postfixed"),
}
MODULES = {"parser": parser, "engine": engine, "terms": terms, "guardedness": guardedness,
           "formulas": formulas, "trees": trees, "soundness": soundness}
ALIASES = {"tm": "terms", "eng": "engine", "tr": "trees", "ps": "parser", "sd": "soundness",
           "gd": "guardedness"}
# (module, global name, traced function) for the non-recursive and
# from-imported names
GLOBALS = (
    (engine, "unify", "engine.unify"),
    (engine, "unify_modulo", "engine.unify_modulo"),
    (engine, "classify", "formulas.classify"),
    (engine, "formula_alpha_eq", "formulas.formula_alpha_eq"),
    (trees, "atom_to_tree", "trees.atom_to_tree"),
    (trees, "universe_terms", "trees.universe_terms"),
    (trees, "snapshot", "guardedness.snapshot"),
    (trees, "is_guarded_atom", "guardedness.is_guarded_atom"),
    (soundness, "build_candidate", "soundness.build_candidate"),
    (soundness, "merge_with_model", "soundness.merge_with_model"),
    (soundness, "verify_postfixed", "soundness.verify_postfixed"),
    (soundness, "formula_alpha_eq", "formulas.formula_alpha_eq"),
)
SELF_RECURSIVE_GLOBALS = {"engine.unify"}


def _count(name, measure):
    def observe(tracer, args, result):
        tracer.counters[name] += measure(args, result)
    return observe


OBSERVERS = {
    "engine.coprove": _count("engine.search_nodes", lambda a, r: r.stats.nodes),
    "engine.prove": _count("engine.search_nodes", lambda a, r: r.stats.nodes),
    "engine.check": _count("engine.check_nodes", lambda a, r: a[0].size()),
    "engine.unify_modulo": _count("engine.unify_modulo.matches", lambda a, r: r is not None),
    "trees.gfp_approx": _count("trees.gfp_atoms", lambda a, r: len(r.atoms)),
    "soundness.build_candidate": _count("soundness.candidate_atoms", lambda a, r: len(r.interpretation.atoms)),
    "soundness.merge_with_model": _count("soundness.merged_atoms", lambda a, r: len(r.atoms)),
}
COUNTERS = ("engine.search_nodes", "engine.check_nodes", "engine.unify_modulo.matches",
            "trees.gfp_atoms", "soundness.candidate_atoms", "soundness.merged_atoms")


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        n = len(self.names)
        self.calls = [0] * n
        self.ok = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.counters = {c: 0 for c in COUNTERS}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[list] = []  # [name index, span index, child seconds]
        self.op = 0
        self.wrappers = {name: self._wrap(k, name) for k, name in enumerate(self.names)}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, k: int, name: str):
        layer, fn_name = name.split(".", 1)
        fn = getattr(MODULES[layer], fn_name)
        observe = OBSERVERS.get(name)
        recursive = name in SELF_RECURSIVE_GLOBALS
        stack, calls, ok, self_s, total_s = self.stack, self.calls, self.ok, self.self_s, self.total_s
        names, starts, ends, parents, ops = (self.span_name, self.span_start, self.span_end,
                                             self.span_parent, self.span_op)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if recursive and stack and stack[-1][0] == k:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(k)
            parents.append(stack[-1][1] if stack else -1)
            ops.append(self.op)
            frame = [k, idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                calls[k] += 1
                total_s[k] += dur
                self_s[k] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            ok[k] += 1
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _proxy(self, layer: str) -> types.ModuleType:
        module = MODULES[layer]
        proxy = types.ModuleType(module.__name__)
        proxy.__dict__.update(module.__dict__)
        for fn_name in TRACED[layer]:
            setattr(proxy, fn_name, self.wrappers[f"{layer}.{fn_name}"])
        return proxy

    def _set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, *callers: types.ModuleType) -> None:
        """Swap the aliases of the package modules and of `callers` (the
        benchmark's own modules) for proxies, and patch the globals."""
        proxies = {layer: self._proxy(layer) for layer in set(ALIASES.values())}
        for module in (*MODULES.values(), *callers):
            for alias, layer in ALIASES.items():
                if getattr(module, alias, None) is MODULES[layer]:
                    self._set(module, alias, proxies[layer])
        for module, attr, name in GLOBALS:
            self._set(module, attr, self.wrappers[name])

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[k], "count")
            out[f"{name}.self_s"] = (self.self_s[k], "s")
        c = self.counters
        total = dict(zip(self.names, self.total_s))
        calls = dict(zip(self.names, self.calls))
        ok = dict(zip(self.names, self.ok))
        search_s = total["engine.coprove"] + total["engine.prove"]
        out["engine.search_nodes"] = (c["engine.search_nodes"], "count")
        out["engine.check_nodes"] = (c["engine.check_nodes"], "count")
        out["engine.check_per_search"] = (total["engine.check"] / search_s if search_s else 0.0, "ratio")
        n = calls["engine.unify_modulo"]
        out["engine.unify_modulo.match_ratio"] = (c["engine.unify_modulo.matches"] / n if n else 0.0, "ratio")
        out["trees.gfp_atoms"] = (c["trees.gfp_atoms"], "count")
        n = calls["trees.atom_to_tree"]
        out["trees.atom_to_tree.ok_ratio"] = (ok["trees.atom_to_tree"] / n if n else 0.0, "ratio")
        out["soundness.candidate_atoms"] = (c["soundness.candidate_atoms"], "count")
        out["soundness.merged_atoms"] = (c["soundness.merged_atoms"], "count")
        return out

    def write(self, path) -> int:
        """Write the spans as gzip'd tab-separated lines (id, name, start,
        end, parent id or -1, operation id; times in seconds from the first
        span); returns how many."""
        base = self.span_start[0] if self.span_start else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i, (k, t0, t1, parent, op) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)):
                fh.write(f"{i}\t{names[k]}\t{t0 - base:.7f}\t{t1 - base:.7f}\t{parent}\t{op}\n")
        return len(self.span_start)
