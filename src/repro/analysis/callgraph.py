"""Per-module fact extraction and the package-wide call graph.

The interprocedural pass (see :mod:`repro.analysis.dataflow`) works on
a distilled record of each module, not on its AST: each module is
reduced once into a :class:`ModuleFacts` record — its import map, its
module-level names, and one :class:`FunctionFacts` per function/method:

* the parameter list (with bound-ish annotations noted),
* every assignment, as ``targets <- atoms`` where an *atom* is either
  the syntactic-taint seed (the expression reads ``.lo``/``.hi`` or a
  bound-named variable), a name reference, or a call reference,
* every ``return`` expression, as an atom set,
* every call site, as an unresolved descriptor plus per-argument atoms.

Atoms are collected by :func:`~repro.analysis.rules.taint_walk`, the
walker every taint query shares: it does not descend into array
metadata (``x.shape``, ``.ndim``, ``.size``, ``.dtype``,
``.itemsize``, ``len(x)``), so a count derived from a bound array is
not a bound.

Every ``repro check`` run extracts the facts afresh from the source it
is given; they are never stored. Call descriptors stay *unresolved* in
the facts; the :class:`ProgramIndex` resolves them against the whole
universe of modules (imports, same-module functions, unique method
names) when the fixpoint runs — resolution depends on other files,
extraction does not.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .rules import BOUND_NAME_RE, taint_walk

__all__ = [
    "CallSite",
    "FunctionFacts",
    "ModuleFacts",
    "ProgramIndex",
    "extract_module_facts",
    "module_name_for_path",
]

SEED = "seed"


def _atom_name(name: str) -> str:
    return f"name:{name}"


def _atom_call(index: int) -> str:
    return f"call:{index}"


@dataclass
class CallSite:
    """One unresolved call: ``kind`` + name parts + per-argument atoms."""

    #: "name" (``f(...)``), "attr" (``mod.f(...)``), "self"
    #: (``self.m(...)``), or "method" (``obj.m(...)``).
    kind: str
    parts: tuple[str, ...]
    #: Atom sets per positional argument, in order.
    args: tuple[tuple[str, ...], ...]
    #: (keyword-name, atoms) pairs for keyword arguments.
    kwargs: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: Name of the enclosing class, for resolving ``self.m`` calls.
    enclosing_class: str | None = None


@dataclass
class FunctionFacts:
    """The dataflow-relevant skeleton of one function."""

    qualname: str
    params: tuple[str, ...]
    #: Params whose name or annotation matches the bound convention.
    seeded_params: tuple[str, ...]
    #: The return annotation names a bound by convention.
    returns_annotation_bound: bool
    #: Some return expression is syntactically bound-tainted.
    syntactic_return_bound: bool
    #: ``(targets, atoms)`` in source order.
    assigns: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    #: Atom sets of the return expressions.
    returns: tuple[tuple[str, ...], ...]
    calls: tuple[CallSite, ...]


@dataclass
class ModuleFacts:
    """Everything the whole-program passes need from one module."""

    path: str
    module: str
    #: local name -> dotted import target (``np`` -> ``numpy``).
    imports: dict[str, str] = field(default_factory=dict)
    #: Names assigned at module top level.
    module_names: tuple[str, ...] = ()
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    #: class name -> tuple of method names.
    classes: dict[str, tuple[str, ...]] = field(default_factory=dict)


def module_name_for_path(path: str | Path) -> str:
    """Dotted module name for a file (``src/repro/core/reach.py`` ->
    ``repro.core.reach``). Falls back to the path-derived chain for
    files outside a ``src`` root (fixtures, tests)."""
    parts = list(Path(path).with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _annotation_is_bound(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name) and BOUND_NAME_RE.search(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and BOUND_NAME_RE.search(sub.attr):
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if BOUND_NAME_RE.search(sub.value):
                return True
    return False


def _expr_atoms(node: ast.expr, call_index: dict[int, int]) -> tuple[str, ...]:
    """Distill an expression into atoms (seed / names / call refs), in
    one walk."""
    atoms: set[str] = set()
    for sub in taint_walk(node):
        if isinstance(sub, ast.Name):
            atoms.add(_atom_name(sub.id))
            if BOUND_NAME_RE.search(sub.id):
                atoms.add(SEED)
        elif isinstance(sub, ast.Attribute):
            if BOUND_NAME_RE.search(sub.attr):
                atoms.add(SEED)
        elif isinstance(sub, ast.Call):
            idx = call_index.get(id(sub))
            if idx is not None:
                atoms.add(_atom_call(idx))
    return tuple(sorted(atoms))


#: Method names so common on builtins (str/list/dict/set/file) that a
#: bare ``obj.name(...)`` must never resolve through the unique-method
#: index — the odds it means *our* method are negligible, and a false
#: resolution turns ``", ".join(...)`` into an interprocedural edge.
COMMON_METHODS = frozenset(
    {
        "join", "split", "rsplit", "strip", "lstrip", "rstrip", "format",
        "startswith", "endswith", "replace", "encode", "decode", "upper",
        "lower", "title", "append", "extend", "insert", "remove", "pop",
        "clear", "sort", "reverse", "index", "count", "get", "items",
        "keys", "values", "setdefault", "update", "add", "discard",
        "copy", "read", "readline", "readlines", "write", "writelines",
        "close", "flush", "seek", "tell", "open", "mkdir", "exists",
        "put", "send", "recv", "start", "run", "cancel", "set",
    }
)


def _call_descriptor(
    node: ast.Call, enclosing_class: str | None
) -> tuple[str, tuple[str, ...]] | None:
    func = node.func
    if isinstance(func, ast.Name):
        return "name", (func.id,)
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Constant):
            return None  # literal receiver: always a builtin method
        if isinstance(value, ast.Name):
            if value.id == "self":
                return "self", (func.attr,)
            return "attr", (value.id, func.attr)
        return "method", (func.attr,)
    return None


class _FunctionExtractor(ast.NodeVisitor):
    """Collects assigns/returns/calls within one function body,
    *excluding* nested function bodies (those get their own facts)."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 enclosing_class: str | None) -> None:
        self.func = func
        self.enclosing_class = enclosing_class
        self.assigns: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
        self.returns: list[tuple[str, ...]] = []
        self.calls: list[CallSite] = []
        self.syntactic_return_bound = False
        self._call_index: dict[int, int] = {}
        # Pre-pass: number every call site so atoms can reference them.
        # Nested functions are not entered: they get their own facts.
        todo: deque[ast.AST] = deque(func.body)
        while todo:
            sub = todo.popleft()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            todo.extend(ast.iter_child_nodes(sub))
            if not isinstance(sub, ast.Call):
                continue
            desc = _call_descriptor(sub, enclosing_class)
            if desc is None:
                continue
            self._call_index[id(sub)] = len(self.calls)
            kind, parts = desc
            self.calls.append(CallSite(
                kind=kind,
                parts=parts,
                args=tuple(_expr_atoms(a, {}) for a in sub.args),
                kwargs=tuple(
                    (kw.arg, _expr_atoms(kw.value, {}))
                    for kw in sub.keywords
                    if kw.arg is not None
                ),
                enclosing_class=enclosing_class,
            ))
        for stmt in func.body:
            self.visit(stmt)

    # Nested functions are separate facts; don't descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def _record_assign(self, targets: list[ast.expr], value: ast.expr | None) -> None:
        if value is None:
            return
        names: list[str] = []
        for target in targets:
            for element in self._flatten(target):
                if isinstance(element, ast.Name):
                    names.append(element.id)
        if names:
            self.assigns.append(
                (tuple(names), _expr_atoms(value, self._call_index))
            )

    @staticmethod
    def _flatten(target: ast.expr) -> Iterator[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from _FunctionExtractor._flatten(element)
        else:
            yield target

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_assign([node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_assign([node.target], node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._record_loop_target(node.target, node.iter)
        self.generic_visit(node)

    def _record_loop_target(self, target: ast.expr, iterable: ast.expr) -> None:
        """Bind a loop target to what it iterates over. A tuple target
        over ``zip(a, b, ...)`` with as many positional, non-starred
        arguments pairs element i with argument i, and over
        ``enumerate(x)`` gives the index no atoms; any other target takes
        the atoms of the whole iterable."""
        if isinstance(target, (ast.Tuple, ast.List)) and isinstance(iterable, ast.Call):
            func = iterable.func
            name = func.id if isinstance(func, ast.Name) else None
            args = iterable.args
            plain = not any(isinstance(a, ast.Starred) for a in args)
            if name == "zip" and plain and len(args) == len(target.elts):
                for element, arg in zip(target.elts, args):
                    self._record_loop_target(element, arg)
                return
            if name == "enumerate" and plain and len(args) == 1 and len(target.elts) == 2:
                self._record_loop_target(target.elts[1], args[0])
                return
        self._record_assign([target], iterable)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            atoms = _expr_atoms(node.value, self._call_index)
            self.returns.append(atoms)
            if SEED in atoms:
                self.syntactic_return_bound = True
        self.generic_visit(node)


def _param_names(args: ast.arguments) -> tuple[ast.arg, ...]:
    return tuple(args.posonlyargs + args.args + args.kwonlyargs)


def extract_module_facts(tree: ast.Module, path: str) -> ModuleFacts:
    """One pass over a parsed module -> its facts."""
    facts = ModuleFacts(path=path, module=module_name_for_path(path))
    module_names: list[str] = []

    def walk_scope(body: list[ast.stmt], scope: tuple[str, ...],
                   enclosing_class: str | None) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(scope + (stmt.name,))
                params = _param_names(stmt.args)
                seeded = tuple(
                    a.arg for a in params
                    if BOUND_NAME_RE.search(a.arg)
                    or _annotation_is_bound(a.annotation)
                )
                extractor = _FunctionExtractor(stmt, enclosing_class)
                facts.functions[qualname] = FunctionFacts(
                    qualname=qualname,
                    params=tuple(a.arg for a in params),
                    seeded_params=seeded,
                    returns_annotation_bound=_annotation_is_bound(stmt.returns),
                    syntactic_return_bound=extractor.syntactic_return_bound,
                    assigns=tuple(extractor.assigns),
                    returns=tuple(extractor.returns),
                    calls=tuple(extractor.calls),
                )
                # Nested named functions become their own facts records.
                walk_scope(stmt.body, scope + (stmt.name,), enclosing_class)
            elif isinstance(stmt, ast.ClassDef):
                walk_scope(stmt.body, scope + (stmt.name,), stmt.name)
                methods = tuple(
                    sub.name for sub in stmt.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
                facts.classes[stmt.name] = methods
            elif not scope and isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    for element in _FunctionExtractor._flatten(target):
                        if isinstance(element, ast.Name):
                            module_names.append(element.id)
            elif not scope and isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    facts.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif not scope and isinstance(stmt, ast.ImportFrom):
                base = stmt.module or ""
                if stmt.level:
                    pkg = facts.module.split(".")
                    # one level strips the module name itself, further
                    # levels strip enclosing packages.
                    pkg = pkg[: len(pkg) - stmt.level]
                    base = ".".join(pkg + ([stmt.module] if stmt.module else []))
                for alias in stmt.names:
                    target = f"{base}.{alias.name}" if base else alias.name
                    facts.imports[alias.asname or alias.name] = target

    walk_scope(tree.body, (), None)
    facts.module_names = tuple(dict.fromkeys(module_names))
    return facts


class ProgramIndex:
    """Resolution of call descriptors against the whole module universe."""

    def __init__(self, modules: dict[str, ModuleFacts]) -> None:
        #: path -> facts
        self.modules = modules
        self.by_module: dict[str, ModuleFacts] = {
            facts.module: facts for facts in modules.values()
        }
        #: function key ("<module>.<qualname>") -> (facts, function)
        self.functions: dict[str, tuple[ModuleFacts, FunctionFacts]] = {}
        #: method name -> keys of every class method with that name
        self.methods: dict[str, list[str]] = {}
        for facts in modules.values():
            for qualname, fn in facts.functions.items():
                key = f"{facts.module}.{qualname}"
                self.functions[key] = (facts, fn)
            for cls_name, methods in facts.classes.items():
                for method in methods:
                    key = f"{facts.module}.{cls_name}.{method}"
                    self.methods.setdefault(method, []).append(key)

    def resolve(self, module: ModuleFacts, kind: str,
                parts: tuple[str, ...],
                enclosing_class: str | None = None) -> str | None:
        """Resolve one call descriptor to a function key (or None)."""
        if kind == "name":
            name = parts[0]
            key = f"{module.module}.{name}"
            if key in self.functions:
                return key
            target = module.imports.get(name)
            if target and target in self.functions:
                return target
            return None
        if kind == "self":
            if enclosing_class is not None:
                key = f"{module.module}.{enclosing_class}.{parts[0]}"
                if key in self.functions:
                    return key
            return self._unique_method(parts[0])
        if kind == "attr":
            root, attr = parts
            target = module.imports.get(root)
            if target is not None:
                direct = f"{target}.{attr}"
                if direct in self.functions:
                    return direct
                # The root names an import we can't see into (numpy,
                # stdlib): this is an external call, not one of ours.
                return None
            return self._unique_method(attr)
        if kind == "method":
            return self._unique_method(parts[0])
        return None

    def resolve_call(self, module: ModuleFacts, node: ast.Call,
                     enclosing_class: str | None = None) -> str | None:
        """Resolve a live AST call node (used by the rule pass)."""
        desc = _call_descriptor(node, enclosing_class)
        if desc is None:
            return None
        kind, parts = desc
        return self.resolve(module, kind, parts, enclosing_class)

    def _unique_method(self, name: str) -> str | None:
        if name in COMMON_METHODS:
            return None
        keys = self.methods.get(name)
        if keys is not None and len(keys) == 1:
            return keys[0]
        return None
