"""The two-pass whole-program engine behind ``repro check``.

Checking is now whole-program: every file named on the command line is
first distilled into :class:`~repro.analysis.callgraph.ModuleFacts`
(imports, call sites, per-function assignment/return skeletons), the
interprocedural taint fixpoint runs over the whole universe
(:class:`~repro.analysis.dataflow.ProgramTaint`), and only then does
each in-scope file get its rule walk:

* **Pass 1 (soundness, S-rules)** — the classic AST walk, but taint
  queries go through :meth:`Context.tainted`, which ORs the name
  convention with the dataflow result. A bound returned from a
  neutrally-named helper two modules away now trips S001 at the use
  site, and S007/S008 use the summaries directly.
* **Pass 2 (concurrency, C-rules)** — module-level structural checks
  over the fork/thread/signal surface (see
  :mod:`repro.analysis.concurrency`), sharing the same Context, so
  pragmas and baselines behave identically.

The walker still maintains the per-expression context the rules need —
the enclosing statement (pragma scoping), the enclosing function
(zero-guard/constructor checks), the *rounding depth* (arithmetic under
``rounding.up(...)`` is the discipline, not a violation), and now the
enclosing qualified name, which is how taint queries find the right
dataflow summary.

Pragmas (``# sound: ok <reason>``) are collected with ``tokenize`` so a
``#`` inside a string literal cannot fake one. A pragma anywhere on the
physical lines of a statement suppresses matching findings in that whole
statement; unused pragmas and pragmas without a reason are themselves
reported (S000) so the suppression inventory cannot silently rot.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path
from typing import Sequence

from .callgraph import ModuleFacts, ProgramIndex, extract_module_facts
from .concurrency import CONCURRENCY_RULES, collect_concurrency_facts
from .dataflow import ProgramTaint
from .model import CheckError, Finding, Pragma, parse_pragma
from .policy import Policy
from .rules import ALL_CODES, BOUND_NAME_RE, RULES, Rule, is_rounding_call, taint_walk

__all__ = ["ALL_CODES", "Context", "check_paths", "check_source"]

_CONSTRUCTORS = frozenset({"__init__", "__new__", "__setstate__", "__post_init__"})


class Context:
    """What one rule sees while the engine walks one module."""

    def __init__(self, path: str, source_lines: list[str], pragmas: list[Pragma],
                 active_codes: tuple[str, ...],
                 policy: Policy | None = None,
                 program: ProgramTaint | None = None,
                 module_facts: ModuleFacts | None = None) -> None:
        self.path = path
        self._lines = source_lines
        self._pragmas = pragmas
        self._active = set(active_codes)
        self.policy = policy
        self.program = program
        self.module_facts = module_facts
        self.findings: list[Finding] = []
        self.rounding_depth = 0
        #: Names imported from math/numpy (``from math import sin``).
        self.numeric_imports: set[str] = set()
        self._stmt_stack: list[ast.stmt] = []
        self._func_stack: list[ast.AST] = []
        self._scope_names: list[tuple[str, str]] = []
        self._class_depth = 0
        self._covered: set[tuple[str, int]] = set()

    # -- structural queries -------------------------------------------------

    @property
    def current_function(self) -> ast.AST | None:
        return self._func_stack[-1] if self._func_stack else None

    @property
    def current_qualname(self) -> str | None:
        """Dotted scope name matching the callgraph facts' qualnames."""
        if not any(kind == "func" for kind, _ in self._scope_names):
            return None
        return ".".join(name for _, name in self._scope_names)

    @property
    def current_class(self) -> str | None:
        for kind, name in reversed(self._scope_names):
            if kind == "class":
                return name
        return None

    @property
    def in_constructor(self) -> bool:
        func = self.current_function
        return (
            isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and func.name in _CONSTRUCTORS
            and self._class_depth > 0
        )

    def cover(self, code: str, node: ast.AST) -> None:
        """Mark a subtree as reported so inner nodes stay quiet."""
        for sub in ast.walk(node):
            self._covered.add((code, id(sub)))

    def is_covered(self, code: str, node: ast.AST) -> bool:
        return (code, id(node)) in self._covered

    # -- taint --------------------------------------------------------------

    def tainted(self, node: ast.AST) -> bool:
        """Name-convention taint ORed with the interprocedural result,
        in one walk of ``node``."""
        program, facts = self.program, self.module_facts
        qualname = self.current_qualname
        local_taint: frozenset[str] = frozenset()
        if program is not None and facts is not None and qualname is not None:
            local_taint = program.tainted_locals(facts, qualname)
        for sub in taint_walk(node):
            if isinstance(sub, ast.Attribute):
                if BOUND_NAME_RE.search(sub.attr):
                    return True
            elif isinstance(sub, ast.Name):
                if BOUND_NAME_RE.search(sub.id) or sub.id in local_taint:
                    return True
            elif isinstance(sub, ast.Call) and program is not None:
                key = self.resolve_call(sub)
                if key is not None and key in program.returns_bound:
                    return True
        return False

    def resolve_call(self, node: ast.Call) -> str | None:
        """Resolve a call to a function key via the program index."""
        if self.program is None or self.module_facts is None:
            return None
        return self.program.index.resolve_call(
            self.module_facts, node, self.current_class
        )

    # -- reporting ----------------------------------------------------------

    def report(self, rule: object, node: ast.AST, detail: str) -> None:
        code = getattr(rule, "code", "")
        name = getattr(rule, "name", "")
        if code not in self._active:
            return
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        if self._suppressed(code, node):
            return
        snippet = ""
        if 0 < line <= len(self._lines):
            snippet = self._lines[line - 1].strip()
        self.findings.append(
            Finding(
                rule=code,
                path=self.path,
                line=line,
                col=col + 1,
                message=f"{detail} [{name}]",
                snippet=snippet,
            )
        )

    def _suppressed(self, code: str, node: ast.AST) -> bool:
        start = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", start)
        if self._stmt_stack:
            stmt = self._stmt_stack[-1]
            start = min(start, stmt.lineno)
            end = max(end, stmt.end_lineno or stmt.lineno)
        hit = False
        for pragma in self._pragmas:
            in_stmt = start <= pragma.line <= end
            # A pragma in the comment block directly above the statement
            # also covers it ("disable-next-line" style, possibly wrapped
            # over several comment lines).
            above = pragma.line < start and all(
                self._is_comment_line(line) for line in range(pragma.line, start)
            )
            if (in_stmt or above) and pragma.applies_to(code):
                pragma.used = True
                hit = True
        return hit

    def _is_comment_line(self, line: int) -> bool:
        if not 0 < line <= len(self._lines):
            return False
        return self._lines[line - 1].lstrip().startswith("#")


class _Walker:
    """Drives every rule over every node, top-down, in one pass."""

    def __init__(self, ctx: Context, rules: tuple[Rule, ...]) -> None:
        self.ctx = ctx
        self.rules = rules

    def walk(self, node: ast.AST) -> None:
        ctx = self.ctx
        is_stmt = isinstance(node, ast.stmt)
        is_func = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        is_class = isinstance(node, ast.ClassDef)
        if is_stmt:
            ctx._stmt_stack.append(node)
        if is_func:
            ctx._func_stack.append(node)
            ctx._scope_names.append(("func", node.name))
        if is_class:
            ctx._class_depth += 1
            ctx._scope_names.append(("class", node.name))
        try:
            if isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
                for alias in node.names:
                    ctx.numeric_imports.add(alias.asname or alias.name)
            for rule in self.rules:
                rule.visit(node, ctx)
            if isinstance(node, ast.Call) and is_rounding_call(node):
                # The callee itself is ordinary code; the *arguments* are
                # under directed rounding.
                self.walk(node.func)
                ctx.rounding_depth += 1
                try:
                    for arg in node.args:
                        self.walk(arg)
                    for keyword in node.keywords:
                        self.walk(keyword)
                finally:
                    ctx.rounding_depth -= 1
            else:
                for child in ast.iter_child_nodes(node):
                    self.walk(child)
        finally:
            if is_stmt:
                ctx._stmt_stack.pop()
            if is_func:
                ctx._func_stack.pop()
                ctx._scope_names.pop()
            if is_class:
                ctx._class_depth -= 1
                ctx._scope_names.pop()


def _collect_pragmas(source: str, path: str) -> list[Pragma]:
    pragmas: list[Pragma] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                pragma = parse_pragma(token.string, token.start[0])
                if pragma is not None:
                    pragmas.append(pragma)
    except tokenize.TokenError as error:  # pragma: no cover - ast parsed OK
        raise CheckError(f"{path}: could not tokenize: {error}") from error
    return pragmas


def _assign_occurrences(findings: list[Finding]) -> list[Finding]:
    """Number duplicate (rule, snippet) pairs so fingerprints are unique."""
    from dataclasses import replace

    counts: dict[tuple[str, str], int] = {}
    out = []
    for finding in findings:
        key = (finding.rule, " ".join(finding.snippet.split()))
        n = counts.get(key, 0)
        counts[key] = n + 1
        out.append(replace(finding, occurrence=n) if n else finding)
    return out


def _parse(source: str, path: str) -> ast.Module:
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as error:
        line = error.lineno or 0
        raise CheckError(f"{path}:{line}: syntax error: {error.msg}") from error


def _check_module(
    source: str,
    tree: ast.Module,
    path: str,
    policy: Policy,
    explicit: bool,
    program: ProgramTaint | None,
    module_facts: ModuleFacts | None,
) -> list[Finding]:
    """Run both rule passes over one parsed module."""
    soundness = policy.in_scope(path, explicit=explicit)
    concurrency = policy.in_concurrency_scope(path, explicit=explicit)
    if not soundness and not concurrency:
        return []
    active = policy.rules_for(path, ALL_CODES)
    if not active:
        return []
    pragmas = _collect_pragmas(source, path)
    lines = source.splitlines()
    ctx = Context(
        path, lines, pragmas, active,
        policy=policy, program=program, module_facts=module_facts,
    )
    if soundness:
        rules = tuple(rule for rule in RULES if rule.code in active)
        if rules:
            _Walker(ctx, rules).walk(tree)
    if concurrency:
        c_rules = [r for r in CONCURRENCY_RULES if r.code in active]
        if c_rules:
            facts = collect_concurrency_facts(tree)
            for c_rule in c_rules:
                c_rule.check_module(tree, facts, ctx)
    if "S000" in active:
        for pragma in pragmas:
            if not pragma.reason:
                ctx.findings.append(Finding(
                    rule="S000", path=path, line=pragma.line, col=1,
                    message="`# sound: ok` needs a written reason [pragma-hygiene]",
                    snippet=lines[pragma.line - 1].strip()
                    if pragma.line <= len(lines) else "",
                ))
            # Unused means unused by every rule it names, so a filtered
            # run judges only pragmas whose codes are all active here;
            # one that names no code waits for a full run.
            elif not pragma.used and (
                policy.select is None
                or bool(pragma.codes) and set(pragma.codes) <= set(active)
            ):
                ctx.findings.append(Finding(
                    rule="S000", path=path, line=pragma.line, col=1,
                    message="unused `# sound: ok` pragma [pragma-hygiene]",
                    snippet=lines[pragma.line - 1].strip()
                    if pragma.line <= len(lines) else "",
                ))
    ctx.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return _assign_occurrences(ctx.findings)


def check_source(source: str, path: str, policy: Policy | None = None,
                 explicit: bool = False) -> list[Finding]:
    """Lint one module's source text; returns its findings.

    The module is its own one-file universe: the interprocedural pass
    still runs, so a bound returned from a same-module helper is seen,
    but nothing outside the text is consulted. Raises
    :class:`CheckError` on a syntax error (the caller turns that into
    exit code 2 — a file we cannot parse is a file we cannot vouch for,
    which is an input problem, not a crash).
    """
    policy = policy or Policy()
    tree = _parse(source, path)
    facts = extract_module_facts(tree, path)
    program = ProgramTaint(ProgramIndex({path: facts}))
    return _check_module(
        source, tree, path, policy, explicit, program, facts
    )


def _iter_files(paths: Sequence[str | Path]) -> list[tuple[Path, bool]]:
    """Expand the command-line paths to (file, was_explicit) pairs."""
    out: list[tuple[Path, bool]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend((file, False) for file in sorted(path.rglob("*.py")))
        elif path.is_file():
            out.append((path, True))
        else:
            raise CheckError(f"no such file or directory: {path}")
    return out


def check_paths(
    paths: Sequence[str | Path],
    policy: Policy | None = None,
) -> list[Finding]:
    """Whole-program check over files and directories.

    Directories are filtered by policy; explicitly named files are
    always checked (excludes still apply). Every file contributes facts
    to the interprocedural fixpoint even when out of scope for both
    rule passes — out-of-scope modules are exactly what S007 needs
    summaries for. Every call parses and solves the files it is given;
    nothing is read from or written to disk besides those files.
    """
    policy = policy or Policy()
    seen: set[Path] = set()
    universe: list[tuple[str, str, bool, ast.Module]] = []
    for file, explicit in _iter_files(paths):
        resolved = file.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        try:
            source = file.read_text()
        except (OSError, UnicodeDecodeError) as error:
            raise CheckError(f"could not read {file}: {error}") from error
        path = file.as_posix()
        universe.append((path, source, explicit, _parse(source, path)))

    facts = {
        path: extract_module_facts(tree, path)
        for path, _, _, tree in universe
    }
    program = ProgramTaint(ProgramIndex(facts))
    findings: list[Finding] = []
    for path, source, explicit, tree in universe:
        findings.extend(_check_module(
            source, tree, path, policy, explicit, program, facts[path]
        ))
    return findings
