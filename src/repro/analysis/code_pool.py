"""Fork-safety lint (``POOL-*``) for the simulator's own source.

The runner ships job specs to ``ProcessPoolExecutor`` workers and
relies on the platform's default start method. Module-level mutable
state mutated inside functions diverges silently between workers: a
worker's write never reaches the parent, and where that state only
feeds run statistics no result row changes, so no oracle sees it.
Forcing the ``fork`` start method by hand or forking directly copies
parent locks and threads into workers — a hazard where ``fork`` is not
the default (macOS, and Linux from Python 3.14), which neither the
tests nor the recorded event logs can see on a Linux ``fork`` host.
(A job that cannot cross the process boundary by pickle needs no
lint: ``run --all --jobs 2`` and the ``spawn`` pool test fail on it.)

Every rule is per-file: it reads one :class:`PySource` and nothing else.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .code_engine import PySource
from .findings import Finding, Severity
from .registry import Category, Kind, rule

#: Methods that mutate a list/dict/set/deque in place.
_MUTATOR_METHODS = {
    "append",
    "appendleft",
    "add",
    "update",
    "extend",
    "insert",
    "setdefault",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "discard",
    "clear",
}

_MUTABLE_CTORS = {
    "dict",
    "list",
    "set",
    "defaultdict",
    "deque",
    "OrderedDict",
    "Counter",
}


# -- scope iteration --------------------------------------------------------


def iter_scopes(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[ast.AST], List[ast.stmt]]]:
    """Yield (scope node, body) for the module and every function.

    The module scope is yielded with ``None``; class bodies are not
    scopes of their own (their statements run in the module pass), but
    methods are.
    """
    yield None, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def iter_scope_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of one scope in source order, recursing into
    control-flow bodies but never into nested functions or classes."""
    for stmt in body:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield stmt
        for attr in ("body", "orelse", "finalbody"):
            children = getattr(stmt, attr, None)
            if children:
                yield from iter_scope_statements(children)
        for handler in getattr(stmt, "handlers", ()):
            yield from iter_scope_statements(handler.body)


def iter_scope_expressions(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Every AST node of one scope, pruning nested function/class defs
    (they are checked as their own scopes)."""
    for stmt in iter_scope_statements(body):
        stack: List[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (
                        ast.FunctionDef,
                        ast.AsyncFunctionDef,
                        ast.ClassDef,
                        ast.Lambda,
                    ),
                ):
                    continue
                if isinstance(child, ast.stmt):
                    continue  # reached via iter_scope_statements
                stack.append(child)


class _ProcessImports:
    """What local names refer to ``os``, ``multiprocessing`` and
    ``os.fork``."""

    def __init__(self, tree: ast.AST) -> None:
        self.os_modules: Set[str] = set()
        self.multiprocessing_modules: Set[str] = set()
        #: local name -> fork-relevant callable it aliases
        self.fork_funcs: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "os":
                        self.os_modules.add(local)
                    elif alias.name in ("multiprocessing", "multiprocessing.pool"):
                        self.multiprocessing_modules.add(local)
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name == "fork":
                        self.fork_funcs[alias.asname or alias.name] = "os.fork"


def _module_level_names(tree: ast.Module) -> Tuple[set, set]:
    """(all module-level assigned names, the mutable-container subset)."""
    assigned, mutable = set(), set()
    for stmt in iter_scope_statements(tree.body):
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        is_mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.SetComp,
                    ast.ListComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CTORS
        )
        for target in targets:
            if isinstance(target, ast.Name):
                assigned.add(target.id)
                if is_mutable:
                    mutable.add(target.id)
    return assigned, mutable


@rule(
    "POOL-GLOBAL-MUTABLE",
    Severity.WARNING,
    Category.POOL,
    Kind.PYTHON,
    summary="module-level mutable state must not be mutated inside functions",
    reference="repro.runner.engine worker model (fork/spawn divergence)",
)
def check_global_mutable(src: PySource, ctx) -> Iterator[Finding]:
    assigned, mutable = _module_level_names(src.tree)
    if not assigned:
        return
    for scope, body in iter_scopes(src.tree):
        if scope is None:
            continue  # module scope mutates its own namespace freely
        declared_global = set()
        for stmt in iter_scope_statements(body):
            if isinstance(stmt, ast.Global):
                declared_global.update(stmt.names)
        for stmt in iter_scope_statements(body):
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AugAssign):
                targets = [stmt.target]
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                    and target.id in assigned
                ):
                    yield check_global_mutable.rule.finding(
                        f"function {scope.name}() rebinds module-level "
                        f"{target.id!r} via 'global'; each worker process "
                        "mutates its own copy, so the change silently "
                        "diverges across the pool",
                        src.span(stmt),
                        line_text=src.line_text(stmt),
                    )
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutable
                ):
                    yield check_global_mutable.rule.finding(
                        f"function {scope.name}() writes into module-level "
                        f"{target.value.id!r}; worker processes each mutate "
                        "their own copy, so state written here never "
                        "reaches the parent or other workers",
                        src.span(stmt),
                        line_text=src.line_text(stmt),
                    )
        for node in iter_scope_expressions(body):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mutable
                and node.func.attr in _MUTATOR_METHODS
            ):
                yield check_global_mutable.rule.finding(
                    f"function {scope.name}() calls "
                    f"{node.func.value.id}.{node.func.attr}() on "
                    "module-level mutable state; mutations made inside a "
                    "worker never propagate back to the parent",
                    src.span(node),
                    line_text=src.line_text(node),
                )


@rule(
    "POOL-FORK-UNSAFE",
    Severity.WARNING,
    Category.POOL,
    Kind.PYTHON,
    summary="avoid fork-unsafe process management patterns",
    reference="repro.runner.engine pool lifecycle; CPython fork caveats",
)
def check_fork_unsafe(src: PySource, ctx) -> Iterator[Finding]:
    imports = _ProcessImports(src.tree)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in imports.os_modules
            and func.attr == "fork"
        ) or (isinstance(func, ast.Name) and func.id in imports.fork_funcs):
            yield check_fork_unsafe.rule.finding(
                "raw os.fork() bypasses the executor's worker lifecycle "
                "(no crash isolation, no watchdog); use the runner engine",
                src.span(node),
                line_text=src.line_text(node),
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "set_start_method"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "fork"
        ):
            yield check_fork_unsafe.rule.finding(
                "forcing the 'fork' start method copies parent locks and "
                "open handles into workers; the engine relies on the "
                "platform default",
                src.span(node),
                line_text=src.line_text(node),
            )
    # Executors constructed at import time are inherited by every
    # process that imports the module — including the workers a parent
    # pool spawns, which then recursively own pools. The module-scope
    # expression iterator prunes nested function bodies, where pool
    # construction is fine.
    for node in iter_scope_expressions(src.tree.body):
        if not isinstance(node, ast.Call):
            continue
        callee = None
        if isinstance(node.func, ast.Name):
            callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        if callee == "ProcessPoolExecutor" or (
            callee == "Pool"
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in imports.multiprocessing_modules
        ):
            yield check_fork_unsafe.rule.finding(
                f"{callee} constructed at module import time: every "
                "importer (including pool workers) spawns processes "
                "as a side effect; construct pools inside functions",
                src.span(node),
                line_text=src.line_text(node),
            )
