"""Set-order lint (``DET-SET-ORDER``) for the simulator's own source.

The runner's content-addressed result cache (``repro.runner``) replays
sessions by spec hash: two runs of the same :class:`SimulationJob` must
produce byte-identical results, on any worker, under any
``PYTHONHASHSEED``. ``DET-SET-ORDER`` flags order-sensitive
consumption of an unordered set: iterating a set literal/constructor
in a ``for`` or comprehension, materializing one with
``list()``/``tuple()``/``enumerate()``/``join()``, or
``max()``/``min()`` *with a key function* over a set (ties break by
hash order). ``sorted(set(...))`` and membership tests are fine and
not flagged.

A ``max``/``min`` over a set changes a result only when two items tie
on the key, and no ladder the oracles run has such a tie, so the
pinned logs, the report pins and CI's two-hash-seed ``run --all``
cannot see that hazard. Unseeded randomness and wall-clock reads have
no rule: on the simulation path they change those oracles.

A line opts out with the unified suppression grammar shared by every
code rule — ``# lint: allow[DET-SET-ORDER]`` — applied centrally by the
analysis engine (see :mod:`repro.analysis.code_engine`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .code_engine import PySource
from .findings import Finding, Severity
from .registry import Category, Kind, rule

#: Builtins that materialize their iterable in iteration order.
_ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "enumerate", "iter"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def _describe_set(node: ast.AST) -> str:
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return f"{node.func.id}(...)"
    return "a set"


@rule(
    "DET-SET-ORDER",
    Severity.WARNING,
    Category.DETERMINISM,
    Kind.PYTHON,
    summary="do not consume unordered sets in an order-sensitive way",
    reference="repro.runner cache contract (PR 2); PYTHONHASHSEED",
)
def check_set_order(src: PySource, ctx) -> Iterator[Finding]:
    for node in ast.walk(src.tree):
        target = None
        detail = ""
        if isinstance(node, ast.For) and _is_set_expr(node.iter):
            target = node.iter
            detail = f"for-loop iterates {_describe_set(node.iter)}"
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for comp in node.generators:
                if _is_set_expr(comp.iter):
                    target = comp.iter
                    detail = (
                        f"comprehension iterates {_describe_set(comp.iter)}"
                    )
                    break
        elif isinstance(node, ast.Call):
            func = node.func
            first = node.args[0] if node.args else None
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_SENSITIVE_BUILTINS
                and first is not None
                and _is_set_expr(first)
            ):
                target = first
                detail = f"{func.id}() materializes {_describe_set(first)}"
            elif (
                isinstance(func, ast.Name)
                and func.id in {"max", "min"}
                and first is not None
                and _is_set_expr(first)
                and any(k.arg == "key" for k in node.keywords)
            ):
                target = first
                detail = (
                    f"{func.id}(..., key=...) over {_describe_set(first)} "
                    "breaks ties by hash order"
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and first is not None
                and _is_set_expr(first)
            ):
                target = first
                detail = f"str.join() concatenates {_describe_set(first)}"
        if target is not None:
            yield check_set_order.rule.finding(
                f"{detail}; set iteration order depends on PYTHONHASHSEED — "
                "sort first (sorted(...)) or use a deterministic tie-break "
                "(collections.Counter preserves insertion order)",
                src.span(target),
                line_text=src.line_text(target),
            )
