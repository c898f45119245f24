"""AST-based determinism lint for the simulator's own source.

The runner's content-addressed result cache (``repro.runner``) replays
sessions by spec hash: two runs of the same :class:`SimulationJob` must
produce byte-identical results, on any worker, under any
``PYTHONHASHSEED``. That only holds if simulation code never consults
ambient nondeterminism. This lint walks Python source and flags the
three ways that invariant historically breaks:

* ``DET-UNSEEDED-RANDOM`` — calls to the ``random`` *module's* global
  functions (``random.random()``, ``random.choice``, ...), or
  ``random.Random()`` / ``random.seed()`` with no seed argument. All
  stochastic simulator inputs must thread an explicit seed
  (``random.Random(seed)``).
* ``DET-WALLCLOCK`` — ``time.time()`` / ``time.time_ns()`` /
  ``datetime.now()`` / ``utcnow()`` / ``today()``: wall-clock reads
  make results depend on when the job ran. (``time.perf_counter`` is
  deliberately allowed — it only feeds measurement metadata, never
  simulated behaviour.)
* ``DET-SET-ORDER`` — order-sensitive consumption of an unordered set:
  iterating a set literal/constructor in a ``for`` or comprehension,
  materializing one with ``list()``/``tuple()``/``enumerate()``/
  ``join()``, or ``max()``/``min()`` *with a key function* over a set
  (ties break by hash order). ``sorted(set(...))`` and membership
  tests are fine and not flagged.

A line opts out with the unified suppression grammar shared by every
code rule — ``# lint: allow[DET-SET-ORDER]`` — applied centrally by the
analysis engine (see :mod:`repro.analysis.code_engine`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from .code_engine import PySource
from .findings import Finding, Severity
from .registry import Category, Kind, rule

#: ``random`` module-level functions whose use implies the shared,
#: unseeded global RNG.
RANDOM_MODULE_FUNCS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "triangular",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "expovariate",
    "vonmisesvariate",
    "gammavariate",
    "betavariate",
    "paretovariate",
    "weibullvariate",
    "getrandbits",
    "randbytes",
}

WALLCLOCK_TIME_FUNCS = {"time", "time_ns"}
WALLCLOCK_DATETIME_FUNCS = {"now", "utcnow", "today"}


class ImportTracker:
    """What local names refer to ``random``, ``time`` and ``datetime``."""

    def __init__(self, tree: ast.AST) -> None:
        self.random_modules: Set[str] = set()
        self.time_modules: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        #: local name -> random module function it aliases
        self.random_funcs: Dict[str, str] = {}
        #: local name -> time module function it aliases
        self.time_funcs: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_modules.add(local)
                    elif alias.name == "time":
                        self.time_modules.add(local)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(local)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "random" and (
                        alias.name in RANDOM_MODULE_FUNCS or alias.name == "seed"
                    ):
                        self.random_funcs[local] = alias.name
                    elif (
                        node.module == "time"
                        and alias.name in WALLCLOCK_TIME_FUNCS
                    ):
                        self.time_funcs[local] = alias.name
                    elif node.module == "datetime" and alias.name in {
                        "datetime",
                        "date",
                    }:
                        self.datetime_classes.add(local)


def unseeded_random_call(node: ast.Call, imports: ImportTracker) -> Optional[str]:
    """Describe ``node`` if it draws from the global RNG, else ``None``."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in imports.random_modules
    ):
        if func.attr in RANDOM_MODULE_FUNCS:
            return f"random.{func.attr}()"
        if func.attr in {"Random", "seed"} and not (node.args or node.keywords):
            return f"random.{func.attr}() without a seed"
    elif isinstance(func, ast.Name) and func.id in imports.random_funcs:
        original = imports.random_funcs[func.id]
        if original == "seed":
            if not (node.args or node.keywords):
                return "seed() without a seed value"
        else:
            return f"{original}() imported from random"
    return None


def wallclock_call(node: ast.Call, imports: ImportTracker) -> Optional[str]:
    """Describe ``node`` if it reads the wall clock, else ``None``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        base = func.value
        if (
            isinstance(base, ast.Name)
            and base.id in imports.time_modules
            and func.attr in WALLCLOCK_TIME_FUNCS
        ):
            return f"time.{func.attr}()"
        if (
            isinstance(base, ast.Name)
            and base.id in imports.datetime_classes
            and func.attr in WALLCLOCK_DATETIME_FUNCS
        ):
            return f"datetime.{func.attr}()"
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id in imports.datetime_modules
            and base.attr in {"datetime", "date"}
            and func.attr in WALLCLOCK_DATETIME_FUNCS
        ):
            return f"datetime.{base.attr}.{func.attr}()"
    elif isinstance(func, ast.Name) and func.id in imports.time_funcs:
        return f"{imports.time_funcs[func.id]}() imported from time"
    return None

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
    "DET-UNSEEDED-RANDOM",
    Severity.ERROR,
    Category.DETERMINISM,
    Kind.PYTHON,
    summary="simulation code must not use the global random module state",
    reference="repro.runner cache contract (PR 2); docs/architecture.md",
)
def check_unseeded_random(src: PySource, ctx) -> Iterator[Finding]:
    imports = ImportTracker(src.tree)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        flagged = unseeded_random_call(node, imports)
        if flagged:
            yield check_unseeded_random.rule.finding(
                f"{flagged} draws from the process-global RNG; thread an "
                "explicit random.Random(seed) through the simulation "
                "instead",
                src.span(node),
                line_text=src.line_text(node),
            )


@rule(
    "DET-WALLCLOCK",
    Severity.ERROR,
    Category.DETERMINISM,
    Kind.PYTHON,
    summary="simulation code must not read the wall clock",
    reference="repro.runner cache contract (PR 2)",
)
def check_wallclock(src: PySource, ctx) -> Iterator[Finding]:
    imports = ImportTracker(src.tree)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        flagged = wallclock_call(node, imports)
        if flagged:
            yield check_wallclock.rule.finding(
                f"{flagged} reads the wall clock; simulated time must come "
                "from the event loop, and timestamps belong in result "
                "metadata stamped outside the simulation",
                src.span(node),
                line_text=src.line_text(node),
            )


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
