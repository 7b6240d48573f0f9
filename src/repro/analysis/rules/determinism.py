"""Determinism rules: RNG discipline, wall-clock reads, iteration order.

The extraction algorithms (equivalence classes, Algorithm 1/2 fixpoints,
wrapper tie-breaking) are only reproducible when every source of
nondeterminism is pinned: randomness must flow through the seeded
:class:`repro.utils.rng.DeterministicRng`, data must never carry
wall-clock values, and nothing order-sensitive may consume a bare ``set``
— set iteration order depends on ``PYTHONHASHSEED`` for strings, so one
``tuple(set(...))`` in a hot path turns into flaky extraction diffs.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.engine import FileContext, Finding, Rule, register_rule

#: Module (path suffix) allowed to touch :mod:`random` directly.
RNG_MODULE = "utils/rng.py"

#: Modules (path suffixes) allowed to read the wall clock: observability
#: code measures, it never feeds measurements back into the dataflow.
#: ``metrics/observer.py`` is the metrics layer's clock boundary — it
#: stamps persisted benchmark artifacts and reads process statistics.
CLOCK_MODULES = ("core/pipeline.py", "metrics/observer.py")

#: Module (path suffix) allowed to call ``time.sleep``: the fault/retry
#: layer owns the single real sleep behind an injectable callable.
SLEEP_MODULES = ("core/faults.py",)

#: Filesystem enumeration callables whose result order is OS-dependent.
_FS_FUNCTIONS = {
    ("os", "listdir"),
    ("os", "scandir"),
    ("glob", "glob"),
    ("glob", "iglob"),
}
_FS_METHODS = {"iterdir", "glob", "rglob"}


def _is_path_allowed(relpath: str, suffixes: Iterable[str]) -> bool:
    return any(relpath.endswith(suffix) for suffix in suffixes)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain ('' when not a plain chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@register_rule
class UnseededRandomRule(Rule):
    """D101: the stdlib ``random`` module outside ``utils/rng.py``."""

    rule_id = "D101"
    title = "unseeded randomness outside utils/rng.py"
    rationale = (
        "Module-level random.* draws from process-global, unseeded state; "
        "route every random draw through repro.utils.rng.DeterministicRng "
        "so runs are reproducible bit-for-bit given a seed."
    )
    example = (
        "import random\n"
        "def pick_sample(pages):\n"
        "    return random.choice(pages)   # D101: unseeded global RNG\n"
        "# fix: rng = DeterministicRng(seed); rng.choice(pages)"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag imports of and calls into the stdlib ``random`` module."""
        if _is_path_allowed(ctx.relpath, (RNG_MODULE,)):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            "import of the stdlib random module; use "
                            "repro.utils.rng.DeterministicRng instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "import from the stdlib random module; use "
                        "repro.utils.rng.DeterministicRng instead",
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted.startswith("random."):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"call to {dotted}() draws from unseeded global "
                        "state; use repro.utils.rng.DeterministicRng",
                    )


@register_rule
class WallClockRule(Rule):
    """D102: wall-clock reads outside the observer modules."""

    rule_id = "D102"
    title = "wall-clock read outside observer modules"
    rationale = (
        "time.time()/datetime.now() values differ run to run; only the "
        "observability layer may measure, and durations should use "
        "time.perf_counter(), which is always allowed."
    )
    example = (
        "import time\n"
        "def extract(page):\n"
        "    started = time.time()   # D102: wall clock outside observers\n"
        "# fix: measure in the observer layer, or use time.perf_counter()"
    )

    _CLOCK_CALLS = {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag wall-clock reads outside the observer layer."""
        if _is_path_allowed(ctx.relpath, CLOCK_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in self._CLOCK_CALLS:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{dotted}() reads the wall clock; pipeline data must "
                    "not depend on when a run happens (perf_counter "
                    "durations are fine, in observers)",
                )


@register_rule
class WallSleepRule(Rule):
    """D105: ``time.sleep`` outside ``core/faults.py``."""

    rule_id = "D105"
    title = "time.sleep outside core/faults.py"
    rationale = (
        "A direct time.sleep makes tests wall-sleep and hides latency "
        "from the observability layer; route every wait through the "
        "injectable sleep of repro.core.faults (wall_sleep is the single "
        "real call site) so tests can fake time."
    )
    example = (
        "import time\n"
        "def retry_fetch(url):\n"
        "    time.sleep(0.5)   # D105: direct sleep outside core/faults\n"
        "# fix: route the wait through repro.core.faults (injectable)"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag sleep calls and imports outside the fault/retry layer."""
        if _is_path_allowed(ctx.relpath, SLEEP_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0 and any(
                    alias.name == "sleep" for alias in node.names
                ):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "import of time.sleep; use the injectable sleep "
                        "from repro.core.faults instead",
                    )
            elif isinstance(node, ast.Call):
                if _dotted(node.func) == "time.sleep":
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "time.sleep() wall-sleeps; accept a SleepFn "
                        "(default repro.core.faults.wall_sleep) so tests "
                        "never spend real time",
                    )


def is_set_expr(node: ast.AST) -> bool:
    """Whether an expression statically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return is_set_expr(node.left) or is_set_expr(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in (
            "intersection",
            "union",
            "difference",
            "symmetric_difference",
        ) and is_set_expr(node.func.value):
            return True
    return False


def _comprehension_over_set(node: ast.AST) -> bool:
    return isinstance(
        node, (ast.ListComp, ast.GeneratorExp)
    ) and any(is_set_expr(gen.iter) for gen in node.generators)


def _loop_body_is_order_sensitive(loop: ast.For) -> bool:
    """Whether the loop body accumulates into an ordered structure."""
    for node in ast.walk(loop):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("append", "extend", "insert", "write"):
                return True
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            return True
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


@register_rule
class SetOrderRule(Rule):
    """D103: bare set iteration feeding an ordering-sensitive sink."""

    rule_id = "D103"
    title = "set iteration order leaking into ordered output"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED for strings; "
        "list()/tuple()/join()/list-building loops over a bare set make "
        "output order flip between runs — sort first (sorted(...) "
        "neutralizes the finding)."
    )
    example = (
        "labels = {a.label for a in attrs}\n"
        "header = ', '.join(labels)   # D103: order flips with hash seed\n"
        "# fix: ', '.join(sorted(labels))"
    )

    _ORDERED_CASTS = ("list", "tuple")

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag set iteration feeding ordering-sensitive sinks."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.ListComp) and _comprehension_over_set(node):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "list built by iterating a bare set; wrap the set in "
                    "sorted(...) to pin the order",
                )
            elif isinstance(node, ast.DictComp) and any(
                is_set_expr(gen.iter) for gen in node.generators
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "dict keyed by iterating a bare set inherits the set's "
                    "hash order; iterate sorted(...) instead",
                )
            elif isinstance(node, ast.For) and is_set_expr(node.iter):
                if _loop_body_is_order_sensitive(node):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "loop over a bare set accumulates into an ordered "
                        "structure; iterate sorted(...) instead",
                    )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        args = node.args
        if (
            isinstance(func, ast.Name)
            and func.id in self._ORDERED_CASTS
            and len(args) == 1
        ):
            if is_set_expr(args[0]) or _comprehension_over_set(args[0]):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{func.id}() over a bare set has PYTHONHASHSEED-"
                    "dependent element order; use sorted(...) instead",
                )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and len(args) == 1
        ):
            if is_set_expr(args[0]) or _comprehension_over_set(args[0]):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "str.join over a bare set concatenates in hash order; "
                    "join sorted(...) instead",
                )


@register_rule
class UnsortedListingRule(Rule):
    """D104: filesystem enumeration without sorting."""

    rule_id = "D104"
    title = "unsorted filesystem listing"
    rationale = (
        "os.listdir/Path.glob/iterdir order is filesystem-dependent; wrap "
        "the listing in sorted(...) so page sets and corpora load in a "
        "stable order on every machine."
    )
    example = (
        "for page in corpus_dir.glob('*.html'):   # D104: FS order varies\n"
        "    load(page)\n"
        "# fix: for page in sorted(corpus_dir.glob('*.html')): ..."
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag filesystem listings not wrapped in ``sorted(...)``."""
        neutralized = self._sorted_args(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in neutralized:
                continue
            message = self._listing_message(node)
            if message:
                yield ctx.finding(self.rule_id, node, message)

    @staticmethod
    def _sorted_args(tree: ast.Module) -> set[int]:
        """ids of call nodes appearing directly inside sorted(...)."""
        neutral: set[int] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and node.args
            ):
                arg = node.args[0]
                neutral.add(id(arg))
                if isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
                    for gen in arg.generators:
                        neutral.add(id(gen.iter))
        return neutral

    @staticmethod
    def _listing_message(node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and (base.id, func.attr) in _FS_FUNCTIONS:
                return (
                    f"{base.id}.{func.attr}() returns entries in "
                    "filesystem order; wrap it in sorted(...)"
                )
            if func.attr in _FS_METHODS and not (
                isinstance(base, ast.Name) and base.id in ("os", "glob")
            ):
                return (
                    f".{func.attr}() yields entries in filesystem order; "
                    "wrap it in sorted(...)"
                )
        return ""
