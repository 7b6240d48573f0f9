"""Process-boundary analysis: what crosses into worker processes, and how.

PR 9's process backend rests on conventions no type checker sees: task
specs must pickle, worker-side state must ship home through an explicit
surface (``__getstate__``, ``adopt_*``, exported ``StagedWrites``), and
the parent's merge folds must not depend on shard order.  This module
reconstructs those facts statically from the shared
:class:`~repro.analysis.graph.ProjectGraph`:

- **Dispatch sites** — ``pool.map(entry, tasks)`` / ``pool.submit(entry,
  ...)`` calls on a :class:`concurrent.futures.ProcessPoolExecutor`,
  with the worker entrypoint resolved to a project function.
- **Worker reachability** — the transitive call closure of every
  entrypoint, widened by an *instantiation closure* (all methods of any
  class constructed in worker-reachable code join the frontier, which is
  what carries reachability through ``pipeline.run(ctx)``-style dynamic
  dispatch) and a *decorator-registry closure* (classes registered via a
  decorator defined in a worker-reachable module — the
  ``@register_stage`` pattern — count as constructed, since the worker's
  pipeline builds them by name).
- **A picklability lattice** — expressions that are *definitely*
  unpicklable (locks, pools, open files, lambdas, generators, instances
  of project classes holding such values without ``__getstate__``/
  ``__reduce__``), propagated through local assignments, function
  returns and constructor arguments into the boundary classes: those
  the entrypoints are annotated with, those built into a dispatch
  payload, and the homeward messages worker code hands a channel's
  ``send``/``put`` (a streamed per-source report, say).
- **Homeward surfaces** — for classes that opted into a homeward
  protocol, the attributes their protocol methods actually read; any
  attribute mutated in worker-reachable code but absent from that
  surface is state that dies with the worker (the PR 9 miss-counter bug
  shape).
- **Split-brain globals** — module-level mutable values both read and
  written from worker-reachable code, which silently diverge per
  process.
- **Merge folds** — ``dict.update``/list-``extend`` accumulations over
  shard results in the dispatching function, which merge in shard order
  rather than input order.

Everything here is conservative in the graph's spirit: only statically
obvious facts are asserted, and analysis unknowns stay quiet rather than
flagging.  All iteration orders are sorted, so the derived findings are
byte-identical from run to run over the same tree.  The rules
consuming this pass live in :mod:`repro.analysis.rules.procbound`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.graph import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    dotted_name,
)

#: Constructor calls whose results can never cross a pickle boundary.
#: Keys are alias-expanded dotted names; values describe the value.
UNPICKLABLE_CALLS: dict[str, str] = {
    "threading.Lock": "a threading.Lock",
    "threading.RLock": "a threading.RLock",
    "threading.Condition": "a threading.Condition",
    "threading.Event": "a threading.Event",
    "threading.Semaphore": "a threading.Semaphore",
    "threading.BoundedSemaphore": "a threading.BoundedSemaphore",
    "threading.local": "thread-local storage",
    "concurrent.futures.ThreadPoolExecutor": "a ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor": "a ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor": "a ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor": "a ProcessPoolExecutor",
    "open": "an open file handle",
    "io.open": "an open file handle",
    "socket.socket": "a socket",
    "sqlite3.connect": "a sqlite3 connection",
    "subprocess.Popen": "a subprocess handle",
}

#: Methods whose presence makes a class explicitly picklable: the class
#: controls its own crossing, so field-level heuristics stand down.
PICKLE_HOOKS = frozenset({"__getstate__", "__reduce__", "__reduce_ex__"})

#: Channel methods whose one argument travels from a worker to the
#: parent (a pipe's ``send``, a queue's ``put``): what a worker passes
#: them is a homeward message, so it crosses the boundary.
HOMEWARD_SENDS = frozenset({"send", "put", "put_nowait"})

#: Exact method names that constitute a homeward-shipping protocol.
HOMEWARD_EXACT = frozenset({"__getstate__", "__reduce__", "__reduce_ex__", "export"})

#: Methods never treated as worker-side mutation sites: construction and
#: unpickling run before/outside the worker's observational lifetime,
#: and the protocol methods themselves are the homeward path.
_MUTATION_EXEMPT = frozenset(
    {"__init__", "__new__", "__post_init__", "__setstate__"}
)

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
        "reverse",
        "move_to_end",
    }
)

#: Calls producing a mutable value when bound at module level.
_MUTABLE_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)

#: Accumulator methods that fold shard results content-wise (P604).
_FOLD_METHODS = frozenset({"update", "extend"})

#: Call-name suffixes that pin a fold to input order (the adopt path).
_ORDER_PINNED_PREFIXES = ("adopt_",)
_ORDER_PINNED_EXACT = frozenset({"apply_to", "merge", "merged"})


def _is_homeward_method(name: str) -> bool:
    """Whether a method name is part of the homeward-shipping protocol."""
    return name in HOMEWARD_EXACT or name.startswith("adopt_")


def class_key(ci: ClassInfo) -> str:
    """The graph-wide ``module:Class`` key of a class."""
    return f"{ci.module}:{ci.name}"


def _self_attr_root(node: ast.AST) -> str | None:
    """The ``X`` of a ``self.X``-rooted access chain, or None.

    Peels subscripts, attribute hops and call results, so
    ``self._timers.setdefault(n, []).append(v)`` roots at ``_timers``.
    """
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in (
                "self",
                "cls",
            ):
                return node.attr
            node = node.value
        else:
            return None


def _name_root(node: ast.AST) -> str | None:
    """The leading plain name of an access chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass(frozen=True)
class DispatchSite:
    """One ``pool.map``/``pool.submit`` call onto a process pool."""

    caller: str  #: qualname of the function performing the dispatch
    module: str
    relpath: str
    call: ast.Call
    entry: str | None  #: resolved worker-entrypoint qualname
    entry_expr: ast.expr
    payload: tuple[ast.expr, ...]  #: argument expressions shipped across


@dataclass(frozen=True)
class BoundaryClass:
    """A project class whose instances cross the process boundary."""

    key: str  #: ``module:Class``
    why: str  #: human-readable provenance ("parameter of ...", ...)


@dataclass
class ProcessBoundaryAnalysis:
    """Everything the P-rules need, derived once per project graph."""

    graph: ProjectGraph
    dispatches: list[DispatchSite] = field(default_factory=list)
    #: Function qualnames that may execute inside a worker process.
    worker_reachable: frozenset[str] = frozenset()
    #: Class keys constructed (directly or via registry decorators) in
    #: worker-reachable code.
    worker_classes: frozenset[str] = frozenset()
    #: Class keys crossing the boundary, with provenance.
    boundary_classes: dict[str, BoundaryClass] = field(default_factory=dict)
    #: Class key -> reason it is definitely unpicklable.
    unpicklable_classes: dict[str, str] = field(default_factory=dict)
    #: Function qualname -> description of its unpicklable return value.
    unpicklable_returns: dict[str, str] = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, graph: ProjectGraph) -> "ProcessBoundaryAnalysis":
        """Run the full boundary pass over ``graph``.

        Finds dispatch sites, closes the worker-reachable set, computes
        the picklability lattice and collects the boundary classes —
        the derived queries (homeward surfaces, split-brain globals,
        merge folds) are evaluated lazily by the rules.
        """
        analysis = cls(graph=graph)
        analysis._find_dispatches()
        analysis._compute_worker_closure()
        analysis._compute_picklability()
        analysis._find_boundary_classes()
        return analysis

    def _find_dispatches(self) -> None:
        for fn in self.graph.iter_functions():
            if fn.node is None:
                continue
            module = self.graph.modules[fn.module]
            pools = self._pool_locals(module, fn.node)
            if not pools:
                continue
            for node in ast.walk(fn.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("map", "submit")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in pools
                    and node.args
                ):
                    continue
                entry_expr = node.args[0]
                self.dispatches.append(
                    DispatchSite(
                        caller=fn.qualname,
                        module=fn.module,
                        relpath=fn.relpath,
                        call=node,
                        entry=self._resolve_callable_ref(
                            module, fn, entry_expr
                        ),
                        entry_expr=entry_expr,
                        payload=tuple(node.args[1:]),
                    )
                )
        self.dispatches.sort(
            key=lambda d: (d.relpath, d.call.lineno, d.call.col_offset)
        )

    def _pool_locals(
        self, module: ModuleInfo, fn_node: ast.AST
    ) -> frozenset[str]:
        """Local names bound to a ProcessPoolExecutor in this function."""
        names: set[str] = set()

        def is_pool_ctor(expr: ast.AST) -> bool:
            if not isinstance(expr, ast.Call):
                return False
            dotted = dotted_name(expr.func)
            expanded = ProjectGraph.expand_alias(module, dotted)
            return expanded.split(".")[-1] == "ProcessPoolExecutor"

        for node in ast.walk(fn_node):
            if isinstance(node, ast.With):
                for item in node.items:
                    if is_pool_ctor(item.context_expr) and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        names.add(item.optional_vars.id)
            elif isinstance(node, ast.Assign) and is_pool_ctor(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return frozenset(names)

    def _resolve_callable_ref(
        self, module: ModuleInfo, caller: FunctionInfo, expr: ast.expr
    ) -> str | None:
        """Qualname a bare callable reference names (no call involved)."""
        dotted = dotted_name(expr)
        if not dotted:
            return None
        parts = dotted.split(".")
        if parts[0] in ("self", "cls") and caller.cls_name and len(parts) == 2:
            method = self.graph._lookup_method(
                module, module.classes.get(caller.cls_name), parts[1]
            )
            return method.qualname if method else None
        if len(parts) == 1 and dotted in module.functions:
            return module.functions[dotted].qualname
        expanded = ProjectGraph.expand_alias(module, dotted)
        resolved = self.graph.resolve_dotted(expanded)
        if resolved is None:
            return None
        mod_name, rest = resolved
        target = self.graph.modules[mod_name]
        rest_parts = rest.split(".") if rest else []
        if len(rest_parts) == 1 and rest_parts[0] in target.functions:
            return target.functions[rest_parts[0]].qualname
        if len(rest_parts) == 2:
            method = self.graph._lookup_method(
                target, target.classes.get(rest_parts[0]), rest_parts[1]
            )
            return method.qualname if method else None
        return None

    # -- worker reachability ----------------------------------------------

    def _compute_worker_closure(self) -> None:
        reachable: set[str] = set()
        instantiated: set[str] = set()
        frontier = sorted(
            {d.entry for d in self.dispatches if d.entry is not None}
        )

        def mark_class(ci: ClassInfo) -> None:
            key = class_key(ci)
            if key in instantiated:
                return
            instantiated.add(key)
            for method in self._all_methods(ci):
                if method.qualname not in reachable:
                    frontier.append(method.qualname)

        while True:
            while frontier:
                current = frontier.pop()
                if current in reachable or current not in self.graph.functions:
                    continue
                reachable.add(current)
                fn = self.graph.functions[current]
                module = self.graph.modules[fn.module]
                for site in self.graph.calls.get(current, ()):
                    if site.callee is not None:
                        if site.callee not in reachable:
                            frontier.append(site.callee)
                        if site.callee.rpartition(".")[2] == "__init__":
                            mod, _, rest = site.callee.partition(":")
                            cls_name = rest.rpartition(".")[0]
                            ci = self.graph.classes.get(f"{mod}:{cls_name}")
                            if ci is not None:
                                mark_class(ci)
                        continue
                    if site.dotted:
                        ci = self.graph._resolve_class(module, site.dotted)
                        if ci is not None:
                            mark_class(ci)
            self._decorator_closure(reachable, instantiated, mark_class)
            if not frontier:
                break
        self.worker_reachable = frozenset(reachable)
        self.worker_classes = frozenset(instantiated)

    def _all_methods(self, ci: ClassInfo) -> list[FunctionInfo]:
        """Own and statically-inherited methods of a class, sorted."""
        out: dict[str, FunctionInfo] = {}
        seen: set[str] = set()

        def visit(current: ClassInfo | None) -> None:
            if current is None or class_key(current) in seen:
                return
            seen.add(class_key(current))
            for name, method in current.methods.items():
                out.setdefault(name, method)
            module = self.graph.modules.get(current.module)
            if module is None:
                return
            for base in current.bases:
                visit(self.graph._resolve_class(module, base))

        visit(ci)
        return [out[name] for name in sorted(out)]

    def _decorator_closure(
        self, reachable: set[str], instantiated: set[str], mark_class
    ) -> None:
        """Mark registry-decorated classes as worker-constructed.

        A class decorated by a project function defined in a module that
        already contains worker-reachable code (``@register_stage`` and
        friends) is built by name at runtime — the static call graph
        cannot see the construction, so it is added here.
        """
        worker_modules = {
            self.graph.functions[q].module
            for q in reachable
            if q in self.graph.functions
        }
        for key in sorted(self.graph.classes):
            ci = self.graph.classes[key]
            if ci.node is None or key in instantiated:
                continue
            module = self.graph.modules.get(ci.module)
            if module is None:
                continue
            for decorator in ci.node.decorator_list:
                target = (
                    decorator.func
                    if isinstance(decorator, ast.Call)
                    else decorator
                )
                dotted = dotted_name(target)
                if not dotted:
                    continue
                expanded = ProjectGraph.expand_alias(module, dotted)
                resolved = self.graph.resolve_dotted(expanded)
                if resolved is None:
                    continue
                mod_name, rest = resolved
                if (
                    mod_name in worker_modules
                    and rest in self.graph.modules[mod_name].functions
                ):
                    mark_class(ci)
                    break

    # -- picklability lattice ---------------------------------------------

    def _compute_picklability(self) -> None:
        """Fixpoint over classes and function returns.

        A class is definitely unpicklable when it lacks every pickle
        hook and either assigns a definitely-unpicklable value to an
        instance attribute or annotates a field with an unpicklable
        project class.  A function definitely returns unpicklable when
        any of its ``return`` expressions does.  The two sets feed each
        other (a constructor may store a helper's return), so both
        iterate to a joint fixpoint.
        """
        changed = True
        while changed:
            changed = False
            for key in sorted(self.graph.classes):
                if key in self.unpicklable_classes:
                    continue
                reason = self._class_unpicklable_reason(
                    self.graph.classes[key]
                )
                if reason is not None:
                    self.unpicklable_classes[key] = reason
                    changed = True
            for qualname in sorted(self.graph.functions):
                if qualname in self.unpicklable_returns:
                    continue
                fn = self.graph.functions[qualname]
                if fn.node is None:
                    continue
                module = self.graph.modules[fn.module]
                env = self._local_env(module, fn.node)
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Return) and node.value is not None:
                        desc = self.expr_unpicklable(
                            module, node.value, env
                        )
                        if desc is not None:
                            self.unpicklable_returns[qualname] = desc
                            changed = True
                            break

    def _class_unpicklable_reason(self, ci: ClassInfo) -> str | None:
        module = self.graph.modules.get(ci.module)
        if module is None or ci.node is None:
            return None
        if self._has_pickle_hook(module, ci):
            return None
        init = ci.methods.get("__init__")
        if init is not None and init.node is not None:
            env = self._local_env(module, init.node)
            for node in ast.walk(init.node):
                if isinstance(node, ast.Assign):
                    attr = next(
                        (
                            t.attr
                            for t in node.targets
                            if isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                        ),
                        None,
                    )
                    if attr is None:
                        continue
                    desc = self.expr_unpicklable(module, node.value, env)
                    if desc is not None:
                        return (
                            f"attribute '{attr}' holds {desc} "
                            f"(line {node.lineno})"
                        )
        for stmt in ci.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                for ann_ci in self._annotation_classes(
                    module, stmt.annotation
                ):
                    reason = self.unpicklable_classes.get(class_key(ann_ci))
                    if reason is not None:
                        return (
                            f"field '{stmt.target.id}' is typed as "
                            f"unpicklable class {ann_ci.name} ({reason})"
                        )
        return None

    def _has_pickle_hook(self, module: ModuleInfo, ci: ClassInfo) -> bool:
        return any(
            self.graph._lookup_method(module, ci, hook) is not None
            for hook in sorted(PICKLE_HOOKS)
        )

    def _local_env(
        self, module: ModuleInfo, fn_node: ast.AST
    ) -> dict[str, str]:
        """name -> unpicklable-description for simple local assignments."""
        env: dict[str, str] = {}
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    desc = self.expr_unpicklable(module, node.value, env)
                    if desc is not None:
                        env[target.id] = desc
        return env

    def expr_unpicklable(
        self,
        module: ModuleInfo,
        expr: ast.expr,
        env: dict[str, str] | None = None,
    ) -> str | None:
        """Description of why ``expr`` is definitely unpicklable, or None."""
        if isinstance(expr, ast.Lambda):
            return "a lambda"
        if isinstance(expr, ast.GeneratorExp):
            return "a generator expression"
        if isinstance(expr, ast.Name):
            return (env or {}).get(expr.id)
        if not isinstance(expr, ast.Call):
            return None
        dotted = dotted_name(expr.func)
        if not dotted:
            return None
        expanded = ProjectGraph.expand_alias(module, dotted)
        if expanded in UNPICKLABLE_CALLS:
            return UNPICKLABLE_CALLS[expanded]
        ci = self.graph._resolve_class(module, dotted)
        if ci is not None:
            reason = self.unpicklable_classes.get(class_key(ci))
            if reason is not None:
                return (
                    f"an instance of unpicklable class {ci.name} ({reason})"
                )
            return None
        callee = self._resolve_plain_function(module, dotted)
        if callee is not None and callee in self.unpicklable_returns:
            return self.unpicklable_returns[callee]
        return None

    def _resolve_plain_function(
        self, module: ModuleInfo, dotted: str
    ) -> str | None:
        if "." not in dotted and dotted in module.functions:
            return module.functions[dotted].qualname
        expanded = ProjectGraph.expand_alias(module, dotted)
        resolved = self.graph.resolve_dotted(expanded)
        if resolved is None:
            return None
        mod_name, rest = resolved
        target = self.graph.modules[mod_name]
        if rest and "." not in rest and rest in target.functions:
            return target.functions[rest].qualname
        return None

    # -- boundary classes --------------------------------------------------

    def _find_boundary_classes(self) -> None:
        for dispatch in self.dispatches:
            if dispatch.entry is not None:
                fn = self.graph.functions.get(dispatch.entry)
                if fn is not None and fn.node is not None:
                    module = self.graph.modules[fn.module]
                    args = fn.node.args
                    for arg in (
                        *args.posonlyargs,
                        *args.args,
                        *args.kwonlyargs,
                    ):
                        if arg.annotation is None:
                            continue
                        for ci in self._annotation_classes(
                            module, arg.annotation
                        ):
                            self._note_boundary(
                                ci,
                                f"parameter '{arg.arg}' of worker "
                                f"entrypoint {fn.name}()",
                            )
                    if fn.node.returns is not None:
                        for ci in self._annotation_classes(
                            module, fn.node.returns
                        ):
                            self._note_boundary(
                                ci,
                                f"return value of worker entrypoint "
                                f"{fn.name}()",
                            )
            caller = self.graph.functions.get(dispatch.caller)
            for ci in self._classes_built_into(
                self.graph.modules[dispatch.module],
                caller.node if caller is not None else None,
                list(dispatch.payload),
            ):
                self._note_boundary(
                    ci,
                    "constructed into the dispatch payload "
                    f"of {dispatch.caller.partition(':')[2]}()",
                )
        for qualname in sorted(self.worker_reachable):
            fn = self.graph.functions.get(qualname)
            if fn is None or fn.node is None:
                continue
            sent = [
                node.args[0]
                for node in ast.walk(fn.node)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in HOMEWARD_SENDS
                and len(node.args) == 1
                and not node.keywords
            ]
            for ci in self._classes_built_into(
                self.graph.modules[fn.module], fn.node, sent
            ):
                self._note_boundary(ci, f"sent home by {fn.name}()")

    def _classes_built_into(
        self,
        module: ModuleInfo,
        fn_node: ast.AST | None,
        exprs: list[ast.expr],
    ) -> list[ClassInfo]:
        """Project classes constructed in ``exprs`` or in the names they use.

        A bare name among ``exprs`` pulls in every value ``fn_node``
        assigns to it, so ``report = Report(...); send(report)`` counts.
        """
        roots = {
            root for expr in exprs for root in (_name_root(expr),) if root
        }
        scope = list(exprs)
        if fn_node is not None:
            for node in ast.walk(fn_node):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in roots
                    for t in node.targets
                ):
                    scope.append(node.value)
        out: list[ClassInfo] = []
        for expr in scope:
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    dotted = dotted_name(node.func)
                    ci = (
                        self.graph._resolve_class(module, dotted)
                        if dotted
                        else None
                    )
                    if ci is not None:
                        out.append(ci)
        return out

    def _note_boundary(self, ci: ClassInfo, why: str) -> None:
        self.boundary_classes.setdefault(
            class_key(ci), BoundaryClass(key=class_key(ci), why=why)
        )

    def _annotation_classes(
        self, module: ModuleInfo, ann: ast.expr
    ) -> list[ClassInfo]:
        """Project classes an annotation expression names (peels unions)."""
        out: list[ClassInfo] = []
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return out
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self._annotation_classes(
                module, ann.left
            ) + self._annotation_classes(module, ann.right)
        if isinstance(ann, ast.Subscript):
            head = dotted_name(ann.value)
            expanded = ProjectGraph.expand_alias(module, head)
            if expanded.split(".")[-1] in ("Optional", "Annotated"):
                inner = ann.slice
                elts = (
                    inner.elts
                    if isinstance(inner, ast.Tuple)
                    else [inner]
                )
                for el in elts:
                    out.extend(self._annotation_classes(module, el))
            return out
        dotted = dotted_name(ann)
        if dotted:
            ci = self.graph._resolve_class(module, dotted)
            if ci is not None:
                out.append(ci)
        return out

    # -- picklability violations (P601) ------------------------------------

    def picklability_violations(self) -> list[tuple[str, int, int, str]]:
        """(relpath, line, col, message) P601 proto-findings, sorted."""
        out: list[tuple[str, int, int, str]] = []
        for dispatch in self.dispatches:
            expr = dispatch.entry_expr
            if isinstance(expr, ast.Lambda):
                out.append(
                    (
                        dispatch.relpath,
                        expr.lineno,
                        expr.col_offset,
                        "a lambda cannot be a process-pool worker "
                        "entrypoint (it does not pickle); use a "
                        "module-level function",
                    )
                )
        for key in sorted(self.boundary_classes):
            reason = self.unpicklable_classes.get(key)
            ci = self.graph.classes.get(key)
            if reason is None or ci is None or ci.node is None:
                continue
            out.append(
                (
                    self.graph.modules[ci.module].relpath,
                    ci.node.lineno,
                    ci.node.col_offset,
                    f"class {ci.name} crosses the process boundary "
                    f"({self.boundary_classes[key].why}) but {reason} and "
                    "it defines no __getstate__/__reduce__",
                )
            )
        out.extend(self._boundary_ctor_flow())
        out.sort()
        return out

    def _boundary_fields(self, ci: ClassInfo) -> tuple[str, ...]:
        """Constructor-arg names of a boundary class, in positional order."""
        module = self.graph.modules.get(ci.module)
        if module is not None:
            init = self.graph._lookup_method(module, ci, "__init__")
            if init is not None and init.params:
                return init.params[1:]  # drop self
        if ci.node is None:
            return ()
        return tuple(
            stmt.target.id
            for stmt in ci.node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        )

    def _boundary_ctor_flow(self) -> list[tuple[str, int, int, str]]:
        """Interprocedural flow of unpicklable values into boundary ctors.

        Direct flows (an unpicklable expression or local as a constructor
        argument) are flagged at the construction site; an argument that
        is a parameter of the enclosing function propagates the demand to
        that function's callers, to a fixpoint.
        """
        fields_by_key = {
            key: self._boundary_fields(self.graph.classes[key])
            for key in sorted(self.boundary_classes)
            if key in self.graph.classes
        }
        out: list[tuple[str, int, int, str]] = []
        #: (qualname, param) -> description of the boundary field it feeds.
        demands: dict[tuple[str, str], str] = {}

        def check_args(
            fn: FunctionInfo,
            call: ast.Call,
            field_of,  # positional index / keyword name -> field label
            suffix: str,
        ) -> None:
            module = self.graph.modules[fn.module]
            env = (
                self._local_env(module, fn.node)
                if fn.node is not None
                else {}
            )
            params = set(fn.params)
            pairs: list[tuple[str, ast.expr]] = []
            for index, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    continue
                label = field_of(index, None)
                if label is not None:
                    pairs.append((label, arg))
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue
                label = field_of(None, keyword.arg)
                if label is not None:
                    pairs.append((label, keyword.value))
            for label, arg in pairs:
                desc = self.expr_unpicklable(module, arg, env)
                if desc is not None:
                    out.append(
                        (
                            fn.relpath,
                            arg.lineno,
                            arg.col_offset,
                            f"unpicklable value ({desc}) flows into "
                            f"{label}{suffix}",
                        )
                    )
                    continue
                if (
                    isinstance(arg, ast.Name)
                    and arg.id in params
                    and (fn.qualname, arg.id) not in demands
                ):
                    demands[(fn.qualname, arg.id)] = label

        # Seed: every construction site of a boundary class, project-wide.
        for qualname in sorted(self.graph.calls):
            fn = self.graph.functions[qualname]
            for site in self.graph.calls[qualname]:
                key = self._constructed_class_key(fn, site)
                if key is None or key not in fields_by_key:
                    continue
                fields = fields_by_key[key]
                cls_name = key.partition(":")[2]

                def field_of(index, kw, fields=fields, cls_name=cls_name):
                    if kw is not None:
                        name = kw if kw in fields else None
                    elif index is not None and index < len(fields):
                        name = fields[index]
                    else:
                        name = None
                    if name is None:
                        return None
                    return f"process-boundary field '{name}' of {cls_name}"

                check_args(fn, site.node, field_of, "")
        # Propagate demands through callers until no new demand appears.
        done: set[tuple[str, str]] = set()
        while True:
            pending = sorted(set(demands) - done)
            if not pending:
                break
            for demand in pending:
                done.add(demand)
                target_qualname, param = demand
                target_fn = self.graph.functions[target_qualname]
                param_list = list(target_fn.params)
                if target_fn.cls_name and param_list and param_list[0] in (
                    "self",
                    "cls",
                ):
                    param_list = param_list[1:]
                label = demands[demand]
                for qualname in sorted(self.graph.calls):
                    fn = self.graph.functions[qualname]
                    for site in self.graph.calls[qualname]:
                        if site.callee != target_qualname:
                            continue

                        def field_of(
                            index, kw, param=param, plist=param_list,
                            label=label,
                        ):
                            if kw is not None:
                                return label if kw == param else None
                            if index is not None and index < len(plist):
                                return (
                                    label if plist[index] == param else None
                                )
                            return None

                        check_args(
                            fn,
                            site.node,
                            field_of,
                            f" (via {target_fn.name}())",
                        )
        return out

    def _constructed_class_key(
        self, fn: FunctionInfo, site
    ) -> str | None:
        """The class a call site constructs, if it is a project class."""
        if site.callee is not None and site.callee.endswith(".__init__"):
            mod, _, rest = site.callee.partition(":")
            return f"{mod}:{rest.rpartition('.')[0]}"
        if site.callee is None and site.dotted:
            module = self.graph.modules[fn.module]
            ci = self.graph._resolve_class(module, site.dotted)
            if ci is not None:
                return class_key(ci)
        return None

    # -- homeward surfaces (P602) ------------------------------------------

    def homeward_scope(self) -> list[ClassInfo]:
        """Classes defining a homeward protocol with worker-reachable code."""
        out: list[ClassInfo] = []
        for key in sorted(self.graph.classes):
            ci = self.graph.classes[key]
            if not any(_is_homeward_method(name) for name in ci.methods):
                continue
            if not any(
                m.qualname in self.worker_reachable
                for m in ci.methods.values()
            ):
                continue
            out.append(ci)
        return out

    def homeward_surface(self, ci: ClassInfo) -> frozenset[str]:
        """Attributes the class's homeward protocol transitively reads."""
        module = self.graph.modules.get(ci.module)
        attrs: set[str] = set()
        seen: set[str] = set()
        frontier = [
            name for name in sorted(ci.methods) if _is_homeward_method(name)
        ]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            method = ci.methods.get(name)
            if method is None or method.node is None:
                continue
            for node in ast.walk(method.node):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                ):
                    attrs.add(node.attr)
                if isinstance(node, ast.Call):
                    dotted = dotted_name(node.func)
                    parts = dotted.split(".")
                    if (
                        len(parts) == 2
                        and parts[0] in ("self", "cls")
                        and module is not None
                        and self.graph._lookup_method(module, ci, parts[1])
                        is not None
                    ):
                        frontier.append(parts[1])
        return frozenset(attrs)

    def worker_mutations(
        self, ci: ClassInfo
    ) -> list[tuple[str, str, ast.AST]]:
        """(attr, method-name, node) worker-side mutations of ``self`` state."""
        out: list[tuple[str, str, ast.AST]] = []
        for name in sorted(ci.methods):
            if name in _MUTATION_EXEMPT or _is_homeward_method(name):
                continue
            method = ci.methods[name]
            if (
                method.qualname not in self.worker_reachable
                or method.node is None
            ):
                continue
            for node in ast.walk(method.node):
                attr = self._mutation_attr(node)
                if attr is not None:
                    out.append((attr, name, node))
        out.sort(key=lambda m: (m[0], m[2].lineno, m[2].col_offset))
        return out

    @staticmethod
    def _mutation_attr(node: ast.AST) -> str | None:
        """The self-attribute a statement/expression mutates, if any."""
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                ):
                    return target.attr
                if isinstance(target, ast.Subscript):
                    return _self_attr_root(target.value)
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    return _self_attr_root(target.value)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
        ):
            return _self_attr_root(node.func.value)
        return None

    # -- split-brain globals (P603) ----------------------------------------

    def module_mutable_globals(
        self, module: ModuleInfo
    ) -> dict[str, ast.stmt]:
        """Top-level names bound to mutable values, with their statements."""
        out: dict[str, ast.stmt] = {}
        for stmt in module.tree.body:
            value = getattr(stmt, "value", None)
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names or value is None:
                continue
            if self._is_mutable_value(module, value):
                for name in names:
                    out.setdefault(name, stmt)
        return out

    def _is_mutable_value(self, module: ModuleInfo, expr: ast.expr) -> bool:
        if isinstance(
            expr,
            (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
        ):
            return True
        if isinstance(expr, ast.Call):
            dotted = dotted_name(expr.func)
            if not dotted:
                return False
            expanded = ProjectGraph.expand_alias(module, dotted)
            if expanded in _MUTABLE_FACTORIES:
                return True
            return self.graph._resolve_class(module, dotted) is not None
        return False

    def global_accesses(
        self, fn: FunctionInfo, names: frozenset[str]
    ) -> tuple[set[str], dict[str, ast.AST]]:
        """(read names, write name -> node) for module globals in one function.

        A name locally rebound without a ``global`` statement shadows the
        module global and is ignored entirely.
        """
        node = fn.node
        if node is None:
            return set(), {}
        declared_global: set[str] = set()
        local_bound: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
            elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    sub.targets
                    if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        local_bound.add(target.id)
            elif isinstance(sub, (ast.For, ast.comprehension)):
                target = sub.target
                for t in ast.walk(target):
                    if isinstance(t, ast.Name):
                        local_bound.add(t.id)
        params = set(fn.params)
        visible = {
            name
            for name in names
            if name in declared_global
            or (name not in local_bound and name not in params)
        }
        reads: set[str] = set()
        writes: dict[str, ast.AST] = {}

        def note_write(name: str | None, site: ast.AST) -> None:
            if name in visible and name not in writes:
                writes[name] = site

        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in visible:
                    reads.add(sub.id)
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    sub.targets
                    if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        if target.id in declared_global:
                            note_write(target.id, sub)
                    elif isinstance(target, ast.Subscript):
                        note_write(_name_root(target.value), sub)
            elif isinstance(sub, ast.Delete):
                for target in sub.targets:
                    if isinstance(target, ast.Subscript):
                        note_write(_name_root(target.value), sub)
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in MUTATING_METHODS
            ):
                note_write(_name_root(sub.func.value), sub)
        return reads, writes

    # -- merge folds (P604) ------------------------------------------------

    def merge_folds(
        self, dispatch: DispatchSite
    ) -> list[tuple[ast.AST, str]]:
        """Order-sensitive folds over this dispatch's results.

        Returns ``(node, description)`` pairs for accumulator
        ``update``/``extend`` calls and ``+=``/``|=`` folds whose operand
        derives from the pooled results, unless the fold routes through
        an order-pinned ``adopt_*``/``apply_to`` path (those are never
        collected) or stores per-key items.
        """
        caller = self.graph.functions.get(dispatch.caller)
        if caller is None or caller.node is None:
            return []
        derived: set[str] = set()
        body = list(ast.walk(caller.node))
        for node in body:
            if isinstance(node, ast.Assign) and any(
                sub is dispatch.call for sub in ast.walk(node.value)
            ):
                for target in node.targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Name):
                            derived.add(t.id)

        def mentions_derived(expr: ast.AST) -> bool:
            return any(
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id in derived
                for sub in ast.walk(expr)
            )

        # Propagate through result loops and zip/enumerate aliases until
        # stable (loops may nest and alias in either source order).
        changed = True
        while changed:
            changed = False
            for node in body:
                if isinstance(node, ast.For) and mentions_derived(node.iter):
                    for t in ast.walk(node.target):
                        if isinstance(t, ast.Name) and t.id not in derived:
                            derived.add(t.id)
                            changed = True
                elif isinstance(node, ast.Assign) and mentions_derived(
                    node.value
                ):
                    for target in node.targets:
                        for t in ast.walk(target):
                            if (
                                isinstance(t, ast.Name)
                                and t.id not in derived
                            ):
                                derived.add(t.id)
                                changed = True
        out: list[tuple[ast.AST, str]] = []
        for node in body:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _FOLD_METHODS
            ):
                root = _name_root(node.func.value)
                if (
                    root is not None
                    and root not in derived
                    and any(mentions_derived(arg) for arg in node.args)
                ):
                    out.append(
                        (
                            node,
                            f"'{root}.{node.func.attr}(...)' folds "
                            "process-shard results",
                        )
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.BitOr, ast.BitAnd)
            ):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id not in derived
                    and mentions_derived(node.value)
                ):
                    out.append(
                        (
                            node,
                            f"'{node.target.id} "
                            f"{_AUG_OPS.get(type(node.op), 'op')}= ...' "
                            "folds process-shard results",
                        )
                    )
        out.sort(key=lambda pair: (pair[0].lineno, pair[0].col_offset))
        return out


_AUG_OPS = {ast.Add: "+", ast.BitOr: "|", ast.BitAnd: "&"}


def process_boundary(graph: ProjectGraph) -> ProcessBoundaryAnalysis:
    """The process-boundary analysis of a graph, computed once and cached."""
    cached = getattr(graph, "_procbound", None)
    if cached is None:
        cached = ProcessBoundaryAnalysis.build(graph)
        graph._procbound = cached
    return cached
