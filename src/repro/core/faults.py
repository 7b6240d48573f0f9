"""Fault isolation and fault injection.

Large-scale extraction runs over hundreds of noisy sources; one source
crashing must never take its siblings down with it.  This module is the
resilience layer the multi-source executor and the pipeline build on:

- :data:`FAIL_FAST` / :data:`ISOLATE` — the failure policies of
  ``ObjectRunner.run_sources``: abort the batch on the first unexpected
  per-source failure (cancelling pending work, partial results attached
  to the raised :class:`~repro.errors.MultiSourceError`), or record the
  failure as a :class:`SourceFailure` and let the surviving sources
  finish untouched.
- :class:`FaultInjector` — a deterministic test harness that wraps
  pipeline stages to crash or delay them on configured calls
  (:class:`FaultSpec`), with every decision derived from an explicit
  seed.

Sleeping is owned by this module: :func:`wall_sleep` is the only place
in the library that calls ``time.sleep``, and everything that might wait
accepts an injectable sleep callable so tests never wall-sleep.  The
sleep guard in ``tests/conftest.py`` fails any test in which package or
test code calls ``time.sleep`` anywhere else.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import InjectedFaultError
from repro.utils.rng import DeterministicRng, derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.pipeline import PipelineContext, Stage

#: Abort the multi-source batch on the first unexpected failure.
FAIL_FAST = "fail_fast"
#: Record per-source failures and let sibling sources finish.
ISOLATE = "isolate"
#: Every failure policy ``RunParams.failure_policy`` accepts.
FAILURE_POLICIES = (FAIL_FAST, ISOLATE)

#: A sleep callable: seconds -> None.
SleepFn = Callable[[float], None]


def wall_sleep(seconds: float) -> None:
    """Really sleep — the library's single ``time.sleep`` call site.

    Everything that waits (injected delay faults) takes an injectable
    :data:`SleepFn` defaulting to this function, so tests swap
    in a recording fake and never spend wall-clock time (the sleep guard
    in ``tests/conftest.py`` fails any other ``time.sleep`` call).
    """
    if seconds > 0:
        time.sleep(seconds)


# -- failure records -------------------------------------------------------


@dataclass(frozen=True)
class SourceFailure:
    """One source's unexpected failure during a multi-source run.

    Unlike a *discard* (the paper's alpha gate — a recorded, expected
    outcome on :class:`~repro.core.results.SourceResult`), a failure is
    an exception the pipeline did not anticipate.  Under the
    :data:`ISOLATE` policy these are collected on
    ``MultiSourceResult.failures``; under :data:`FAIL_FAST` the first one
    aborts the batch.
    """

    #: The source whose run raised.
    source: str
    #: The pipeline stage that raised ('' when the failure happened
    #: outside any stage).
    stage: str
    #: ``TypeName: message`` of the exception.
    error: str
    #: The original exception object, for programmatic inspection.
    exception: BaseException | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_exception(cls, source: str, exc: BaseException) -> "SourceFailure":
        """Build a record from an exception the pipeline marked.

        The pipeline stamps unexpected exceptions with ``repro_stage``
        before re-raising; an absent stamp degrades to an empty stage.
        """
        return cls(
            source=source,
            stage=getattr(exc, "repro_stage", ""),
            error=f"{type(exc).__name__}: {exc}",
            exception=exc,
        )


# -- fault injection -------------------------------------------------------

#: Fault kinds a :class:`FaultSpec` can inject.
CRASH = "crash"
DELAY = "delay"
FAULT_KINDS = (CRASH, DELAY)


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault: which stage, which source, what happens.

    ``times`` bounds how many calls the fault fires on, counted per
    ``(source, stage)``: a fault with ``times=1`` fires on the first run
    of the stage for that source and lets later runs (another pipeline
    pass, another batch) through.  ``probability`` below 1.0 makes the
    decision stochastic but still deterministic: the coin flip is seeded
    by the injector's seed and the fault coordinates.
    """

    #: Stage name the fault attaches to.
    stage: str
    #: Source the fault is limited to ('' matches every source).
    source: str = ""
    #: One of :data:`CRASH`, :data:`DELAY`.
    kind: str = CRASH
    #: Number of calls (per source and stage) the fault fires on.
    times: int = 1
    #: Seconds a :data:`DELAY` fault sleeps (through the injectable sleep).
    delay: float = 0.0
    #: Chance the fault fires on an eligible call, in [0, 1].
    probability: float = 1.0
    #: Message carried by the raised error.
    message: str = "injected fault"

    def __post_init__(self) -> None:
        """Reject unknown kinds and out-of-range knobs early."""
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        if not self.stage:
            raise ValueError("FaultSpec.stage must name a pipeline stage")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def matches(self, source: str, stage: str) -> bool:
        """Whether this fault applies to the given source and stage."""
        return stage == self.stage and self.source in ("", source)


class FaultInjector:
    """Deterministic fault-injection harness for pipeline stages.

    Wrap the stages of a pipeline (:meth:`wrap_all`) and every configured
    :class:`FaultSpec` fires *before* the wrapped stage body runs:
    ``crash`` raises :class:`~repro.errors.InjectedFaultError` and
    ``delay`` sleeps through the injectable ``sleep``.  Calls are counted
    per ``(source, stage)`` under a lock, and probabilistic faults flip a
    coin seeded by ``(seed, source, stage, n)`` for the n-th call —
    re-running the same configuration reproduces the same faults
    exactly.  Every fired
    fault is logged on :attr:`fired`.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec] = (),
        seed: int = 0,
        sleep: SleepFn | None = None,
    ):
        self.specs = list(specs)
        self.seed = seed
        self._sleep: SleepFn = sleep if sleep is not None else wall_sleep
        self._lock = threading.Lock()
        self._attempts: dict[tuple[str, str], int] = {}
        #: Log of fired faults: (source, stage, kind, attempt) tuples in
        #: firing order (ordering across threads is scheduling-dependent;
        #: per-source order is not).
        self.fired: list[tuple[str, str, str, int]] = []

    # - stage wrapping -

    def wrap(self, stage: "Stage") -> "Stage":
        """Wrap one stage so configured faults fire before it runs."""
        return _FaultableStage(stage, self)

    def wrap_all(self, stages: Iterable["Stage"]) -> list["Stage"]:
        """Wrap every stage of a pipeline, preserving order."""
        return [self.wrap(stage) for stage in stages]

    def attempts(self, source: str, stage: str) -> int:
        """How many times the given source/stage has run so far."""
        with self._lock:
            return self._attempts.get((source, stage), 0)

    def fire(self, source: str, stage: str) -> None:
        """Apply the first matching fault for this call, if any.

        Called by the stage wrapper on every run of the stage; counts the
        call even when no fault fires, so ``times`` budgets count runs.
        """
        with self._lock:
            key = (source, stage)
            attempt = self._attempts.get(key, 0) + 1
            self._attempts[key] = attempt
        spec = next(
            (s for s in self.specs if s.matches(source, stage)), None
        )
        if spec is None or attempt > spec.times:
            return
        if spec.probability < 1.0:
            rng = DeterministicRng(
                derive_seed(self.seed, source, stage, attempt)
            )
            if not rng.coin(spec.probability):
                return
        with self._lock:
            self.fired.append((source, stage, spec.kind, attempt))
        if spec.kind == DELAY:
            self._sleep(spec.delay)
            return
        detail = (
            f"{spec.message} (source={source!r}, stage={stage!r}, "
            f"attempt={attempt})"
        )
        raise InjectedFaultError(detail)


class _FaultableStage:
    """A stage wrapper consulting a :class:`FaultInjector` before running.

    Mirrors the :class:`~repro.core.pipeline.Stage` surface (name,
    timing field, contract declarations, ``enabled``/``run``) so the
    pipeline drives it like the stage it wraps.  Not registered with the
    stage registry — fault wrapping is per-pipeline, never global.
    """

    def __init__(self, inner: "Stage", injector: FaultInjector):
        self._inner = inner
        self._injector = injector
        self.name = inner.name
        self.timing_field = inner.timing_field
        self.reads = inner.reads
        self.writes = inner.writes

    def enabled(self, ctx: "PipelineContext") -> bool:
        return self._inner.enabled(ctx)

    def run(self, ctx: "PipelineContext") -> None:
        self._injector.fire(ctx.source, self.name)
        self._inner.run(ctx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_FaultableStage({self._inner!r})"
