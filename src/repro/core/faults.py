"""Fault isolation, deterministic retry/backoff, and fault injection.

Large-scale extraction runs over hundreds of noisy sources; one source
crashing must never take its siblings down with it.  This module is the
resilience layer the multi-source executor and the pipeline build on:

- :class:`RetryPolicy` — how many times a stage raising
  :class:`~repro.errors.TransientSourceError` is re-attempted, and how
  long to back off between attempts.  Backoff is exponential with
  *seeded* jitter (through :class:`~repro.utils.rng.DeterministicRng`),
  so two runs compute byte-identical delay schedules.
- :data:`FAIL_FAST` / :data:`ISOLATE` — the failure policies of
  ``ObjectRunner.run_sources``: abort the batch on the first unexpected
  per-source failure (cancelling pending work, partial results attached
  to the raised :class:`~repro.errors.MultiSourceError`), or record the
  failure as a :class:`SourceFailure` and let the surviving sources
  finish untouched.
- :class:`FaultInjector` — a deterministic test harness that wraps
  pipeline stages to crash them, delay them, or make them transiently
  fail on configured attempts (:class:`FaultSpec`), with every decision
  derived from an explicit seed.

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
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import InjectedFaultError, TransientSourceError
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

    Everything that waits (retry backoff, injected delay faults) takes an
    injectable :data:`SleepFn` defaulting to this function, so tests swap
    in a recording fake and never spend wall-clock time (the sleep guard
    in ``tests/conftest.py`` fails any other ``time.sleep`` call).
    """
    if seconds > 0:
        time.sleep(seconds)


# -- retry policy ----------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff for transient stage failures.

    A stage raising :class:`~repro.errors.TransientSourceError` is
    re-attempted up to ``max_retries`` extra times.  The delay before
    retry ``n`` (1-based) is ``base_delay * backoff_factor**(n-1)``
    capped at ``max_delay``, then jittered by up to ``±jitter`` of
    itself.  The jitter is drawn from a :class:`DeterministicRng` seeded
    by ``(seed, source, stage, attempt)``, so the full delay schedule is
    a pure function of the policy and the retry coordinates — no shared
    RNG state, no cross-thread ordering effects.
    """

    #: Extra attempts after the first (0 disables retrying).
    max_retries: int = 0
    #: Seconds before the first retry.
    base_delay: float = 0.05
    #: Multiplier applied per further retry.
    backoff_factor: float = 2.0
    #: Upper bound on the un-jittered delay.
    max_delay: float = 2.0
    #: Jitter amplitude as a fraction of the delay, in [0, 1].
    jitter: float = 0.1
    #: Seed for the deterministic jitter stream.
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject configurations that could not have been intended."""
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    @property
    def max_attempts(self) -> int:
        """Total attempts: the first try plus ``max_retries`` retries."""
        return self.max_retries + 1

    @classmethod
    def from_params(cls, params: Any) -> "RetryPolicy":
        """The policy implied by a :class:`~repro.core.params.RunParams`."""
        return cls(max_retries=params.max_retries)

    def delay(self, attempt: int, source: str = "", stage: str = "") -> float:
        """Seconds to back off before retry number ``attempt`` (1-based).

        Deterministic: the same ``(policy, source, stage, attempt)``
        always yields the same delay, on any thread, in any order.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        base = min(
            self.base_delay * self.backoff_factor ** (attempt - 1),
            self.max_delay,
        )
        if not self.jitter or not base:
            return base
        rng = DeterministicRng(derive_seed(self.seed, source, stage, attempt))
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


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
    #: How many attempts the failing stage made (> 1 after retries).
    attempts: int = 1
    #: The original exception object, for programmatic inspection.
    exception: BaseException | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_exception(cls, source: str, exc: BaseException) -> "SourceFailure":
        """Build a record from an exception the pipeline marked.

        The pipeline stamps unexpected exceptions with ``repro_stage``
        and ``repro_attempts`` before re-raising; absent stamps degrade
        to an empty stage and a single attempt.
        """
        return cls(
            source=source,
            stage=getattr(exc, "repro_stage", ""),
            error=f"{type(exc).__name__}: {exc}",
            attempts=getattr(exc, "repro_attempts", 1),
            exception=exc,
        )


# -- fault injection -------------------------------------------------------

#: Fault kinds a :class:`FaultSpec` can inject.
CRASH = "crash"
TRANSIENT = "transient"
DELAY = "delay"
FAULT_KINDS = (CRASH, TRANSIENT, DELAY)


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault: which stage, which source, what happens.

    ``times`` bounds how many attempts the fault fires on, counted per
    ``(source, stage)``: a ``transient`` fault with ``times=1`` fails the
    first attempt and lets the retry succeed — the canonical
    succeeds-on-attempt-2 scenario.  ``probability`` below 1.0 makes the
    decision stochastic but still deterministic: the coin flip is seeded
    by the injector's seed and the fault coordinates.
    """

    #: Stage name the fault attaches to.
    stage: str
    #: Source the fault is limited to ('' matches every source).
    source: str = ""
    #: One of :data:`CRASH`, :data:`TRANSIENT`, :data:`DELAY`.
    kind: str = CRASH
    #: Number of attempts (per source and stage) the fault fires on.
    times: int = 1
    #: Seconds a :data:`DELAY` fault sleeps (through the injectable sleep).
    delay: float = 0.0
    #: Chance the fault fires on an eligible attempt, in [0, 1].
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
    ``crash`` raises :class:`~repro.errors.InjectedFaultError`,
    ``transient`` raises :class:`~repro.errors.TransientSourceError` (so
    the pipeline's retry loop engages), and ``delay`` sleeps through the
    injectable ``sleep``.  Attempts are counted per ``(source, stage)``
    under a lock, so the harness is safe under the parallel multi-source
    executor, and probabilistic faults flip a coin seeded by
    ``(seed, source, stage, attempt)`` — re-running the same
    configuration reproduces the same faults exactly.

    The injector only fires faults and logs them on :attr:`fired`; the
    retries they trigger surface as ``stage_retry`` events to the
    pipeline's observers (``retries.<stage>`` counters in
    :class:`~repro.metrics.observer.MetricsObserver`, one trace line each
    in :class:`~repro.core.pipeline.TraceObserver`).
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
        """How many attempts the given source/stage has made so far."""
        with self._lock:
            return self._attempts.get((source, stage), 0)

    def fire(self, source: str, stage: str) -> None:
        """Apply the first matching fault for this attempt, if any.

        Called by the stage wrapper on every attempt; counts the attempt
        even when no fault fires so ``times`` budgets line up with the
        pipeline's retry numbering.
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
        if spec.kind == TRANSIENT:
            raise TransientSourceError(detail)
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
