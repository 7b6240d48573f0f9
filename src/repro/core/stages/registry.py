"""Registry stages: match -> (induce on miss) -> extract -> check/store.

The registry stages of ``DEFAULT_STAGE_ORDER`` split the monolithic
induce-then-extract flow around the wrapper registry:

- :class:`RegistryMatchStage` runs right after pre-processing.  It
  fingerprints the tidied pages — by majority vote over the per-page
  fingerprints the preprocessing cache keeps, when the pages came
  through it, without building a tree for a page the cache holds — and
  looks the (SOD, template) signature up in the
  registry; a hit installs the stored wrapper on the context,
  which disables segmentation, annotation and wrapper generation for the
  rest of the run — induction is skipped entirely.
- :class:`RegistryCheckStage` runs after extraction, only for registry
  wrappers.  If the wrapper extracted objects from fewer than a fraction
  ``alpha`` of the pages (the same threshold Algorithm 1 applies to
  annotation rates), the template has drifted: the entry is demoted so
  the next request re-induces.
- :class:`RegistryStoreStage` persists a freshly induced wrapper under
  the fingerprint computed at match time, completing the wrap-once /
  extract-often loop.

All three stages are inert (``enabled`` returns False) when the context
carries no registry, and a skipped stage emits no event, so a run
without a registry is byte-identical to the classic six-stage path.
The re-run after a demotion and the tombstone write-back of an induced
discard live in ``ObjectRunner._run``.
"""

from __future__ import annotations

from repro.core.pipeline import PipelineContext, Stage, register_stage
from repro.core.stages.preprocess import PAGE_KEYS_KEY
from repro.errors import SourceDiscardedError
from repro.htmlkit.fingerprint import pages_fingerprint
from repro.registry.store import StoredDiscard, signature_for

#: ``ctx.artifacts`` key holding the fingerprint computed at match time.
FINGERPRINT_KEY = "registry_fingerprint"

#: ``ctx.artifacts`` key recording where the wrapper came from:
#: ``"registry"`` (hit) or ``"induced"`` (miss -> wrapper generation).
ORIGIN_KEY = "wrapper_origin"

#: ``ctx.artifacts`` key set by the check stage when it demoted the
#: wrapper; callers re-run the source to induce a fresh one.
DEMOTED_KEY = "registry_demoted"


@register_stage
class RegistryMatchStage(Stage):
    """Resolve the source's template against the wrapper registry."""

    name = "registry_match"
    timing_field = "registry"
    reads = ("registry", "pages", "cache", "sod", "source", "wrapper")
    writes = ("wrapper", "result")

    def enabled(self, ctx: PipelineContext) -> bool:
        """Run only on the registry path, and not with a preset wrapper."""
        return ctx.registry is not None and ctx.wrapper is None

    def run(self, ctx: PipelineContext) -> None:
        """Fingerprint the pages and install the stored wrapper on a hit.

        A stored discard tombstone is also a hit: the recorded discard is
        replayed verbatim, so a warm run reports the same stage and
        reason as the cold run that first discarded the source — without
        re-paying the doomed induction.
        """
        keys = ctx.artifacts.get(PAGE_KEYS_KEY)
        pages = ctx.pages
        if keys is None:
            fingerprint = pages_fingerprint(pages)
        else:
            # A page is indexed (and a cache hit thawed) only when it is
            # not resident: a resident page is fingerprinted from its
            # snapshot.
            fingerprint = pages_fingerprint(
                range(len(keys)),
                lambda index: ctx.cache.page_fingerprint(
                    keys[index], lambda: pages[index]
                ),
            )
        ctx.artifacts[FINGERPRINT_KEY] = fingerprint
        stored = ctx.registry.lookup(ctx.sod, fingerprint)
        if stored is None:
            ctx.artifacts[ORIGIN_KEY] = "induced"
            ctx.count("registry_misses")
            return
        ctx.artifacts[ORIGIN_KEY] = "registry"
        ctx.count("registry_hits")
        if isinstance(stored, StoredDiscard):
            raise SourceDiscardedError(
                ctx.source, stage=stored.stage, reason=stored.reason
            )
        ctx.wrapper = stored
        ctx.result.wrapper = stored
        ctx.result.support_used = stored.support
        ctx.result.conflicts = stored.conflicts


@register_stage
class RegistryCheckStage(Stage):
    """Demote a registry wrapper that no longer extracts at threshold.

    The paper's Algorithm 1 discards sources whose annotation rate falls
    below ``alpha``; the same threshold applied post-extraction catches
    *stale* wrappers — the template changed since induction, so the
    stored wrapper covers too few pages.  Demotion removes the registry
    entry and flags the context so the caller re-induces.
    """

    name = "registry_check"
    timing_field = "registry"
    reads = ("registry", "pages", "params", "result", "sod")
    writes = ()

    def enabled(self, ctx: PipelineContext) -> bool:
        """Run only when the wrapper in play came from the registry."""
        return (
            ctx.registry is not None
            and ctx.artifacts.get(ORIGIN_KEY) == "registry"
        )

    def run(self, ctx: PipelineContext) -> None:
        """Demote the stored wrapper when its extraction rate is < alpha."""
        if not ctx.pages:
            return
        covered = {instance.page_index for instance in ctx.result.objects}
        rate = len(covered) / len(ctx.pages)
        if rate >= ctx.params.alpha:
            return
        signature = signature_for(ctx.sod, ctx.artifacts[FINGERPRINT_KEY])
        ctx.registry.demote(signature)
        ctx.artifacts[DEMOTED_KEY] = True
        ctx.count("registry_demotions")


@register_stage
class RegistryStoreStage(Stage):
    """Persist a freshly induced wrapper in the registry."""

    name = "registry_store"
    timing_field = "registry"
    reads = ("registry", "wrapper", "sod")
    writes = ()

    def enabled(self, ctx: PipelineContext) -> bool:
        """Run only after a miss that went through wrapper generation."""
        return (
            ctx.registry is not None
            and ctx.wrapper is not None
            and ctx.artifacts.get(ORIGIN_KEY) == "induced"
        )

    def run(self, ctx: PipelineContext) -> None:
        """Store the induced wrapper under the fingerprint from match time."""
        ctx.registry.put(
            ctx.sod, ctx.artifacts[FINGERPRINT_KEY], ctx.wrapper
        )
        ctx.count("registry_stores")
