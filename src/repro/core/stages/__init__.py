"""Concrete pipeline stages, one per box of the paper's Figure 1.

Importing this package registers every standard stage with the global
registry in :mod:`repro.core.pipeline`, so
:func:`repro.core.pipeline.build_stages` can assemble pipelines by name:

========================  =============================  ==================
Paper section             Stage class                    Registry name
========================  =============================  ==================
III-B pre-processing      :class:`PreprocessStage`       ``preprocess``
III-B page segmentation   :class:`SegmentationStage`     ``segmentation``
III-C / Algorithm 1       :class:`AnnotationStage`       ``annotation``
IV   / Algorithm 2        :class:`WrapperGenerationStage` ``wrapping``
IV-B extraction           :class:`ExtractionStage`       ``extraction``
IV-A feedback (Eq. 4)     :class:`EnrichmentStage`       ``enrichment``
========================  =============================  ==================

The one stage order (``DEFAULT_STAGE_ORDER``) also holds three registry
stages around the classics: ``registry_match`` (wrapper lookup by
template fingerprint, a hit skips induction), ``registry_check``
(post-extract demotion of stale wrappers) and ``registry_store``
(persist freshly induced wrappers).  They excuse themselves when the
context carries no wrapper registry.
"""

from repro.core.stages.annotate import AnnotationStage
from repro.core.stages.enrich import EnrichmentStage
from repro.core.stages.extract import ExtractionStage
from repro.core.stages.preprocess import PreprocessStage, SegmentationStage
from repro.core.stages.registry import (
    RegistryCheckStage,
    RegistryMatchStage,
    RegistryStoreStage,
)
from repro.core.stages.wrap import WrapperGenerationStage, prefer_wrapper

__all__ = [
    "PreprocessStage",
    "SegmentationStage",
    "AnnotationStage",
    "WrapperGenerationStage",
    "ExtractionStage",
    "EnrichmentStage",
    "RegistryMatchStage",
    "RegistryCheckStage",
    "RegistryStoreStage",
    "prefer_wrapper",
]
