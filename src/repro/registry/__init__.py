"""Wrapper registry: content-addressed persistence of induced wrappers.

The scale lever of wrapper-based extraction is reuse: a wrapper learned
once from a template amortizes over every page that template renders
(Dalvi et al., *Automatic Wrappers for Large Scale Web Extraction*).
:mod:`repro.registry.store` holds the content-addressed
:class:`WrapperRegistry`, keyed by canonical SOD + structural
fingerprint, with atomic writes, a deterministic index and order-pinned
merge semantics.  A stored wrapper is only served to pages whose
fingerprint matches, so it is never applied to a foreign template.
"""

from repro.registry.store import (
    KIND_DISCARD,
    KIND_WRAPPER,
    REGISTRY_SCHEMA_VERSION,
    RegistryEntry,
    StagedRegistryView,
    StoredDiscard,
    WrapperRegistry,
    signature_for,
    write_json_atomic,
)

__all__ = [
    "KIND_DISCARD",
    "KIND_WRAPPER",
    "REGISTRY_SCHEMA_VERSION",
    "RegistryEntry",
    "StagedRegistryView",
    "StoredDiscard",
    "WrapperRegistry",
    "signature_for",
    "write_json_atomic",
]
