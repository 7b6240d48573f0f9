"""Wrapper registry: content-addressed persistence of induced wrappers.

The scale lever of wrapper-based extraction is reuse: a wrapper learned
once from a template amortizes over every page that template renders
(Dalvi et al., *Automatic Wrappers for Large Scale Web Extraction*).
This package turns the one-file save/load flow into that store:

- :mod:`repro.registry.store` — the content-addressed
  :class:`WrapperRegistry` keyed by canonical SOD + structural
  fingerprint, with atomic writes, a deterministic index and
  order-pinned merge semantics.
- :mod:`repro.registry.files` — single-file save/load (the deprecated
  ``--save-wrapper``/``--load-wrapper`` formats) with a fingerprint
  check so a wrapper is never silently applied to a foreign template.
"""

from repro.registry.files import (
    fingerprint_matches,
    load_wrapper_file,
    save_wrapper_file,
)
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
    "fingerprint_matches",
    "load_wrapper_file",
    "save_wrapper_file",
    "signature_for",
    "write_json_atomic",
]
