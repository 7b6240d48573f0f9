"""The public API surface: every documented entry point imports and exists."""

import importlib
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"
#: Every module of the package, packages by their dotted name.
ALL_MODULES = sorted(
    ".".join(path.relative_to(SRC_ROOT).with_suffix("").parts).removesuffix(
        ".__init__"
    )
    for path in (SRC_ROOT / "repro").rglob("*.py")
)

PUBLIC_MODULES = [
    "repro",
    "repro.annotation",
    "repro.baselines",
    "repro.core",
    "repro.corpus",
    "repro.datasets",
    "repro.errors",
    "repro.eval",
    "repro.htmlkit",
    "repro.kb",
    "repro.metrics",
    "repro.recognizers",
    "repro.registry",
    "repro.service",
    "repro.sod",
    "repro.turk",
    "repro.utils",
    "repro.vision",
    "repro.wrapper",
]


class TestImports:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        namespace: dict = {}
        exec(f"from {module_name} import *", namespace)
        for name in getattr(module, "__all__", []):
            assert name in namespace, f"{module_name}.{name}"

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()


class TestTopLevelApi:
    def test_headline_names(self):
        import repro

        for name in (
            "ObjectRunner",
            "parse_sod",
            "RunParams",
            "SourceResult",
            "ObjectInstance",
            "SourceDiscardedError",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_version(self):
        import repro

        assert repro.__version__

    def test_public_callables_documented(self):
        import repro

        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type(Exception)):
                assert obj.__doc__, f"repro.{name} lacks a docstring"
