"""Tests for the exception hierarchy and result containers."""

import pytest

from repro.core.faults import SourceFailure
from repro.core.results import MultiSourceResult, SourceResult, StageTimings
from repro.errors import (
    HtmlParseError,
    InjectedFaultError,
    MultiSourceError,
    RecognizerError,
    ReproError,
    SodError,
    SodSyntaxError,
    SourceDiscardedError,
    UnknownTypeError,
    WrapperError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            HtmlParseError,
            SodError,
            SodSyntaxError,
            RecognizerError,
            UnknownTypeError,
            WrapperError,
            MultiSourceError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    def test_injected_fault_is_not_a_repro_error(self):
        # Injected crashes must look like genuinely unexpected failures,
        # so no library except handler may swallow them.
        assert issubclass(InjectedFaultError, RuntimeError)
        assert not issubclass(InjectedFaultError, ReproError)

    def test_sod_syntax_is_sod_error(self):
        assert issubclass(SodSyntaxError, SodError)

    def test_unknown_type_is_recognizer_error(self):
        assert issubclass(UnknownTypeError, RecognizerError)


class TestSourceDiscardedError:
    def test_carries_context(self):
        error = SourceDiscardedError("emusic", stage="annotation", reason="no hits")
        assert error.source == "emusic"
        assert error.stage == "annotation"
        assert error.reason == "no hits"
        assert "emusic" in str(error)
        assert "annotation" in str(error)

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            raise SourceDiscardedError("x", stage="wrapper", reason="r")


class TestStageTimings:
    def test_total_sums_stages(self):
        timings = StageTimings(
            preprocess=1.0, annotation=2.0, wrapping=3.0, extraction=0.5
        )
        assert timings.total == 6.5

    def test_defaults_zero(self):
        assert StageTimings().total == 0.0

    def test_as_dict_covers_every_field(self):
        # as_dict is derived from dataclasses.fields, so a new stage field
        # can never silently drop out of totals or reports.
        import dataclasses

        timings = StageTimings(
            preprocess=1.0, annotation=2.0, wrapping=3.0, extraction=0.5
        )
        as_dict = timings.as_dict()
        assert set(as_dict) == {
            f.name for f in dataclasses.fields(StageTimings)
        }
        assert sum(as_dict.values()) == timings.total


class TestResultContainers:
    def test_source_result_ok_logic(self):
        result = SourceResult(source="s")
        assert not result.ok  # no wrapper yet
        result.discarded = True
        assert not result.ok

    def test_multi_source_counters(self):
        ok = SourceResult(source="a")
        ok.wrapper = object()  # any non-None wrapper
        bad = SourceResult(source="b", discarded=True)
        multi = MultiSourceResult(results={"a": ok, "b": bad})
        assert multi.sources_ok == 1
        assert multi.sources_discarded == 1

    def test_multi_source_failures(self):
        failure = SourceFailure(
            source="c", stage="wrapping", error="RuntimeError: boom"
        )
        multi = MultiSourceResult(results={}, failures={"c": failure})
        assert multi.sources_failed == 1
        assert multi.failures["c"].stage == "wrapping"

    def test_failures_default_empty(self):
        assert MultiSourceResult().failures == {}
        assert MultiSourceResult().sources_failed == 0


class TestMultiSourceError:
    def test_carries_partial_and_failure(self):
        failure = SourceFailure(source="b", stage="wrapping", error="boom")
        partial = MultiSourceResult(failures={"b": failure})
        error = MultiSourceError(
            "source 'b' failed", partial=partial, failure=failure
        )
        assert error.partial is partial
        assert error.failure is failure

    def test_defaults_to_no_context(self):
        error = MultiSourceError("bare")
        assert error.partial is None
        assert error.failure is None
