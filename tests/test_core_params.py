"""Tests for run parameters."""

import dataclasses

import pytest

from repro.core.params import RunParams


class TestRunParams:
    def test_paper_defaults(self):
        params = RunParams()
        assert params.sample_size == 20
        assert params.alpha == 0.5
        assert params.generalization_threshold == 0.7
        assert params.support_values == (3, 4, 5)

    def test_with_overrides(self):
        params = RunParams().with_overrides(sample_size=5, alpha=0.3)
        assert params.sample_size == 5
        assert params.alpha == 0.3
        assert params.support_values == (3, 4, 5)  # untouched

    def test_overrides_do_not_mutate_original(self):
        original = RunParams()
        original.with_overrides(sample_size=5)
        assert original.sample_size == 20

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunParams().sample_size = 3  # type: ignore[misc]


class TestWithOverrides:
    def test_every_declared_field_round_trips(self):
        defaults = RunParams()
        for field in dataclasses.fields(RunParams):
            value = getattr(defaults, field.name)
            overridden = defaults.with_overrides(**{field.name: value})
            assert overridden == defaults, field.name

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown RunParams field"):
            RunParams().with_overrides(sample_sze=5)

    def test_unknown_key_error_names_the_key(self):
        with pytest.raises(ValueError, match="sample_sze"):
            RunParams().with_overrides(sample_sze=5)

    def test_overrides_revalidate(self):
        # dataclasses.replace re-runs __post_init__, so an override can
        # never smuggle in an invalid value.
        with pytest.raises(ValueError):
            RunParams().with_overrides(chaos_ratio=1.5)


class TestValidation:
    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_chaos_ratio_must_be_a_ratio(self, value):
        with pytest.raises(ValueError, match="chaos_ratio"):
            RunParams(chaos_ratio=value)

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_chaos_ratio_bounds_are_inclusive(self, value):
        assert RunParams(chaos_ratio=value).chaos_ratio == value

    def test_failure_policy_must_be_known(self):
        with pytest.raises(ValueError, match="failure_policy"):
            RunParams(failure_policy="shrug")

    @pytest.mark.parametrize("value", ["fail_fast", "isolate"])
    def test_valid_failure_policies(self, value):
        assert RunParams(failure_policy=value).failure_policy == value

