"""Unit tests for the GVEX configuration."""

import json

import pytest

from repro.core import Configuration, CoverageBound
from repro.exceptions import ConfigurationError

# One variant per explainer-visible knob; each must get its own fingerprint.
KNOB_VARIANTS = [
    Configuration(theta=0.2),
    Configuration(gamma=0.9),
    Configuration(radius=0.5),
    Configuration(seed=99),
    Configuration(min_check_size=4),
    Configuration(max_pattern_size=3),
    Configuration(diversity_hops=2),
    Configuration(match_cache_size=64),
    Configuration().with_default_bound(0, 9),
    Configuration().with_bound(1, 0, 5),
]

SAMPLED_VARIANTS = [
    Configuration(objective="sampled"),
    Configuration(objective="sampled", sample_budget=64, epsilon=0.3, delta=0.2),
    Configuration(objective="sampled", sample_threshold=32).with_bound(2, 1, 6),
]


class TestCoverageBound:
    def test_contains(self):
        bound = CoverageBound(2, 5)
        assert bound.contains(2) and bound.contains(5)
        assert not bound.contains(1) and not bound.contains(6)

    def test_negative_lower_rejected(self):
        with pytest.raises(ConfigurationError):
            CoverageBound(-1, 5)

    def test_upper_below_lower_rejected(self):
        with pytest.raises(ConfigurationError):
            CoverageBound(5, 3)

    def test_zero_upper_rejected(self):
        with pytest.raises(ConfigurationError):
            CoverageBound(0, 0)


class TestConfiguration:
    def test_defaults_are_valid(self):
        config = Configuration()
        assert config.theta == 0.1
        assert config.default_bound.upper == 15

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": -0.1},
            {"theta": 1.5},
            {"radius": -1.0},
            {"gamma": 2.0},
            {"influence_method": "quantum"},
            {"verification_mode": "maybe"},
            {"min_check_size": 0},
            {"max_pattern_size": 0},
            {"max_pattern_candidates": 0},
            {"diversity_hops": -1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Configuration(**kwargs)

    def test_bound_for_uses_default(self):
        config = Configuration()
        assert config.bound_for(3) == config.default_bound

    def test_with_bound_overrides_one_label(self):
        config = Configuration().with_bound(1, 2, 6)
        assert config.bound_for(1) == CoverageBound(2, 6)
        assert config.bound_for(0) == config.default_bound

    def test_with_bound_returns_new_object(self):
        config = Configuration()
        updated = config.with_bound(0, 1, 4)
        assert config.coverage_bounds == {}
        assert updated is not config

    def test_with_default_bound(self):
        config = Configuration().with_default_bound(2, 9)
        assert config.bound_for(42) == CoverageBound(2, 9)

    def test_describe_round_trips_key_fields(self):
        config = Configuration(theta=0.2, gamma=0.7).with_bound(1, 0, 5)
        description = config.describe()
        assert description["theta"] == 0.2
        assert description["gamma"] == 0.7
        assert description["coverage_bounds"] == {1: (0, 5)}

    def test_configuration_is_hashable_frozen(self):
        config = Configuration()
        with pytest.raises(Exception):
            config.theta = 0.5  # type: ignore[misc]


class TestValidationMessages:
    """Out-of-range knobs are rejected with actionable messages."""

    def test_theta_out_of_range_names_the_parameter(self):
        with pytest.raises(ConfigurationError, match=r"theta.*\[0, 1\].*1\.5"):
            Configuration(theta=1.5)

    def test_gamma_out_of_range_names_the_parameter(self):
        with pytest.raises(ConfigurationError, match=r"gamma.*got -0\.1"):
            Configuration(gamma=-0.1)

    def test_radius_negative_rejected(self):
        with pytest.raises(ConfigurationError, match="radius.*non-negative"):
            Configuration(radius=-1.0)

    @pytest.mark.parametrize("knob", ["selection_strategy", "stream_batching"])
    def test_retired_knobs_are_rejected(self, knob):
        # Each computation has one production path now; the knobs that used
        # to pick between two equivalent loops no longer exist.
        with pytest.raises(TypeError, match=knob):
            Configuration(**{knob: "off"})

    def test_default_bound_type_checked(self):
        with pytest.raises(ConfigurationError, match="default_bound.*CoverageBound"):
            Configuration(default_bound=(0, 5))  # type: ignore[arg-type]

    def test_coverage_bounds_values_type_checked(self):
        with pytest.raises(ConfigurationError, match=r"coverage_bounds\[1\]"):
            Configuration(coverage_bounds={1: (0, 5)})  # type: ignore[dict-item]

    def test_coverage_bound_out_of_range_suggests_fix(self):
        with pytest.raises(ConfigurationError, match="raise the upper bound"):
            CoverageBound(5, 2)


class TestFingerprint:
    """The stable hash keying the service's result cache."""

    def test_fingerprint_is_16_hex_chars(self):
        fingerprint = Configuration().fingerprint()
        assert len(fingerprint) == 16
        assert all(ch in "0123456789abcdef" for ch in fingerprint)

    def test_identical_configurations_share_a_fingerprint(self):
        assert Configuration(theta=0.2).fingerprint() == Configuration(theta=0.2).fingerprint()

    def test_every_knob_changes_the_fingerprint(self):
        base = Configuration().fingerprint()
        fingerprints = {variant.fingerprint() for variant in KNOB_VARIANTS}
        assert base not in fingerprints
        assert len(fingerprints) == len(KNOB_VARIANTS)

    def test_fingerprint_is_stable_across_processes(self):
        # Hard-coded references: a fingerprint must never silently change, or
        # every persisted cache entry, WAL config payload and shard bootstrap
        # keyed by it would be orphaned.
        import subprocess
        import sys

        code = (
            "from repro.core.config import Configuration; "
            "print(Configuration().fingerprint()); "
            "print(Configuration().with_default_bound(0, 8).fingerprint()); "
            "print(Configuration(objective='sampled').fingerprint())"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.split() == [
            "6d357ece825d4579",
            "3dcfc0f78fcd5183",
            "f92dd46e31bc3021",
        ]

    @pytest.mark.parametrize(
        "config",
        [Configuration()] + KNOB_VARIANTS + SAMPLED_VARIANTS,
        ids=lambda config: config.fingerprint(),
    )
    def test_from_canonical_round_trips_the_fingerprint(self, config):
        """The inverse shard workers and replicas rebuild configs with."""
        payload = json.loads(json.dumps(config.canonical_dict()))
        rebuilt = Configuration.from_canonical(payload)
        assert rebuilt.fingerprint() == config.fingerprint()
        assert rebuilt.objective == config.objective
        assert rebuilt.coverage_bounds == config.coverage_bounds
