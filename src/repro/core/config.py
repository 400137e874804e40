"""Explanation configuration ``C = (theta, r, {[b_l, u_l]})`` (section 3.2).

A configuration bundles every user-tunable knob of GVEX:

* ``theta`` — influence threshold for the feature-influence score ``I`` (Eq. 5),
* ``radius`` — embedding-distance threshold ``r`` for the diversity score ``D``
  (Eq. 6),
* ``gamma`` — trade-off between influence and diversity in the explainability
  objective (Eq. 2),
* per-label coverage bounds ``[b_l, u_l]`` on explanation-subgraph size,
* implementation knobs (influence estimator, verification mode, pattern caps).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = ["CoverageBound", "Configuration"]

_VERIFICATION_MODES = ("strict", "consistent", "none")
_INFLUENCE_METHODS = ("auto", "propagation", "exact")
_OBJECTIVES = ("exact", "sampled")
# Entries every canonical dict carries at a fixed value.  They once named
# two interchangeable selection loops (both gave identical views) and the
# capacity of a label-probability memo that probe families made obsolete;
# pinning them keeps every persisted fingerprint byte-stable.
_PINNED_CANONICAL = {
    "selection_strategy": "lazy",
    "stream_batching": "auto",
    "label_probability_cache_size": 8192,
}


@dataclass(frozen=True)
class CoverageBound:
    """Per-label coverage constraint ``[b_l, u_l]`` on explanation size."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ConfigurationError(
                f"coverage lower bound must be non-negative, got {self.lower}; "
                "use 0 to disable the lower bound"
            )
        if self.upper < max(self.lower, 1):
            raise ConfigurationError(
                f"coverage upper bound {self.upper} must be >= max(lower, 1) = "
                f"{max(self.lower, 1)}; raise the upper bound or lower the lower bound"
            )

    def contains(self, size: int) -> bool:
        """True when a node count satisfies the bound."""
        return self.lower <= size <= self.upper


@dataclass(frozen=True)
class Configuration:
    """All GVEX parameters; immutable so it can be shared across workers.

    Parameters
    ----------
    theta:
        Influence threshold in Eq. 5.  A node ``v`` counts as influenced by a
        seed set when some seed contributes at least a ``theta`` share of
        ``v``'s total input sensitivity.
    radius:
        Diversity radius in Eq. 6, applied to normalised embedding distances
        (so values in [0, 1] are meaningful regardless of embedding scale).
    gamma:
        Weight of the diversity term in the explainability objective.
    default_bound:
        Coverage bound used for labels without an explicit entry in
        ``coverage_bounds``.
    coverage_bounds:
        Per-label overrides of the coverage bound.
    influence_method:
        ``auto`` (default: exact Jacobian for small graphs, propagation
        estimator for large ones), ``propagation`` (fast k-step estimator) or
        ``exact`` (linearised Jacobian of the trained network).
    verification_mode:
        How strictly ``VpExtend`` enforces the explanation-subgraph
        definition while *growing* a candidate:

        * ``strict`` — paper-literal: every intermediate candidate must be
          consistent *and* counterfactual.  With a robust GNN this rejects
          nearly all small candidates, so it is mainly useful for analysis.
        * ``consistent`` (default) — intermediate candidates must keep the
          predicted label once they reach ``min_check_size`` nodes; the
          counterfactual property is evaluated on the final subgraph and
          reported (and measured by Fidelity+), matching how the paper's
          experiments sweep ``u_l``.
        * ``none`` — no model checks during growth (pure influence
          maximisation); useful for ablations.
    min_check_size:
        Number of nodes a candidate must reach before GNN consistency checks
        are applied (a one-node graph cannot be meaningfully classified).
    max_pattern_size / max_pattern_candidates:
        Caps forwarded to the pattern generator (``PGen``).
    diversity_hops:
        r-hop neighbourhood radius handed to ``IncPGen`` in streaming mode.
    match_cache_size:
        LRU capacity of the *process-wide* pattern-match memo
        (:mod:`repro.matching.engine`), keyed by
        ``(pattern.canonical_key(), graph version)``.  Every coverage
        predicate, view-verification check, mining support count and
        explanation query shares the memo; ``0`` disables match memoisation.
        Applied when an explainer is built (in every shard worker too),
        since the engine is shared by the whole process.
    seed:
        Seed for every randomised choice made under this configuration —
        most importantly the shuffled node arrival order of ``StreamGVEX``
        (Fig. 12), which would otherwise differ between runs.
    degraded_reads:
        Operational knob for the sharded tier: when on, reads against a
        down shard return *partial* results flagged with
        ``degraded``/``missing_shards`` instead of failing loudly (mutations
        still answer 503 + Retry-After).  Excluded from
        :meth:`canonical_dict` — it changes availability semantics, never
        the explanations a healthy system produces, and degraded results
        are never cached.
    fault_plan:
        Operational knob: a :class:`repro.core.faults.FaultPlan` payload
        (``FaultPlan.to_dict()`` shape) activated process-globally when a
        service or router is built with this configuration.  Excluded from
        :meth:`canonical_dict` for the same reason — fault plans only
        inject failures; they never alter the explanation outputs of the
        code paths that survive them.
    objective:
        ``exact`` (default — every score is the paper-literal Eq.-2 value)
        or ``sampled`` — the approximate objective layer of
        :mod:`repro.core.sampling`: influence and diversity coverage are
        estimated from a seeded without-replacement sample of target
        columns, with a Hoeffding ``(epsilon, delta)`` error bound, for
        graphs larger than ``sample_threshold`` nodes.  Sub-threshold
        graphs always take the exact path, so small inputs stay
        bit-identical to the reference regardless of this knob.
    sample_budget:
        Hard cap on the per-graph sample size under ``objective="sampled"``.
        The actual size is ``min(sample_budget, n, m*)`` where ``m*`` is the
        auto-chosen Hoeffding size for the requested ``(epsilon, delta)``
        (à la the approximate-betweenness auto sizing); when the budget
        binds, the *achieved* epsilon is recorded in provenance instead.
    epsilon:
        Half-width of the additive error bound on sampled coverage
        *fractions* (counts are within ``epsilon * n`` of exact with
        probability ``>= 1 - delta``, simultaneously for every node subset
        scored against one sample).
    delta:
        Failure probability of the ``epsilon`` bound (union-bounded over
        the population, so it holds for every query answered from the
        sample, not just one).
    sample_threshold:
        Graphs with at most this many nodes ignore ``objective="sampled"``
        and run exact — sampling a 60-node graph saves nothing and costs
        the bit-identity guarantee.
    """

    theta: float = 0.1
    radius: float = 0.25
    gamma: float = 0.5
    default_bound: CoverageBound = field(default_factory=lambda: CoverageBound(0, 15))
    coverage_bounds: dict[int, CoverageBound] = field(default_factory=dict)
    influence_method: str = "auto"
    verification_mode: str = "consistent"
    min_check_size: int = 3
    max_pattern_size: int = 4
    max_pattern_candidates: int = 32
    diversity_hops: int = 1
    match_cache_size: int = 4096
    seed: int = 0
    degraded_reads: bool = False
    fault_plan: dict | None = None
    objective: str = "exact"
    sample_budget: int = 1024
    epsilon: float = 0.1
    delta: float = 0.05
    sample_threshold: int = 256

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigurationError(
                f"theta (influence threshold, Eq. 5) must be in [0, 1], got "
                f"{self.theta!r}; it is a *share* of a node's total input "
                "sensitivity, not an absolute score"
            )
        if self.radius < 0.0:
            raise ConfigurationError(
                f"radius (diversity threshold, Eq. 6) must be non-negative, got "
                f"{self.radius!r}; distances are normalised so values in [0, 1] "
                "are meaningful"
            )
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(
                f"gamma (influence/diversity trade-off, Eq. 2) must be in [0, 1], "
                f"got {self.gamma!r}; 0 ignores diversity, 1 ignores influence"
            )
        if self.influence_method not in _INFLUENCE_METHODS:
            raise ConfigurationError(
                f"influence_method must be one of {_INFLUENCE_METHODS}"
            )
        if self.verification_mode not in _VERIFICATION_MODES:
            raise ConfigurationError(
                f"verification_mode must be one of {_VERIFICATION_MODES}"
            )
        if self.min_check_size < 1:
            raise ConfigurationError("min_check_size must be at least 1")
        if self.max_pattern_size < 1:
            raise ConfigurationError("max_pattern_size must be at least 1")
        if self.max_pattern_candidates < 1:
            raise ConfigurationError("max_pattern_candidates must be at least 1")
        if self.diversity_hops < 0:
            raise ConfigurationError("diversity_hops must be non-negative")
        if self.match_cache_size < 0:
            raise ConfigurationError(
                f"match_cache_size must be non-negative, got {self.match_cache_size}; "
                "use 0 to disable match-result memoisation"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError("seed must be an integer")
        if not isinstance(self.degraded_reads, bool):
            raise ConfigurationError("degraded_reads must be a boolean")
        if self.fault_plan is not None and not isinstance(self.fault_plan, dict):
            raise ConfigurationError(
                f"fault_plan must be a FaultPlan.to_dict() payload (a dict) or "
                f"None, got {type(self.fault_plan).__name__}"
            )
        if self.objective not in _OBJECTIVES:
            raise ConfigurationError(
                f"objective must be one of {_OBJECTIVES}, got {self.objective!r}; "
                "'sampled' enables the approximate estimator layer for large graphs"
            )
        if not isinstance(self.sample_budget, int) or isinstance(self.sample_budget, bool):
            raise ConfigurationError("sample_budget must be an integer")
        if self.sample_budget < 2:
            raise ConfigurationError(
                f"sample_budget must be at least 2, got {self.sample_budget}; "
                "a one-column sample cannot carry a useful bound"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon (sampled-objective error half-width) must be in (0, 1), "
                f"got {self.epsilon!r}; it bounds coverage *fractions*, not counts"
            )
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(
                f"delta (sampled-objective failure probability) must be in (0, 1), "
                f"got {self.delta!r}"
            )
        if self.sample_threshold < 0:
            raise ConfigurationError(
                f"sample_threshold must be non-negative, got {self.sample_threshold}; "
                "graphs at or below it always run the exact objective"
            )
        if not isinstance(self.default_bound, CoverageBound):
            raise ConfigurationError(
                f"default_bound must be a CoverageBound, got "
                f"{type(self.default_bound).__name__}; build one with "
                "CoverageBound(lower, upper) or use with_default_bound(lower, upper)"
            )
        for label, bound in self.coverage_bounds.items():
            if not isinstance(bound, CoverageBound):
                raise ConfigurationError(
                    f"coverage_bounds[{label!r}] must be a CoverageBound, got "
                    f"{type(bound).__name__}; use with_bound(label, lower, upper)"
                )

    # ------------------------------------------------------------------
    # coverage bounds
    # ------------------------------------------------------------------
    def bound_for(self, label: int) -> CoverageBound:
        """The coverage bound ``[b_l, u_l]`` applying to ``label``."""
        return self.coverage_bounds.get(label, self.default_bound)

    def with_bound(self, label: int, lower: int, upper: int) -> "Configuration":
        """A copy of the configuration with one label's bound replaced."""
        bounds = dict(self.coverage_bounds)
        bounds[label] = CoverageBound(lower, upper)
        return replace(self, coverage_bounds=bounds)

    def with_default_bound(self, lower: int, upper: int) -> "Configuration":
        """A copy with a new default coverage bound."""
        return replace(self, default_bound=CoverageBound(lower, upper))

    def with_max_nodes(self, max_nodes: int) -> "Configuration":
        """A copy whose default upper coverage bound is ``max_nodes``.

        The single size knob shared by every explainer in the comparison
        experiments; the lower bound is clamped so the result is always a
        valid :class:`CoverageBound`.  This is *the* folding rule used by
        both the registry and ``ExplainRequest`` — keep it in one place.
        """
        if max_nodes < 1:
            raise ConfigurationError(
                f"max_nodes must be at least 1, got {max_nodes}; it becomes the "
                "upper coverage bound u_l"
            )
        return self.with_default_bound(
            min(self.default_bound.lower, max_nodes), max_nodes
        )

    def describe(self) -> dict[str, object]:
        """Human-readable summary used in experiment logs."""
        return {
            "theta": self.theta,
            "radius": self.radius,
            "gamma": self.gamma,
            "default_bound": (self.default_bound.lower, self.default_bound.upper),
            "coverage_bounds": {
                label: (bound.lower, bound.upper)
                for label, bound in sorted(self.coverage_bounds.items())
            },
            "influence_method": self.influence_method,
            "verification_mode": self.verification_mode,
            **_PINNED_CANONICAL,
            "match_cache_size": self.match_cache_size,
            "seed": self.seed,
        } | self._sampling_dict()

    def _sampling_dict(self) -> dict[str, object]:
        """The sampling knobs, present only when they can matter.

        Folded into :meth:`describe` / :meth:`canonical_dict` *additively* —
        an ``objective="exact"`` configuration serialises exactly as it did
        before the sampled layer existed, so every previously persisted
        fingerprint (result caches, golden artifacts, cross-process keys)
        stays byte-stable, while ``objective="sampled"`` gets a distinct
        fingerprint that also varies with every estimator knob.
        """
        if self.objective == "exact":
            return {}
        return {
            "objective": self.objective,
            "sample_budget": self.sample_budget,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "sample_threshold": self.sample_threshold,
        }

    def canonical_dict(self) -> dict[str, object]:
        """Every knob of the configuration, in a stable JSON-friendly shape.

        Unlike :meth:`describe` (a human-oriented log summary), this includes
        *all* fields so that two configurations hash equal exactly when every
        explainer-visible parameter matches.  The operational knobs
        (``degraded_reads``, ``fault_plan``) are deliberately excluded: they
        never change what a healthy explainer computes, so they must not
        split the result cache or the cross-process fingerprint.
        """
        return self.describe() | {
            "min_check_size": self.min_check_size,
            "max_pattern_size": self.max_pattern_size,
            "max_pattern_candidates": self.max_pattern_candidates,
            "diversity_hops": self.diversity_hops,
        }

    @classmethod
    def from_canonical(cls, payload: Mapping[str, Any]) -> "Configuration":
        """Rebuild a configuration from :meth:`canonical_dict` output.

        Accepts the dict as-is or after a JSON round trip: coverage bounds
        come back from ``(lower, upper)`` pairs, label keys from strings to
        ints, and the pinned entries are ignored.  The result has the same
        fingerprint as the configuration that produced the payload.
        """
        fields = {key: value for key, value in payload.items() if key not in _PINNED_CANONICAL}
        lower, upper = fields.pop("default_bound")
        bounds = fields.pop("coverage_bounds", {})
        return cls(
            default_bound=CoverageBound(int(lower), int(upper)),
            coverage_bounds={
                int(label): CoverageBound(int(low), int(high))
                for label, (low, high) in bounds.items()
            },
            **fields,
        )

    def fingerprint(self) -> str:
        """A stable 16-hex-digit hash of the full configuration.

        Used as (part of) the key of the result cache in
        :mod:`repro.api.service`: two runs with identical configurations can
        share cached explanation views, and any parameter change invalidates
        them.  Stable across processes and Python versions (no reliance on
        ``hash()``), since the key may be persisted to disk.
        """
        payload = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
