"""Every shipped cross-parameter constraint fires on a crafted invalid
spec — and stops firing once the spec is repaired."""

from __future__ import annotations

import pytest

from repro.spec import CONSTRAINTS, check_spec
from repro.spec.constraints import RegistryView


@pytest.fixture(scope="module")
def view():
    return RegistryView.live()


def payload(**sections) -> dict:
    base = {
        "schema": "repro-spec/1",
        "market": {
            "workload": "synthetic-uniform",
            "workers": 30,
            "tasks": 15,
        },
    }
    for section, body in sections.items():
        base.setdefault(section, {}).update(body)
    return base


def codes(result) -> set[str]:
    return {diagnostic.code for diagnostic in result.diagnostics}


class TestConstraintCatalogue:
    def test_ids_unique_and_severities_known(self):
        ids = [constraint.id for constraint in CONSTRAINTS]
        assert len(ids) == len(set(ids))
        assert {c.severity for c in CONSTRAINTS} <= {"error", "warning"}

    def test_every_constraint_declares_knobs(self):
        for constraint in CONSTRAINTS:
            assert constraint.knobs, constraint.id


class TestC201GoldNeedsEstimator:
    def test_fires_on_explicit_gold_without_estimator(self, view):
        result = check_spec(
            payload(scenario={"gold_fraction": 0.3}), view=view
        )
        assert "C201" in codes(result)

    def test_silent_when_estimator_enabled(self, view):
        result = check_spec(
            payload(
                scenario={"gold_fraction": 0.3},
                estimator={"enabled": True},
            ),
            view=view,
        )
        assert "C201" not in codes(result)

    def test_silent_on_default_gold_fraction(self, view):
        # The schema default is 0.1, but the *file* never set it —
        # intent-keyed constraints only judge explicit knobs.
        result = check_spec(payload(), view=view)
        assert "C201" not in codes(result)

    def test_silent_when_explicitly_zero(self, view):
        result = check_spec(
            payload(scenario={"gold_fraction": 0.0}), view=view
        )
        assert "C201" not in codes(result)


class TestC202SolverKwargsSignature:
    def test_fires_on_unknown_kwarg(self, view):
        result = check_spec(
            payload(
                scenario={
                    "solver": "auction",
                    "solver_kwargs": {"epzilon": 0.1},
                }
            ),
            view=view,
        )
        assert "C202" in codes(result)
        message = next(
            d.message for d in result.diagnostics if d.code == "C202"
        )
        assert "epzilon" in message and "accepted" in message

    def test_silent_on_accepted_kwargs(self, view):
        result = check_spec(
            payload(
                scenario={
                    "solver": "auction",
                    "solver_kwargs": {"mode": "gauss-seidel"},
                }
            ),
            view=view,
        )
        assert "C202" not in codes(result)


class TestC203JacobiNeedsSquare:
    def _spec(self, workers, tasks):
        spec = payload(
            scenario={
                "solver": "auction",
                "solver_kwargs": {"mode": "jacobi"},
            }
        )
        spec["market"]["workers"] = workers
        spec["market"]["tasks"] = tasks
        return spec

    def test_fires_on_rectangular_market(self, view):
        result = check_spec(self._spec(30, 15), view=view)
        assert "C203" in codes(result)

    def test_silent_on_square_market(self, view):
        result = check_spec(self._spec(20, 20), view=view)
        assert "C203" not in codes(result)


class TestC204FaultsNeedSeed:
    def test_fires_without_explicit_seed(self, view):
        result = check_spec(payload(faults={"rate": 0.2}), view=view)
        assert "C204" in codes(result)

    def test_fires_on_individual_rate_without_seed(self, view):
        result = check_spec(
            payload(faults={"no_show_rate": 0.1}), view=view
        )
        assert "C204" in codes(result)

    def test_silent_with_explicit_seed(self, view):
        result = check_spec(
            payload(faults={"rate": 0.2, "seed": 17}), view=view
        )
        assert "C204" not in codes(result)

    def test_silent_without_any_faults(self, view):
        result = check_spec(payload(), view=view)
        assert "C204" not in codes(result)


class TestC205LamOnlyForLinear:
    def test_fires_on_lam_with_nonlinear_combiner(self, view):
        result = check_spec(
            payload(scenario={"combiner": "nash", "lam": 0.7}),
            view=view,
        )
        assert "C205" in codes(result)

    def test_silent_for_linear(self, view):
        result = check_spec(payload(scenario={"lam": 0.7}), view=view)
        assert "C205" not in codes(result)


class TestC206DriftBounds:
    def test_fires_on_floor_above_ceiling(self, view):
        result = check_spec(
            payload(
                drift={"enabled": True, "floor": 0.9, "ceiling": 0.6}
            ),
            view=view,
        )
        assert "C206" in codes(result)

    def test_silent_when_drift_disabled(self, view):
        result = check_spec(
            payload(drift={"floor": 0.9, "ceiling": 0.6}), view=view
        )
        assert "C206" not in codes(result)


class TestC207NoDoubleResilience:
    def test_fires_on_resilient_solver_with_profile(self, view):
        result = check_spec(
            payload(
                scenario={"solver": "resilient", "resilience": "default"}
            ),
            view=view,
        )
        assert "C207" in codes(result)

    def test_silent_on_resilient_solver_alone(self, view):
        result = check_spec(
            payload(scenario={"solver": "resilient"}), view=view
        )
        assert "C207" not in codes(result)


class TestC208ResumeNeedsCheckpointDir:
    def test_fires_on_resume_without_checkpoint_dir(self, view):
        result = check_spec(
            payload(runtime={"resume": True}), view=view
        )
        assert "C208" in codes(result)

    def test_silent_with_checkpoint_dir(self, view):
        result = check_spec(
            payload(
                runtime={"resume": True, "checkpoint_dir": "ckpt/run1"}
            ),
            view=view,
        )
        assert "C208" not in codes(result)

    def test_silent_without_resume(self, view):
        result = check_spec(payload(), view=view)
        assert "C208" not in codes(result)


class TestC209ShardingKnobsNeedEnable:
    def test_fires_on_detail_knobs_with_no_wrapper(self, view):
        result = check_spec(
            payload(sharding={"strategy": "balanced", "shards": 4}),
            view=view,
        )
        assert "C209" in codes(result)

    def test_silent_when_sharding_enabled(self, view):
        result = check_spec(
            payload(
                sharding={
                    "enabled": True,
                    "strategy": "balanced",
                    "shards": 4,
                }
            ),
            view=view,
        )
        assert "C209" not in codes(result)

    def test_silent_when_warm_enabled(self, view):
        result = check_spec(
            payload(sharding={"warm": True, "churn_threshold": 0.1}),
            view=view,
        )
        assert "C209" not in codes(result)

    def test_silent_when_no_detail_knob_set(self, view):
        result = check_spec(payload(sharding={}), view=view)
        assert "C209" not in codes(result)


class TestC210ShardingBaseSupported:
    def test_fires_on_unsupported_sharded_base(self, view):
        result = check_spec(
            payload(
                scenario={"solver": "resilient"},
                sharding={"enabled": True},
            ),
            view=view,
        )
        assert "C210" in codes(result)

    def test_fires_on_unsupported_warm_base(self, view):
        result = check_spec(
            payload(
                scenario={"solver": "incremental-flow"},
                sharding={"warm": True},
            ),
            view=view,
        )
        assert "C210" in codes(result)

    def test_silent_on_supported_base(self, view):
        result = check_spec(
            payload(
                scenario={"solver": "pruned-greedy"},
                sharding={"enabled": True, "warm": True},
            ),
            view=view,
        )
        assert "C210" not in codes(result)

    def test_supported_base_tuples_mirror_the_solvers(self):
        # The spec layer duplicates the wrappers' SUPPORTED_BASES as
        # literals (it must stay importable without the core); these
        # pins are the promised sync check.
        from repro.core.solvers import sharded, warm
        from repro.spec.constraints import (
            SHARDABLE_SOLVERS,
            WARMABLE_SOLVERS,
        )

        assert SHARDABLE_SOLVERS == sharded.SUPPORTED_BASES
        assert set(WARMABLE_SOLVERS) <= set(warm.SUPPORTED_BASES)
        # The one deliberate exclusion: sharded is composed by the spec
        # compiler.
        assert set(warm.SUPPORTED_BASES) - set(WARMABLE_SOLVERS) == {
            "sharded",
        }


class TestC211BatchWindowNeedsMicroBatch:
    def test_fires_on_batch_window_with_other_policy(self, view):
        result = check_spec(
            payload(stream={"policy": "greedy", "batch_window": 2.0}),
            view=view,
        )
        assert "C211" in codes(result)

    def test_fires_with_defaulted_policy(self, view):
        # The default policy is greedy, so an explicit batch_window
        # alone is still a set-but-ignored knob.
        result = check_spec(
            payload(stream={"batch_window": 2.0}), view=view
        )
        assert "C211" in codes(result)

    def test_silent_with_micro_batch(self, view):
        result = check_spec(
            payload(
                stream={"policy": "micro-batch", "batch_window": 2.0}
            ),
            view=view,
        )
        assert "C211" not in codes(result)

    def test_silent_when_unset(self, view):
        result = check_spec(
            payload(stream={"policy": "greedy"}), view=view
        )
        assert "C211" not in codes(result)


class TestC212SampleFractionNeedsSamplePrice:
    def test_fires_on_sample_fraction_with_other_policy(self, view):
        result = check_spec(
            payload(
                stream={"policy": "micro-batch", "sample_fraction": 0.3}
            ),
            view=view,
        )
        assert "C212" in codes(result)

    def test_silent_with_sample_price(self, view):
        result = check_spec(
            payload(
                stream={"policy": "sample-price", "sample_fraction": 0.3}
            ),
            view=view,
        )
        assert "C212" not in codes(result)

    def test_silent_when_unset(self, view):
        result = check_spec(
            payload(stream={"policy": "micro-batch", "batch_window": 1.0}),
            view=view,
        )
        assert "C212" not in codes(result)


class TestWarnings:
    def test_w301_nonlinear_combiner_with_edge_solver(self, view):
        result = check_spec(
            payload(scenario={"combiner": "nash", "solver": "flow"}),
            view=view,
        )
        assert "W301" in codes(result)
        assert result.ok  # warnings never fail the check

    def test_w301_silent_for_direct_optimizers(self, view):
        result = check_spec(
            payload(scenario={"combiner": "nash", "solver": "greedy"}),
            view=view,
        )
        assert "W301" not in codes(result)

    def test_w302_estimator_without_gold(self, view):
        result = check_spec(
            payload(
                scenario={"gold_fraction": 0.0},
                estimator={"enabled": True},
            ),
            view=view,
        )
        assert "W302" in codes(result)
        assert result.ok


class TestHandBuiltView:
    def test_constraints_run_against_substitute_registries(self):
        view = RegistryView(
            solvers=("toy",),
            aggregators=("majority",),
            workloads=("synthetic-uniform",),
            resilience_profiles=(),
            combiners=("linear",),
            solver_params={"toy": frozenset({"alpha"})},
        )
        result = check_spec(
            payload(
                scenario={
                    "solver": "toy",
                    "solver_kwargs": {"beta": 1},
                }
            ),
            view=view,
        )
        assert "C202" in codes(result)
