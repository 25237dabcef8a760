"""Paper artifacts regenerated at fuller configurations than the unit tests.

Each case runs one registered experiment at its own trial count and seed
and requires every shape claim to hold.  The Figure 5 sweep repeats the
headline claims under independent seeds, so calibration cannot hold at
one seed only.
"""

import statistics

import pytest

from repro.experiments.registry import builtin_registry

REGISTRY = builtin_registry()

UNDER_POWERED = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 4: figure3 claim under-powered")

CONFIGURATIONS = [
    ("access-latency", dict(rounds=8, seed=42)),
    ("capacity", dict(rates=(400.0, 1000.0, 1500.0, 2200.0, 3500.0),
                      duration_ms=1200, seed=0)),
    ("disaggregation", dict(requests=1000, seed=0)),
    ("ecs", dict(queries=25, seed=42)),
    ("envelope-sweep", dict(queries=10, seed=42)),
    ("figure2", dict(trials=14, seed=3)),
    pytest.param(("figure3", dict(trials=30, seed=3)), marks=UNDER_POWERED),
    ("figure5", dict(queries=25, seed=42)),
    ("mislocalization", dict(trials=20, seed=2)),
]


@pytest.mark.parametrize("case", CONFIGURATIONS, ids=lambda case: case[0])
def test_shape_claims_hold(case):
    name, overrides = case
    experiment = REGISTRY.get(name)
    result = experiment.run_serial(**overrides)
    assert experiment.check_shape(result) == []


def test_figure5_holds_across_seeds():
    figure5 = REGISTRY.get("figure5")
    mec_means = []
    for seed in (1, 7, 42, 1234, 98765):
        result = figure5.run_serial(queries=15, seed=seed)
        assert figure5.check_shape(result) == [], f"seed {seed}"
        mec_means.append(result.means()["mec-ldns-mec-cdns"])
    # The headline bar moves by well under 15% across seeds.
    spread = max(mec_means) - min(mec_means)
    assert spread < 0.15 * statistics.fmean(mec_means)
