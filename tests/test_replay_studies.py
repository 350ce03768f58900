"""Cross-study pins for the three SWIM replay studies.

``scale``, ``shuffle`` and ``memscale`` share one build -> drive ->
collect recipe.  These tests pin what the recipe must keep: the full
rendered report and extras of a small grid per study (tables, plots,
notes, metric and sketch digests), and one error path.
"""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.experiments.memscale_study import run_memscale_study
from repro.experiments.scale_study import run_scale_study
from repro.experiments.shuffle_study import run_shuffle_study

STUDIES = {
    "scale": run_scale_study,
    "shuffle": run_shuffle_study,
    "memscale": run_memscale_study,
}

#: one small grid per study and the SHA-256 of its rendered report
#: plus ``repr(report.extras)``
REPORT_PINS = {
    "scale": (
        dict(runs=2, cluster_sizes=[4, 6], scenarios=["baseline", "burst"],
             primitives=["wait", "suspend"], num_jobs=6),
        "4bbc12fd04d2c33488141bea64e98beb881433cdae44641022e59e6720a8ae38",
    ),
    "shuffle": (
        dict(runs=2, cluster_sizes=[5, 8], primitives=["kill", "suspend"],
             num_jobs=6),
        "818083e820cb5bdcafd1179948fd42e4e2d8f4f7f838faf5bebebe4276f1b85c",
    ),
    "memscale": (
        dict(runs=2, cluster_sizes=[4, 6], num_jobs=6),
        "d68b7176674be5065c4d577f8ee1a6608538aea930dae8d5a9440321fd261447",
    ),
}


def report_digest(report) -> str:
    payload = report.render() + "\n" + repr(report.extras)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("study", sorted(REPORT_PINS))
def test_small_grid_report_is_pinned(study):
    kwargs, pinned = REPORT_PINS[study]
    assert report_digest(STUDIES[study](**kwargs)) == pinned


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_zero_jobs_rejected_by_name(study):
    with pytest.raises(ConfigurationError, match="num_jobs must be >= 1, got 0"):
        STUDIES[study](cluster_sizes=[4], num_jobs=0)
