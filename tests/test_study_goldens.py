"""Pinned quick reports of the two-job and companion studies.

Each digest covers one study's ``--quick`` report exactly as the CLI
builds it (``cli._quick_kwargs``): the rendered tables and notes, every
CSV series and ``repr(report.extras)``.  A refactor of how a study runs
its repetitions must leave every byte of its output where it was.
"""

import hashlib

import pytest

from repro.cli import _quick_kwargs
from repro.experiments.registry import get_experiment
from repro.experiments.runner import SweepOptions

DIGESTS = {
    "fig1": "88d65414e049ecf049673e8798342da39e35d39fb10e21a8a952bc02cd076aa1",
    "fig4": "da89d6f95c8b2268c6714658c3843f4803f08c78fdf143be140073afb8eab246",
    "natjam": "3d7363535f97234cd4343f42221e35c90b6ec43dc070e0d89892e464e6d55a91",
    "eviction": "ff27db50fb24f823eaf2164d14ded6912e922549ed448c312d32bac872c8b4fd",
    "hfsp": "263e15821dc2d21a07bbd6bf10cdb4e88859d1b0995dbac7ea6c6fb8286faa27",
    "swappiness": "851d4a640b69e74800e87a7547b6ba5af09cfa4dff9fd625f945ace6ddf24d64",
    "gc": "d04169647950c981144eab0e35b0f5424e6518b87153c145716a24e7849f501d",
    "adaptive": "e19a389a9c0999b84a3fc045bab991afaf389fa8a0472ddf405105de2a3df37c",
}


def report_digest(report) -> str:
    """sha256 over a report's text, CSV series and extras."""
    h = hashlib.sha256()
    h.update(report.render(plots=False).encode("utf-8"))
    for name, text in sorted(report.to_csv().items()):
        h.update(name.encode("utf-8"))
        h.update(text.encode("utf-8"))
    h.update(repr(report.extras).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_quick_report_is_pinned(name):
    report = get_experiment(name)(**_quick_kwargs(name))
    assert report_digest(report) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_two_workers_reproduce_the_serial_report(name):
    report = get_experiment(name)(
        **_quick_kwargs(name), sweep=SweepOptions(workers=2)
    )
    assert report_digest(report) == DIGESTS[name]
