"""Sweep observation: run ledger, streaming aggregation, two readers.

The supervisor and serial runner narrate every sweep into an
append-only JSONL **run ledger** (:mod:`repro.obs.ledger`); a
**streaming aggregator** (:mod:`repro.obs.aggregate`) folds the ledger
into sweep state -- progress, ETA over virtual-cost-weighted cells,
merged metric sketches with mid-sweep quantiles.  Two readers render
it: the ``repro watch`` ANSI terminal dashboard
(:mod:`repro.obs.watch`), live or after the fact, and the runner's
own console progress lines (:mod:`repro.obs.console`).  Both read the
same events, so they cannot disagree.

The ledger is observation only: it never touches the simulation, its
RNG, or the TraceLog, and the differential suite pins ledger-on ==
ledger-off result equality down to trace and sketch digests.
"""

from repro.obs.aggregate import SweepState, replay
from repro.obs.console import ConsoleRenderer
from repro.obs.ledger import (
    LEDGER_FILENAME,
    SCHEMA_VERSION,
    Ledger,
    iter_ledger,
)
from repro.obs.watch import render_dashboard, watch

__all__ = [
    "LEDGER_FILENAME",
    "SCHEMA_VERSION",
    "Ledger",
    "iter_ledger",
    "SweepState",
    "replay",
    "ConsoleRenderer",
    "render_dashboard",
    "watch",
]
