"""The chaos harness and its central claim: a sweep whose workers are
killed, hung and fed garbage produces results byte-identical to an
undisturbed serial run."""

import hashlib
import json
import os
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.chaos import (
    ChaosFault,
    ChaosPlan,
    corrupt_payload,
    make_plan,
    seeded_plan,
)
from repro.experiments.runner import Cell, cell_key, derive_seed, run_cells
from repro.experiments.supervisor import SupervisorConfig, supervise_cells


def _digest(value) -> str:
    """Canonical digest of a result list.

    JSON with sorted keys, not pickle: pickle memoizes by object
    identity, so byte-equal *values* can pickle differently depending
    on string interning after a worker round-trip.
    """
    blob = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------


class TestChaosFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos"):
            ChaosFault("meteor")

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosFault("kill-mid", delay=-1.0)

    def test_duplicate_fault_key_rejected(self):
        pair = (("k", 0), ChaosFault("kill"))
        with pytest.raises(ConfigurationError, match="repeats"):
            ChaosPlan(faults=(pair, pair))


class TestSeededPlan:
    KEYS = [f"cell-{i:02d}" for i in range(20)]

    def test_same_seed_same_plan(self):
        assert seeded_plan(self.KEYS, 7) == seeded_plan(self.KEYS, 7)

    def test_different_seed_different_plan(self):
        assert seeded_plan(self.KEYS, 7) != seeded_plan(self.KEYS, 8)

    def test_cell_order_is_irrelevant(self):
        assert seeded_plan(self.KEYS, 7) == seeded_plan(
            list(reversed(self.KEYS)), 7
        )

    def test_rate_bounds_checked(self):
        with pytest.raises(ConfigurationError, match="rate"):
            seeded_plan(self.KEYS, 7, rate=1.5)

    def test_rate_one_faults_every_cell(self):
        plan = seeded_plan(self.KEYS, 7, rate=1.0)
        assert sum(plan.counts().values()) == len(self.KEYS)

    def test_hang_plans_demand_a_timeout(self):
        plan = make_plan({("k", 0): ChaosFault("hang")})
        assert plan.requires_timeout()
        assert not make_plan(
            {("k", 0): ChaosFault("kill")}
        ).requires_timeout()

    def test_describe_tallies_kinds(self):
        plan = make_plan({
            ("a", 0): ChaosFault("kill"),
            ("b", 0): ChaosFault("corrupt"),
            ("c", 0): ChaosFault("kill"),
        })
        assert plan.counts() == {"kill": 2, "corrupt": 1}
        assert "kill=2" in plan.describe()


class TestCorruptPayload:
    def test_garbled_payload_fails_both_checks(self):
        payload = pickle.dumps({"x": list(range(100))})
        bad = corrupt_payload(payload)
        assert bad != payload
        assert hashlib.sha256(bad).hexdigest() != hashlib.sha256(
            payload
        ).hexdigest()
        with pytest.raises(Exception):
            pickle.loads(bad)

    def test_empty_payload_still_changes(self):
        assert corrupt_payload(b"") == b"\xff"


# ----------------------------------------------------------------------
# The differential claim, on toy cells
# ----------------------------------------------------------------------


def _toy_cells(n=6):
    return [
        Cell.make("tests.test_supervisor", "probe_cell", seed=i)
        for i in range(n)
    ]


def _config(plan, **overrides):
    defaults = dict(
        max_retries=2, backoff_base=0.01, backoff_cap=0.05,
        heartbeat_interval=0.05, cell_timeout=1.5, snapshot_every=None,
        chaos=plan,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


class TestToyDifferential:
    def test_every_fault_kind_yields_clean_results(self):
        cells = _toy_cells(6)
        keys = [cell_key(c) for c in cells]
        plan = make_plan(
            {
                (keys[0], 0): ChaosFault("kill"),
                (keys[2], 0): ChaosFault("hang"),
                (keys[4], 0): ChaosFault("corrupt"),
            },
            hang_seconds=30.0,
        )
        clean = run_cells(cells, workers=1)
        sweep = supervise_cells(
            cells, list(range(6)), workers=3, config=_config(plan)
        )
        assert sweep.results == clean
        assert _digest(sweep.results) == _digest(clean)
        assert sweep.quarantined == []
        assert sweep.stats["worker_deaths"] == 1
        assert sweep.stats["timeouts"] == 1
        assert sweep.stats["corrupt_results"] == 1
        assert sweep.stats["retries"] == 3

    def test_seeded_plan_full_rate_still_clean(self):
        cells = _toy_cells(8)
        plan = seeded_plan(
            [cell_key(c) for c in cells], seed=11,
            kinds=("kill", "corrupt"), rate=1.0,
        )
        clean = run_cells(cells, workers=1)
        sweep = supervise_cells(
            cells, list(range(8)), workers=3, config=_config(plan)
        )
        assert sweep.results == clean
        assert sweep.quarantined == []

    def test_chaos_through_run_cells_cli_path(self, tmp_path):
        """The CLI arms chaos with ``chaos_seed`` next to a
        SupervisorConfig; the sweep must come out identical to a clean
        serial run."""
        cells = _toy_cells(6)
        clean = run_cells(cells, workers=1)
        chaotic = run_cells(
            cells, workers=3, chaos_seed=3,
            supervise=SupervisorConfig(max_retries=3, cell_timeout=2.0),
        )
        assert chaotic == clean


# ----------------------------------------------------------------------
# The differential claim, on a real replay cell (TraceLog + sketches)
# ----------------------------------------------------------------------


def _scale_cells():
    cells = []
    for primitive in ("wait", "suspend"):
        seed = derive_seed(9000, "scale", "baseline", 5, primitive, 0)
        cells.append(Cell.make(
            "repro.experiments.scale_study", "_run_once",
            scenario="baseline", primitive_name=primitive, trackers=5,
            num_jobs=5, seed=seed, trace=True,
        ))
    return cells


class TestScaleDifferential:
    def test_chaos_run_matches_serial_down_to_trace_digests(self):
        cells = _scale_cells()
        keys = [cell_key(c) for c in cells]
        plan = make_plan(
            {
                (keys[0], 0): ChaosFault("kill"),
                (keys[1], 0): ChaosFault("corrupt"),
            },
        )
        clean = run_cells(cells, workers=1)
        sweep = supervise_cells(
            cells, [0, 1], workers=2, config=_config(plan, cell_timeout=120.0)
        )
        assert sweep.quarantined == []
        assert _digest(sweep.results) == _digest(clean)
        for chaotic, baseline in zip(sweep.results, clean):
            assert chaotic["trace_digest"] == baseline["trace_digest"]
        assert sweep.stats["worker_deaths"] == 1
        assert sweep.stats["corrupt_results"] == 1

    def test_kill_mid_resumes_from_midcell_snapshot(self, tmp_path):
        """A worker SIGKILLed mid-cell leaves a .midck behind; the
        retry restores it and still matches the clean run exactly."""
        # A ~20-job cell runs ~1s wall with snapshots armed, so a kill
        # 0.3s in reliably lands mid-cell with a snapshot on disk.
        seed = derive_seed(9000, "scale", "baseline", 5, "suspend", 0)
        cells = [
            _scale_cells()[0],
            Cell.make(
                "repro.experiments.scale_study", "_run_once",
                scenario="baseline", primitive_name="suspend", trackers=5,
                num_jobs=20, seed=seed, trace=True,
            ),
        ]
        keys = [cell_key(c) for c in cells]
        plan = make_plan(
            {(keys[1], 0): ChaosFault("kill-mid", delay=0.3)},
        )
        clean = run_cells(cells, workers=1)
        sweep = supervise_cells(
            cells, [0, 1], workers=2,
            config=_config(plan, cell_timeout=120.0, snapshot_every=200.0),
            cache_dir=str(tmp_path),
        )
        assert sweep.quarantined == []
        assert _digest(sweep.results) == _digest(clean)
        assert sweep.results[1]["trace_digest"] == clean[1]["trace_digest"]
        assert sweep.stats["worker_deaths"] == 1
        # the retry consumed (and removed) the snapshot
        assert not (tmp_path / (keys[1] + ".midck")).exists()

    def test_chaos_killed_sweep_resumes_from_cache(self, tmp_path):
        """The ISSUE's resume scenario: a sweep loses a poison cell to
        quarantine, then a second run with the same cache directory
        (and no chaos) finishes it -- byte-identical to serial."""
        from repro.errors import QuarantineError

        cells = _scale_cells()
        keys = [cell_key(c) for c in cells]
        clean = run_cells(cells, workers=1)
        poison = make_plan({
            (keys[0], 0): ChaosFault("kill"),
            (keys[0], 1): ChaosFault("kill"),
        })
        cache = str(tmp_path / "sweep")
        with pytest.raises(QuarantineError):
            run_cells(
                cells, workers=2, cache_dir=cache,
                supervise=_config(poison, max_retries=1,
                                  cell_timeout=120.0),
            )
        # cell 1 persisted; cell 0 is the quarantined hole
        done = [os.path.exists(os.path.join(cache, k + ".pkl"))
                for k in keys]
        assert done == [False, True]
        resumed = run_cells(cells, workers=2, cache_dir=cache)
        assert _digest(resumed) == _digest(clean)
