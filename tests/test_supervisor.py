"""The supervised sweep runner: watchdog, retries, quarantine,
degradation, mid-cell resume.

Worker-fault cells live at module level so forked/spawned workers can
import them by module path, exactly like real experiment cells.
"""

import os
import signal
import time

import pytest

from repro.errors import ConfigurationError, QuarantineError, SupervisorError
from repro.experiments.chaos import ChaosFault, make_plan
from repro.experiments.runner import Cell, cell_key, run_cells
from repro.experiments.drive import REPLAY_STUDIES, replay_kind
from repro.experiments.supervisor import (
    SupervisorConfig,
    execute_cell_resumable,
    retry_backoff,
    supervise_cells,
)


# ----------------------------------------------------------------------
# Worker-side probe cells (importable from worker processes)
# ----------------------------------------------------------------------


def probe_cell(seed: int) -> dict:
    return {"seed": seed, "value": seed * 3}


def sigkill_cell(seed: int) -> None:
    """A poison cell: takes its worker down every single attempt."""
    os.kill(os.getpid(), signal.SIGKILL)


def sleepy_cell(seed: int, seconds: float = 30.0) -> int:
    time.sleep(seconds)
    return seed


def flaky_kill_cell(seed: int, flag_dir: str) -> dict:
    """SIGKILLs its worker the first time, succeeds ever after (the
    flag file is the cross-attempt memory)."""
    flag = os.path.join(flag_dir, f"flaky-{seed}")
    if not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8") as fh:
            fh.write("died once")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"seed": seed, "recovered": True}


def sigstop_once_cell(seed: int, flag_dir: str) -> dict:
    """Freezes its worker (SIGSTOP) on the first attempt -- heartbeats
    stop but the process stays alive; only the watchdog can save the
    sweep."""
    flag = os.path.join(flag_dir, f"stopped-{seed}")
    if not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8") as fh:
            fh.write("froze once")
        os.kill(os.getpid(), signal.SIGSTOP)
    return {"seed": seed, "thawed": True}


def interrupt_cell(seed: int) -> None:
    raise KeyboardInterrupt


def probes(n):
    return [
        Cell.make("tests.test_supervisor", "probe_cell", seed=i)
        for i in range(n)
    ]


def fast_config(**overrides):
    defaults = dict(
        max_retries=2, backoff_base=0.01, backoff_cap=0.05,
        heartbeat_interval=0.05, heartbeat_timeout=30.0,
        snapshot_every=None,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


# ----------------------------------------------------------------------
# Config + backoff
# ----------------------------------------------------------------------


class TestConfig:
    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(max_retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(cell_timeout=0.0)

    def test_hanging_chaos_requires_timeout(self):
        plan = make_plan({("k", 0): ChaosFault("hang")})
        with pytest.raises(ConfigurationError, match="cell_timeout"):
            SupervisorConfig(chaos=plan)
        SupervisorConfig(chaos=plan, cell_timeout=1.0)  # fine with one


class TestRetryBackoff:
    def test_deterministic(self):
        assert retry_backoff("abc", 1) == retry_backoff("abc", 1)
        assert retry_backoff("abc", 1) != retry_backoff("abd", 1)

    def test_exponential_until_cap(self):
        base = [retry_backoff("cell", a, base=0.1, cap=1e9)
                for a in range(4)]
        # Jitter is bounded by [1, 2), so doubling dominates: each
        # step at least equals the previous and the envelope doubles.
        for a in range(3):
            assert base[a + 1] > base[a] / 2 * 2 - 1e-12
        assert base[3] >= 0.1 * 8
        assert retry_backoff("cell", 50, base=0.1, cap=2.5) == 2.5

    def test_never_wall_time_dependent(self):
        before = retry_backoff("k", 0)
        time.sleep(0.01)
        assert retry_backoff("k", 0) == before


# ----------------------------------------------------------------------
# Crash / timeout / retry / quarantine paths
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_worker_sigkill_mid_cell_retries_then_succeeds(self, tmp_path):
        cells = probes(3) + [
            Cell.make("tests.test_supervisor", "flaky_kill_cell",
                      seed=7, flag_dir=str(tmp_path)),
        ]
        sweep = supervise_cells(
            cells, list(range(4)), workers=2, config=fast_config()
        )
        assert sweep.results[3] == {"seed": 7, "recovered": True}
        assert sweep.results[:3] == [probe_cell(i) for i in range(3)]
        assert sweep.quarantined == []
        assert sweep.stats["worker_deaths"] == 1
        assert sweep.stats["retries"] == 1
        assert sweep.stats["worker_restarts"] == 1

    def test_cell_timeout_kills_and_quarantines(self):
        cells = probes(2) + [
            Cell.make("tests.test_supervisor", "sleepy_cell",
                      seed=9, seconds=60.0),
        ]
        sweep = supervise_cells(
            cells, list(range(3)), workers=2,
            config=fast_config(max_retries=1, cell_timeout=0.4),
        )
        assert sweep.results[:2] == [probe_cell(i) for i in range(2)]
        assert sweep.results[2] is None
        assert len(sweep.quarantined) == 1
        record = sweep.quarantined[0]
        assert record.index == 2
        assert record.attempts == 2
        assert all("timeout" in cause for cause in record.causes)
        assert sweep.stats["timeouts"] == 2

    def test_retry_cap_quarantine_does_not_abort_sweep(self):
        """The acceptance criterion: a poison cell quarantines while
        every other cell still completes."""
        cells = probes(4) + [
            Cell.make("tests.test_supervisor", "sigkill_cell", seed=1),
        ]
        sweep = supervise_cells(
            cells, list(range(5)), workers=2,
            config=fast_config(max_retries=1),
        )
        assert sweep.results[:4] == [probe_cell(i) for i in range(4)]
        assert [r.index for r in sweep.quarantined] == [4]
        assert sweep.quarantined[0].attempts == 2
        assert sweep.stats["quarantines"] == 1
        assert sweep.stats["cells_completed"] == 4

    def test_run_cells_raises_quarantine_error_after_completion(self, tmp_path):
        cells = probes(3) + [
            Cell.make("tests.test_supervisor", "sigkill_cell", seed=5),
        ]
        cache = str(tmp_path / "sweep")
        with pytest.raises(QuarantineError) as excinfo:
            run_cells(cells, workers=2, cache_dir=cache,
                      supervise=fast_config(max_retries=0))
        assert len(excinfo.value.records) == 1
        # ... but the healthy cells all persisted before the raise.
        import json

        with open(os.path.join(cache, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["done"] == 3
        assert manifest["quarantined"] == 1
        poison = [e for e in manifest["cells"] if e.get("quarantined")]
        assert len(poison) == 1 and poison[0]["attempts"] == 1
        assert manifest["supervisor"]["quarantines"] == 1

    def test_run_cells_keep_quarantine_returns_none_slot(self):
        cells = probes(2) + [
            Cell.make("tests.test_supervisor", "sigkill_cell", seed=5),
        ]
        results = run_cells(
            cells, workers=2, supervise=fast_config(max_retries=0),
            on_quarantine="keep",
        )
        assert results[:2] == [probe_cell(i) for i in range(2)]
        assert results[2] is None

    def test_heartbeat_loss_detected_and_recovered(self, tmp_path):
        cells = probes(2) + [
            Cell.make("tests.test_supervisor", "sigstop_once_cell",
                      seed=3, flag_dir=str(tmp_path)),
        ]
        sweep = supervise_cells(
            cells, list(range(3)), workers=2,
            config=fast_config(heartbeat_interval=0.05,
                               heartbeat_timeout=0.5),
        )
        assert sweep.results[2] == {"seed": 3, "thawed": True}
        assert sweep.stats["heartbeats_lost"] >= 1
        assert sweep.quarantined == []

    def test_pool_degrades_then_dies_loudly(self):
        # One worker slot, zero death budget, a cell that keeps
        # killing it while other work is still pending: the pool
        # shrinks to nothing and the supervisor must say so.
        cells = [
            Cell.make("tests.test_supervisor", "sigkill_cell", seed=1),
        ] + probes(3)
        with pytest.raises(SupervisorError, match="permanently dead"):
            supervise_cells(
                cells, list(range(4)), workers=1,
                config=fast_config(max_retries=3, worker_death_cap=0),
            )

    def test_pool_degradation_survivors_finish_the_sweep(self):
        # Two slots, a poison cell retires whichever slots it burns
        # (death cap 1 -> retire on the second consecutive death);
        # the surviving slot steals the rest of the queue.
        cells = probes(6) + [
            Cell.make("tests.test_supervisor", "sigkill_cell", seed=2),
        ]
        sweep = supervise_cells(
            cells, list(range(7)), workers=2,
            config=fast_config(max_retries=2, worker_death_cap=2),
        )
        assert sweep.results[:6] == [probe_cell(i) for i in range(6)]
        assert [r.index for r in sweep.quarantined] == [6]
        assert sweep.stats["worker_deaths"] == 3

    def test_worker_exception_still_propagates(self):
        bad = [Cell.make("tests.test_runner", "failing_cell", seed=1)]
        with pytest.raises(ValueError, match="exploded"):
            run_cells(bad + probes(2), workers=2,
                      supervise=fast_config())

    def test_keyboard_interrupt_from_worker_propagates(self):
        cells = probes(2) + [
            Cell.make("tests.test_supervisor", "interrupt_cell", seed=0),
        ]
        with pytest.raises(KeyboardInterrupt):
            run_cells(cells, workers=2, supervise=fast_config())


# ----------------------------------------------------------------------
# Mid-cell snapshot / resume
# ----------------------------------------------------------------------


def _scale_cell(num_jobs=5, trackers=5):
    from repro.experiments.scale_study import cell_seed

    return Cell.make(
        "repro.experiments.scale_study", "_run_once",
        scenario="baseline", primitive_name="suspend", trackers=trackers,
        num_jobs=num_jobs, seed=cell_seed("baseline", trackers, "suspend"),
        trace=True,
    )


class TestMidcellResume:
    def test_registry_names_the_replay_studies(self):
        assert REPLAY_STUDIES == {
            "scale": "repro.experiments.scale_study",
            "shuffle": "repro.experiments.shuffle_study",
            "memscale": "repro.experiments.memscale_study",
        }
        assert replay_kind(_scale_cell()) == "scale"
        assert replay_kind(probes(1)[0]) is None

    def test_non_resumable_cell_falls_through(self, tmp_path):
        cell = probes(1)[0]
        assert execute_cell_resumable(cell, str(tmp_path), 60.0) == (
            probe_cell(0)
        )

    def test_fresh_run_with_snapshots_is_identical_and_cleans_up(
        self, tmp_path
    ):
        from repro.experiments.runner import execute_cell

        cell = _scale_cell()
        clean = execute_cell(cell)
        snapped = execute_cell_resumable(cell, str(tmp_path), 40.0)
        assert snapped == clean
        midck = tmp_path / (cell_key(cell) + ".midck")
        assert not midck.exists()

    @pytest.mark.parametrize("kind", sorted(REPLAY_STUDIES))
    def test_resume_from_midcell_checkpoint_is_byte_identical(
        self, kind, tmp_path, monkeypatch
    ):
        from repro.checkpoint.cells import CELL_DEFAULTS, build_cell
        from repro.checkpoint.core import save
        from repro.experiments.drive import replay_study
        from repro.experiments.runner import execute_cell

        cluster, meta = build_cell(kind)
        params = {key: value for key, value in meta.items() if key != "kind"}
        cell = Cell.make(REPLAY_STUDIES[kind], "_run_once", **params)
        clean = execute_cell(cell)
        # Craft the crash artifact: a cell frozen mid-flight, exactly
        # what a SIGKILLed shard leaves behind.
        cluster.start()
        while cluster.sim.now < CELL_DEFAULTS[kind]["at"] and cluster.sim.step():
            pass
        terminal = sum(
            job.state.terminal for job in cluster.jobtracker.jobs.values()
        )
        assert terminal < params["num_jobs"]
        midck = tmp_path / (cell_key(cell) + ".midck")
        save(cluster, str(midck), meta=meta)

        def rebuild(**_params):
            raise AssertionError("resumed cell was rebuilt from zero")

        monkeypatch.setattr(replay_study(kind), "_build_run", rebuild)
        resumed = execute_cell_resumable(cell, str(tmp_path), 50.0)
        assert resumed == clean
        assert resumed["trace_digest"] == clean["trace_digest"]
        assert not midck.exists()

    def test_corrupt_midcell_checkpoint_falls_back_to_zero(
        self, tmp_path, capsys
    ):
        from repro.experiments.runner import execute_cell

        cell = _scale_cell()
        clean = execute_cell(cell)
        midck = tmp_path / (cell_key(cell) + ".midck")
        midck.write_bytes(b"RPCK\x00\x00\x00\x02{}garbage")
        result = execute_cell_resumable(cell, str(tmp_path), 50.0)
        assert result == clean
        assert "unusable" in capsys.readouterr().err
