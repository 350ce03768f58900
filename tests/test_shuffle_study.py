"""The shuffle experiment and the netmodel wiring through the cluster."""

import pytest

from repro.experiments.runner import SweepOptions
from repro.experiments.shuffle_study import run_shuffle_study
from repro.hadoop.cluster import HadoopCluster
from repro.hadoop.states import TipState
from repro.netmodel import NetConfig
from repro.netmodel.fetch import NetworkFetchItem
from repro.schedulers.hfsp import HfspScheduler
from repro.units import MB
from repro.workloads.jobspec import JobSpec, TaskKind, TaskSpec


def reduce_job(name="rj", maps=4, map_bytes=64 * MB, shuffle=64 * MB):
    tasks = [
        TaskSpec(kind=TaskKind.MAP, input_bytes=map_bytes) for _ in range(maps)
    ]
    tasks.append(
        TaskSpec(kind=TaskKind.REDUCE, input_bytes=shuffle, shuffle_bytes=shuffle)
    )
    return JobSpec(name=name, tasks=tasks)


def net_cluster(**overrides):
    defaults = dict(
        num_nodes=4,
        racks=2,
        seed=7,
        net_config=NetConfig.oversubscribed(
            hosts_per_rack=2, oversubscription=2.5
        ),
    )
    defaults.update(overrides)
    return HadoopCluster(**defaults)


class TestClusterWiring:
    def test_reduce_plans_carry_fetch_items(self):
        cluster = net_cluster()
        fetch_items = []

        def on_launch(attempt):
            if attempt.spec.kind is TaskKind.REDUCE:
                fetch_items.extend(
                    item
                    for item in attempt.jvm.engine.plan
                    if isinstance(item, NetworkFetchItem)
                )

        cluster.on_attempt_launched(on_launch)
        job = cluster.submit_job(reduce_job())
        cluster.run_until_jobs_complete([job])
        assert fetch_items, "reduce attempts should fetch over the fabric"
        sources = {host for item in fetch_items for host, _ in item.sources}
        assert sources <= set(cluster.topology.hosts())
        total = sum(item.total_bytes for item in fetch_items)
        assert total == 64 * MB  # shares sum exactly to shuffle_bytes

    def test_without_net_config_everything_stays_local(self):
        cluster = HadoopCluster(num_nodes=4, racks=2, seed=7)
        assert cluster.fabric is None
        job = cluster.submit_job(reduce_job())
        cluster.run_until_jobs_complete([job])
        assert job.state.value == "SUCCEEDED"
        assert cluster.wasted_network_bytes() == 0

    def test_shuffle_counters_reported(self):
        cluster = net_cluster()
        job = cluster.submit_job(reduce_job())
        cluster.run_until_jobs_complete([job])
        assert job.counters.value("task", "shuffle_bytes_fetched") == 64 * MB

    def test_kill_mid_job_charges_network_ledger(self):
        cluster = net_cluster()
        job = cluster.submit_job(
            reduce_job(maps=2, shuffle=256 * MB)
        )
        tip = [t for t in job.tips if t.spec.kind is TaskKind.REDUCE][0]

        def kill_reduce():
            if tip.state is TipState.RUNNING:
                cluster.jobtracker.kill_task(tip.tip_id)
            elif not job.state.terminal:
                cluster.sim.schedule(1.0, kill_reduce)

        cluster.sim.schedule(12.0, kill_reduce)
        cluster.run_until_jobs_complete([job], timeout=10_000)
        assert job.state.value == "SUCCEEDED"
        wasted = cluster.jobtracker.wasted.network_bytes_by_cause()
        assert wasted.get("preemption-kill", 0) > 0
        assert cluster.wasted_network_bytes() == sum(wasted.values())

    def test_suspend_resume_wastes_no_network(self):
        cluster = net_cluster()
        job = cluster.submit_job(reduce_job(maps=2, shuffle=512 * MB))
        tip = [t for t in job.tips if t.spec.kind is TaskKind.REDUCE][0]

        def suspend_reduce():
            if tip.state is TipState.RUNNING:
                cluster.jobtracker.suspend_task(tip.tip_id)
                cluster.sim.schedule(
                    15.0, lambda: cluster.jobtracker.resume_task(tip.tip_id)
                )
            elif not job.state.terminal:
                cluster.sim.schedule(1.0, suspend_reduce)

        cluster.sim.schedule(8.0, suspend_reduce)
        cluster.run_until_jobs_complete([job], timeout=10_000)
        assert job.state.value == "SUCCEEDED"
        assert tip.suspended_seconds > 0
        assert cluster.wasted_network_bytes() == 0

    def test_tracker_loss_charges_fetched_bytes(self):
        cluster = net_cluster(
            hadoop_config=None,
        )
        cluster.hadoop_config.tracker_expiry_interval = 20.0
        job = cluster.submit_job(reduce_job(maps=2, shuffle=1024 * MB))
        tip = [t for t in job.tips if t.spec.kind is TaskKind.REDUCE][0]
        state = {}

        def crash_reduce_host():
            if tip.state is TipState.RUNNING and tip.tracker:
                state["host"] = tip.tracker
                cluster.crash_tracker(tip.tracker)
            elif not job.state.terminal and "host" not in state:
                cluster.sim.schedule(1.0, crash_reduce_host)

        cluster.sim.schedule(10.0, crash_reduce_host)
        cluster.run_until_jobs_complete([job], timeout=10_000)
        assert "host" in state
        wasted = cluster.jobtracker.wasted.network_bytes_by_cause()
        assert wasted.get("tracker-lost", 0) > 0


class TestHdfsRemoteReads:
    def test_remote_read_crosses_fabric(self):
        cluster = net_cluster(replication=1)
        cluster.create_input("/data/x", 64 * MB, writer_host="node00")
        entry = cluster.namenode.file("/data/x")
        block = entry.blocks[0]
        done = {}
        flows_before = cluster.fabric.flows_started
        serving = cluster.namenode.open_block(
            block.block_id, "node03", lambda: done.setdefault("t", cluster.sim.now)
        )
        cluster.sim.run(until=60)
        assert "t" in done
        assert serving.host == "node00"
        assert serving.remote_bytes_served == 64 * MB
        assert cluster.fabric.flows_started == flows_before + 1

    def test_local_read_stays_off_fabric(self):
        cluster = net_cluster(replication=1)
        cluster.create_input("/data/y", 64 * MB, writer_host="node01")
        block = cluster.namenode.file("/data/y").blocks[0]
        done = {}
        flows_before = cluster.fabric.flows_started
        cluster.namenode.open_block(
            block.block_id, "node01", lambda: done.setdefault("t", cluster.sim.now)
        )
        cluster.sim.run(until=60)
        assert "t" in done
        assert cluster.fabric.flows_started == flows_before

    def test_replica_choice_prefers_reader_rack(self):
        cluster = net_cluster(replication=2)
        cluster.create_input("/data/z", 64 * MB, writer_host="node00")
        block = cluster.namenode.file("/data/z").blocks[0]
        hosts = cluster.namenode.locate_block(block.block_id).hosts
        assert len(hosts) == 2
        # A reader colocated with a replica gets the node-local copy.
        serving = cluster.namenode.open_block(block.block_id, hosts[1], lambda: None)
        assert serving.host == hosts[1]


class TestLocalityKnob:
    def _scheduler_cluster(self, wait):
        scheduler = HfspScheduler(locality_wait_seconds=wait)
        cluster = net_cluster(scheduler=scheduler, num_nodes=4, racks=2)
        scheduler.attach_cluster(cluster)
        return scheduler, cluster

    def test_off_rack_reduce_declined_until_wait_expires(self):
        scheduler, cluster = self._scheduler_cluster(wait=30.0)
        job = cluster.submit_job(reduce_job(maps=2))
        jt = cluster.jobtracker
        reduce_tip = [t for t in job.tips if t.spec.kind is TaskKind.REDUCE][0]
        job.state = type(job.state).RUNNING  # skip setup gating for the unit test
        for m in job.tips:
            if m.role.value == "m":
                m.tracker = "node00"  # both map outputs on rack0
        # An off-rack tracker's offer is declined...
        chosen = scheduler._take_schedulable(job, 1, 1, tracker="node01")
        assert reduce_tip not in chosen
        assert reduce_tip.locality_skipped_at == cluster.sim.now
        # ...and once the wait expires, anywhere goes.
        cluster.sim.run(until=31.0)
        chosen = scheduler._take_schedulable(job, 1, 1, tracker="node01")
        assert reduce_tip in chosen

    def test_rack_local_offer_taken_immediately_and_resets_clock(self):
        scheduler, cluster = self._scheduler_cluster(wait=30.0)
        job = cluster.submit_job(reduce_job(maps=2))
        reduce_tip = [t for t in job.tips if t.spec.kind is TaskKind.REDUCE][0]
        job.state = type(job.state).RUNNING
        for m in job.tips:
            if m.role.value == "m":
                m.tracker = "node00"
        # node01 is rack1; node00/node02 are rack0 (racks=2 interleave).
        assert cluster.topology.rack_of("node02") == cluster.topology.rack_of(
            "node00"
        )
        scheduler._take_schedulable(job, 1, 1, tracker="node01")
        assert reduce_tip.locality_skipped_at is not None
        chosen = scheduler._take_schedulable(job, 1, 1, tracker="node02")
        assert reduce_tip in chosen
        # A near offer restarts the delay clock for later far offers.
        assert reduce_tip.locality_skipped_at is None

    def test_zero_wait_accepts_everything(self):
        scheduler, cluster = self._scheduler_cluster(wait=0.0)
        job = cluster.submit_job(reduce_job(maps=2))
        job.state = type(job.state).RUNNING
        for m in job.tips:
            if m.role.value == "m":
                m.tracker = "node00"
        chosen = scheduler._take_schedulable(job, 4, 4, tracker="node01")
        assert len(chosen) == len(job.tips)

    def test_maps_without_input_path_have_no_preference(self):
        scheduler, cluster = self._scheduler_cluster(wait=30.0)
        job = cluster.submit_job(reduce_job(maps=2))
        job.state = type(job.state).RUNNING
        map_tips = [t for t in job.tips if t.role.value == "m"]
        chosen = scheduler._take_schedulable(job, 4, 0, tracker="node01")
        assert set(map_tips) <= set(chosen)

    def test_experiment_runs_with_locality_wait(self):
        report = run_shuffle_study(
            cluster_sizes=[4], num_jobs=6, locality_wait=9.0,
            primitives=["suspend"],
        )
        metrics = report.extras["metrics"]
        assert metrics[4]["suspend"]["mean_sojourn"][0] > 0


class TestShuffleStudy:
    @pytest.fixture(scope="class")
    def quick_report(self):
        return run_shuffle_study(cluster_sizes=[6], num_jobs=14)

    def test_all_cells_complete(self, quick_report):
        metrics = quick_report.extras["metrics"]
        for primitive in quick_report.extras["primitives"]:
            cell = metrics[6][primitive]
            assert cell["mean_sojourn"][0] > 0
            assert cell["uplink_util"][0] > 0
            assert cell["offrack_flows"][0] > 0

    def test_suspend_strictly_beats_kill_on_wasted_network(self, quick_report):
        metrics = quick_report.extras["metrics"]
        kill_wasted = metrics[6]["kill"]["wasted_net_mb"][0]
        suspend_wasted = metrics[6]["suspend"]["wasted_net_mb"][0]
        assert kill_wasted > 0, "kill cell never killed a fetching reduce"
        assert suspend_wasted < kill_wasted
        # Suspension's whole point: paused fetches keep their bytes.
        assert suspend_wasted == 0
        assert metrics[6]["wait"]["wasted_net_mb"][0] == 0

    def test_parallel_digest_identical_to_serial(self):
        serial = run_shuffle_study(
            cluster_sizes=[5], num_jobs=8, sweep=SweepOptions(workers=1)
        )
        parallel = run_shuffle_study(
            cluster_sizes=[5], num_jobs=8, sweep=SweepOptions(workers=3)
        )
        assert serial.extras["digest"] == parallel.extras["digest"]

    def test_report_renders(self, quick_report):
        text = quick_report.render(plots=False)
        assert "wasted network traffic" in text
        assert "metrics digest" in text

    def test_rejects_bad_oversubscription(self):
        with pytest.raises(Exception):
            run_shuffle_study(cluster_sizes=[4], num_jobs=4, oversubscription=0)
