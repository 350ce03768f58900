"""The pre-elision TaskTracker heartbeat, kept verbatim as the oracle
for the old-vs-new differential suite (``test_elision_differential``).

This version schedules the ``tt.actions`` delivery one RPC hop after
*every* heartbeat, even when the JobTracker's response carries no
directive -- an event whose callback iterates an empty list.  The
current :meth:`repro.hadoop.tasktracker.TaskTracker._heartbeat` skips
those deliveries; the differential suite installs this function in its
place to reproduce the old event stream exactly.
"""

from __future__ import annotations


def legacy_heartbeat(self, out_of_band: bool = False) -> None:
    self._oob_pending = False
    report = self.build_report(out_of_band)
    self.heartbeats_sent += 1
    response = self.jobtracker.heartbeat(report)
    # Directives take one RPC hop to act on.
    self.sim.schedule(
        self.config.rpc_latency,
        self._execute_actions,
        response.actions,
        label=f"tt.actions:{self.host}",
    )
    self._arm_periodic_heartbeat()
