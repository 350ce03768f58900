"""Earlier TaskTracker heartbeats, kept as oracles for the old-vs-new
differential suites.

:func:`legacy_heartbeat` is the pre-elision heartbeat
(``test_elision_differential``).  It builds a report and runs the
JobTracker walk on *every* heartbeat, and schedules the
``tt.actions`` delivery one RPC hop after each, even when the
JobTracker's response carries no directive -- an event whose callback
iterates an empty list.  The current
:meth:`repro.hadoop.tasktracker.TaskTracker._heartbeat` skips those
deliveries, answers idle trackers without a report or a walk, and
:meth:`repro.hadoop.jobtracker.JobTracker.heartbeat` skips walks it
can prove empty; the differential suite installs this function in its
place to reproduce the old event stream exactly.

:func:`unparked_heartbeat` is the heartbeat before parking
(``test_parking_differential``): it answers idle trackers like the
current one, but every heartbeat re-arms its own engine event, so no
phase-locked tracker ever rides a parked run.
"""

from __future__ import annotations


def legacy_heartbeat(self, out_of_band: bool = False) -> None:
    self._oob_pending = False
    report = self.build_report(out_of_band)
    # Note, process and walk explicitly: JobTracker.heartbeat now
    # skips a walk it can prove empty, and the oracle must not.
    jobtracker = self.jobtracker
    jobtracker._note_heartbeat(report.tracker, report.suspended_bytes)
    jobtracker._process_report(report)
    response = jobtracker._walk(report)
    # Directives take one RPC hop to act on.
    self.sim.schedule(
        self.config.rpc_latency,
        self._execute_actions,
        response.actions,
        label=f"tt.actions:{self.host}",
    )
    self._arm_periodic_heartbeat()


def unparked_heartbeat(self, out_of_band: bool = False) -> None:
    self._oob_pending = False
    if not self._reportable and self.jobtracker.answer_idle(self):
        # Nothing to report and nothing the JobTracker could offer:
        # the heartbeat keeps its sequence number and its instant,
        # but builds no report and skips the walk.
        self._sequence += 1
    else:
        response = self.jobtracker.heartbeat(self.build_report(out_of_band))
        # Directives take one RPC hop to act on.  An empty response
        # changes nothing on arrival, so it is not delivered at all.
        if response.actions:
            self.sim.schedule(
                self.config.rpc_latency,
                self._execute_actions,
                response.actions,
                label=f"tt.actions:{self.host}",
            )
    self._arm_periodic_heartbeat()
