"""Runtime invariant auditing for simulated and live sessions.

``repro.audit`` attaches a :class:`~repro.audit.auditor.SessionAuditor`
to a running session through the event-loop observability hook
(:attr:`repro.sim.events.EventLoop.on_event`) — zero overhead when off —
and verifies, after every event, that the stack still satisfies the
conservation laws, state invariants and control-law conformance the
reproduction's claims rest on. See DESIGN §14 ("The invariant auditor")
for the catalogue.

Entry points:

* ``repro run --check`` / ``REPRO_AUDIT=1`` — audit a sim session.
* ``repro fuzz`` — seeded random-scenario fuzzing under the auditor
  (:mod:`repro.audit.fuzz`), with shrinking to a minimal repro.
"""

from repro.audit.auditor import (InvariantViolation, SessionAuditor,
                                 Violation, attach_audit)

__all__ = ["InvariantViolation", "SessionAuditor", "Violation",
           "attach_audit"]
