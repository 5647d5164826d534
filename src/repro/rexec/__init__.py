"""The HCS remote computation service, built on the HNS.

Remote computation is the third of the HCS core network services
("filing, mail, and remote computation").  A :class:`RexecServer` on
each compute host exposes a small catalogue of jobs over HRPC; the
:class:`RemoteExecutor` client locates compute hosts through the HNS
(HRPCBinding query class), submits jobs, and fails over between
candidate hosts — so a job can run on a Sun or a Xerox machine through
the same client code.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "worker": ("JOB_CATALOGUE", "REXEC_PROGRAM", "RexecError", "RexecServer"),
    "client": ("RemoteExecutor",),
})
