"""Reproduction of "A Name Service for Evolving, Heterogeneous Systems"
(Schwartz, Zahorjan & Notkin, SOSP 1987) — the HCS Name Service.

Subpackages
-----------
- :mod:`repro.core` — the HNS itself (the paper's contribution).
- :mod:`repro.hrpc` — heterogeneous RPC (five mix-and-match components).
- :mod:`repro.bind`, :mod:`repro.clearinghouse`,
  :mod:`repro.localfiles` — the underlying name services.
- :mod:`repro.serial` — IDL, wire formats, generated vs hand-coded
  marshallers (Table 3.2's subject).
- :mod:`repro.sim`, :mod:`repro.net` — the deterministic simulation
  substrate.
- :mod:`repro.resolution` — the :class:`~repro.resolution.
  ResolutionPolicy` fault-tolerance layer (retry/backoff, negative
  caching, serve-stale) shared by the whole resolution path.
- :mod:`repro.baselines` — the reregistration-based comparison schemes.
- :mod:`repro.workloads` — the canned HCS testbed and workload
  generators.
- :mod:`repro.harness` — calibration and benchmark support.

The most common entry points:

>>> from repro.core import Arrangement, HNSName
>>> from repro.workloads import build_stack, build_testbed
"""

__version__ = "1.0.0"

__all__ = [
    "baselines",
    "bind",
    "clearinghouse",
    "core",
    "harness",
    "hrpc",
    "localfiles",
    "net",
    "resolution",
    "serial",
    "sim",
    "workloads",
]
