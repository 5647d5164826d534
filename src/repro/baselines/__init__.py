"""Baseline binding schemes the paper compares against.

- :class:`LocalFileBinder` — the interim HRPC binding mechanism,
  "based on information reregistered in replicated local files"
  (200 ms per binding, plus an unending replication cost).
- :class:`ReregistrationBinder` — "a scheme in which a name service
  holds all of the (reregistered) data", implemented on the
  Clearinghouse (166 ms) and, hypothetically, on BIND.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "localfile_binding": ("LocalFileBinder",),
    "reregistration": ("ReregistrationBinder",),
})
