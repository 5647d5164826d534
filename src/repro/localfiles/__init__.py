"""Replicated local files: the interim binding substrate.

"The interim HRPC binding mechanism, used prior to the construction of
the HNS prototype, was based on information reregistered in replicated
local files.  Binding using this scheme took 200 msec."

Every host keeps a copy of one flat binding file; reads hit the local
disk and parse the whole file; updates must be pushed to every replica
— the unending reregistration cost the HNS exists to avoid.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "registry": ("BindingFileEntry", "LocalBindingFile", "Replicator"),
})
