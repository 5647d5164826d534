"""Clearinghouse substrate: the Xerox name service.

The Clearinghouse [Oppen & Dalal 1983] serves the Xerox D-machine
(XDE) side of the HCS testbed.  Two properties matter to the paper's
measurements, and both are modelled here:

- "each access is authenticated" — every request verifies credentials,
  costing CPU plus a disk access to the credential database; and
- "virtually all data is retrieved from disk" — property values live on
  the simulated disk, not in primary memory.

Together these make a Clearinghouse lookup ~156 ms where BIND takes 27.
Names are three-part ``object:domain:organization`` structures with
property lists, and the wire format is Courier, not XDR.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "names": ("CHName",),
    "database": ("PropertyDatabase",),
    "auth": ("Credentials", "CredentialStore"),
    "errors": ("AuthenticationFailed", "CHError", "NoSuchObject", "NoSuchProperty"),
    "server": ("ClearinghouseServer",),
    "client": ("ClearinghouseClient",),
})
