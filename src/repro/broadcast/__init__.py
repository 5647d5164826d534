"""Broadcast-based (decentralized) name location, V-system style.

The introduction notes the HNS design "is equally valid for other
approaches to naming, such as broadcast-based location protocols
[Cheriton & Mann 1984]", and the name-space discussion rejects
"locating the appropriate local name server ... through some multicast
technique" as "too inefficient in our environment".

This package implements the alternative so the claim can be measured:
every host runs a :class:`NameOwnerService` answering for the names it
owns; a :class:`BroadcastLocator` multicasts a query on the segment and
takes the first answer.  No central state — and every query costs every
host a packet, which is exactly why it loses at scale
(``repro.harness.report.broadcast_location``).
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "locator": ("BroadcastLocator", "NameOwnerService"),
    "messages": ("NameAnswer", "NameQuery"),
})
