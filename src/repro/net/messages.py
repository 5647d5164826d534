"""Message types carried by the simulated network."""

from __future__ import annotations

import dataclasses
import typing

from repro.net.addresses import Endpoint


@dataclasses.dataclass
class Datagram:
    """One network message.

    ``payload`` is an arbitrary Python object (the serialization layer
    decides what bytes it would be); ``size_bytes`` is what the latency
    model charges for.  ``reply_to`` lets request/response protocols
    route answers without a connection abstraction.  ``msg_id`` is
    stamped by the transport from its internetwork's counter
    (:meth:`~repro.net.internet.Internetwork.next_msg_id`, from 1); a
    datagram built by hand is unstamped, ``0``.
    """

    source: Endpoint
    destination: Endpoint
    payload: object
    size_bytes: int = 0
    reply_to: typing.Optional[Endpoint] = None
    msg_id: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative message size: {self.size_bytes}")

    def __str__(self) -> str:
        return (
            f"Datagram#{self.msg_id} {self.source} -> {self.destination} "
            f"({self.size_bytes} bytes)"
        )
