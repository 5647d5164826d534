"""Mail messages addressed by global HNS names."""

from __future__ import annotations

import dataclasses
import itertools
import typing
import weakref

from repro.core.names import HNSName

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

# Per-simulation message numbering: ids must be a function of the run
# alone, or the traced "<msg #N ...>" lines would differ between
# same-seed runs in one process.
_msg_ids: "weakref.WeakKeyDictionary[Environment, typing.Iterator[int]]" = (
    weakref.WeakKeyDictionary()
)


@dataclasses.dataclass
class MailMessage:
    """One message; recipients are HNS names, so they may live in any
    of the federated name services."""

    sender: HNSName
    recipients: typing.Tuple[HNSName, ...]
    subject: str
    body: str
    #: numbered from 1 per simulation when first submitted (:meth:`stamp`);
    #: a message not yet submitted is unstamped, ``0``
    msg_id: int = 0

    def __post_init__(self) -> None:
        if not self.recipients:
            raise ValueError("a message needs at least one recipient")
        self.recipients = tuple(self.recipients)

    def stamp(self, env: "Environment") -> None:
        """Give an unstamped message the next id of ``env``'s run."""
        if not self.msg_id:
            ids = _msg_ids.get(env)
            if ids is None:
                ids = _msg_ids[env] = itertools.count(1)
            self.msg_id = next(ids)

    @property
    def size_bytes(self) -> int:
        return (
            len(self.subject)
            + len(self.body)
            + sum(r.wire_size() for r in self.recipients)
            + self.sender.wire_size()
            + 64
        )

    def __str__(self) -> str:
        return f"<msg #{self.msg_id} {self.sender} -> {len(self.recipients)} rcpt: {self.subject!r}>"
