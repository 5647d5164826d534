"""The mail agent: HNS-based routing, delivery, and spooling."""

from __future__ import annotations

import dataclasses
import typing

from repro.core.hns import HNS
from repro.core.import_call import HrpcImporter
from repro.core.names import HNSName
from repro.core.nsm import NsmStub
from repro.hrpc.runtime import HrpcRuntime
from repro.mail.mailbox import MAIL_PROGRAM
from repro.mail.message import MailMessage
from repro.net.host import Host


@dataclasses.dataclass
class DeliveryReport:
    """Outcome of one submit() call."""

    delivered: typing.List[HNSName]
    queued: typing.List[typing.Tuple[HNSName, str]]  # (recipient, reason)

    @property
    def fully_delivered(self) -> bool:
        return not self.queued


@dataclasses.dataclass
class _SpoolEntry:
    message: MailMessage
    recipient: HNSName
    attempts: int = 0
    last_error: str = ""


class MailAgent:
    """Routes mail by asking the HNS, never by parsing addresses.

    For each recipient the agent performs two HNS operations:

    1. *MailboxLocation*: which mail host and mailbox serve this user?
    2. *HRPCBinding* (via Import): how do I call the ``hcsmail``
       service on that mail host?

    Both answers come through NSMs, so a recipient in BIND and one in
    the Clearinghouse route identically.  Failed deliveries spool and
    can be retried with :meth:`retry_spool`.
    """

    MAX_ATTEMPTS = 5

    def __init__(
        self,
        host: Host,
        hns: HNS,
        nsm_stub: NsmStub,
        importer: HrpcImporter,
        runtime: HrpcRuntime,
    ):
        self.host = host
        self.env = host.env
        self.hns = hns
        self.nsm_stub = nsm_stub
        self.importer = importer
        self.runtime = runtime
        self.spool: typing.List[_SpoolEntry] = []

    # ------------------------------------------------------------------
    def _deliver_to(self, recipient: HNSName, message: MailMessage):
        """Resolve + deliver one copy; exceptions mean 'spool me'."""
        # 1. Where is the mailbox?
        nsm_binding = yield from self.hns.find_nsm(recipient, "MailboxLocation")
        location = yield from self.nsm_stub.call(nsm_binding, recipient)
        mail_host = typing.cast(str, location.value["mail_host"])
        mailbox = typing.cast(str, location.value["mailbox"])
        # 2. How do I call the mail service there?  The mail host's name
        # lives in the same context as the user.
        service_binding = yield from self.importer.import_binding(
            MAIL_PROGRAM, HNSName(recipient.context, mail_host)
        )
        # 3. Deliver.
        reply = yield from self.runtime.call(
            service_binding,
            "deliver",
            mailbox,
            message,
            arg_size_bytes=message.size_bytes,
        )
        if not typing.cast(dict, reply).get("accepted"):
            raise RuntimeError(f"mailbox server refused {message}")
        self.env.trace.emit("mail", f"agent: {message} -> {recipient} OK")

    def submit(self, message: MailMessage) -> typing.Generator:
        """Deliver to every recipient; spool failures.

        Returns a :class:`DeliveryReport`.
        """
        message.stamp(self.env)
        delivered: typing.List[HNSName] = []
        queued: typing.List[typing.Tuple[HNSName, str]] = []
        for recipient in message.recipients:
            try:
                yield from self._deliver_to(recipient, message)
            except Exception as err:  # noqa: BLE001 - anything spools
                reason = f"{type(err).__name__}: {err}"
                self.spool.append(
                    _SpoolEntry(message, recipient, attempts=1, last_error=reason)
                )
                queued.append((recipient, reason))
                self.env.stats.counter("mail.agent.spooled").increment()
                continue
            delivered.append(recipient)
            self.env.stats.counter("mail.agent.sent").increment()
        return DeliveryReport(delivered, queued)

    def retry_spool(self) -> typing.Generator:
        """One pass over the spool; returns how many got through."""
        still_spooled: typing.List[_SpoolEntry] = []
        sent = 0
        for entry in self.spool:
            try:
                yield from self._deliver_to(entry.recipient, entry.message)
            except Exception as err:  # noqa: BLE001 - spool keeps trying
                entry.attempts += 1
                entry.last_error = f"{type(err).__name__}: {err}"
                if entry.attempts < self.MAX_ATTEMPTS:
                    still_spooled.append(entry)
                else:
                    self.env.stats.counter("mail.agent.bounced").increment()
                continue
            sent += 1
            self.env.stats.counter("mail.agent.sent").increment()
        self.spool = still_spooled
        return sent

    @property
    def spool_size(self) -> int:
        return len(self.spool)
