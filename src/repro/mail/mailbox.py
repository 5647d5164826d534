"""Mailbox servers: the ``hcsmail`` HRPC program on each mail host."""

from __future__ import annotations

import typing

from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.server import HrpcServer, RpcReply
from repro.mail.message import MailMessage
from repro.net.host import Host

MAIL_PROGRAM = "hcsmail"
MAIL_PORT = 9500


class MailboxError(Exception):
    """Raised for unknown mailboxes."""


class MailboxServer:
    """Stores mailboxes and serves deliver/list/fetch over HRPC.

    Wraps an :class:`HrpcServer`; messages persist to the host's disk
    (charged per delivery), as a 1987 spool directory would.
    """

    def __init__(
        self,
        host: Host,
        mailboxes: typing.Sequence[str] = (),
        calibration: Calibration = DEFAULT_CALIBRATION,
        port: int = MAIL_PORT,
    ):
        self.host = host
        self.env = host.env
        self.calibration = calibration
        self._boxes: typing.Dict[str, typing.List[MailMessage]] = {
            name: [] for name in mailboxes
        }
        self.server = HrpcServer(host, name=f"mail@{host.name}")
        program = self.server.program(MAIL_PROGRAM)
        program.procedure("deliver", self._deliver)
        program.procedure("list", self._list)
        program.procedure("fetch", self._fetch)
        self.endpoint = self.server.listen(port)

    # ------------------------------------------------------------------
    def create_mailbox(self, name: str) -> None:
        if not name:
            raise ValueError("mailbox needs a name")
        self._boxes.setdefault(name, [])

    def messages_in(self, mailbox: str) -> typing.List[MailMessage]:
        if mailbox not in self._boxes:
            raise MailboxError(mailbox)
        return list(self._boxes[mailbox])

    # ------------------------------------------------------------------
    # HRPC procedures (handlers receive a CallContext first)
    # ------------------------------------------------------------------
    def _deliver(self, ctx, mailbox: str, message: MailMessage):
        box = self._boxes.get(mailbox)
        if box is None:
            raise MailboxError(f"no mailbox {mailbox!r} on {self.host.name}")
        # Spool to disk.
        yield self.host.disk.write(message.size_bytes)
        box.append(message)
        self.env.stats.counter(f"mail.{self.host.name}.delivered").increment()
        self.env.trace.emit(
            "mail", f"{self.host.name}: delivered {message} to {mailbox}"
        )
        return RpcReply({"accepted": True}, result_size_bytes=32)

    def _list(self, ctx, mailbox: str):
        box = self._boxes.get(mailbox)
        if box is None:
            raise MailboxError(f"no mailbox {mailbox!r} on {self.host.name}")
        yield self.host.disk.read(256)
        summaries = [
            {"msg_id": m.msg_id, "sender": str(m.sender), "subject": m.subject}
            for m in box
        ]
        return RpcReply(summaries, result_size_bytes=64 * max(1, len(summaries)))

    def _fetch(self, ctx, mailbox: str, msg_id: int):
        if mailbox not in self._boxes:
            raise MailboxError(f"no mailbox {mailbox!r} on {self.host.name}")
        for message in self._boxes[mailbox]:
            if message.msg_id == msg_id:
                yield self.host.disk.read(message.size_bytes)
                return RpcReply(message, result_size_bytes=message.size_bytes)
        raise MailboxError(f"message {msg_id} not in {mailbox!r}")
