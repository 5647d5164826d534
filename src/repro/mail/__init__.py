"""The HCS electronic mail system, built on the HNS.

Mail is one of the three core HCS network services, and the conclusions
name it as the next system being pursued with the HNS/NSM structure:
"We are pursuing this structure in the context of both an electronic
mail system and also a heterogeneous file system."

The pieces:

- :class:`~repro.mail.mailbox.MailboxServer` — an HRPC program
  (``hcsmail``) storing mailboxes on a mail host;
- :class:`~repro.mail.agent.MailAgent` — resolves each recipient's
  mailbox location through the HNS (MailboxLocation query class), then
  the mail host's service binding (HRPCBinding query class), and
  delivers over HRPC; undeliverable mail is spooled and retried.

Contrast with sendmail: the agent never parses a heterogeneous address
— "sendmail depends on being able to discern naming semantics based on
the syntactic structure of names", which the NSM structure removes.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "message": ("MailMessage",),
    "mailbox": ("MailboxServer", "MAIL_PROGRAM"),
    "agent": ("DeliveryReport", "MailAgent"),
})
