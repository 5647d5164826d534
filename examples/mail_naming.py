"""Mail naming: one query class, two very different name services.

The HCS mail service needs to locate mailboxes for users whose naming
data lives either in BIND (UNIX users) or the Clearinghouse (Xerox
users).  With one MailboxLocation NSM per name service, the mail agent
asks the HNS which NSM to use and never parses a heterogeneous address
itself — the contrast with sendmail's rewriting rules the paper draws.

Run:  python examples/mail_naming.py
"""

from repro.core import HNSName, LocalNsmBinding, NsmStub
from repro.core.nsms import BindMailboxNSM, ClearinghouseMailboxNSM
from repro.workloads import build_testbed


def main() -> None:
    testbed = build_testbed(seed=4)
    env = testbed.env

    # A mail agent process with both mail NSMs linked in.
    hns = testbed.make_hns(testbed.client)
    nsms = {
        "MailboxLocation-BIND-cs": testbed.make_nsm(BindMailboxNSM, testbed.client),
        "MailboxLocation-CH-hcs": testbed.make_nsm(ClearinghouseMailboxNSM, testbed.client),
    }
    for nsm in nsms.values():
        hns.link_local_nsm(nsm)
    stub = NsmStub(testbed.client, local_nsms=nsms)

    recipients = [
        HNSName("BIND-cs", "schwartz.cs.washington.edu"),  # a UNIX user
        HNSName("CH-hcs", "levy:hcs:uw"),                  # a Xerox user
    ]

    def mail_agent():
        for recipient in recipients:
            nsm_binding = yield from hns.find_nsm(recipient, "MailboxLocation")
            which = (
                nsm_binding.nsm.name
                if isinstance(nsm_binding, LocalNsmBinding)
                else nsm_binding.program
            )
            result = yield from stub.call(nsm_binding, recipient)
            print(f"deliver to {recipient}")
            print(f"  via NSM:   {which}")
            print(f"  mail host: {result.value['mail_host']}")
            print(f"  mailbox:   {result.value['mailbox']}\n")

    env.run(until=env.process(mail_agent()))
    print(
        "The mail agent never knew one answer came from an in-memory DNS\n"
        "and the other from an authenticated, disk-resident Clearinghouse."
    )


if __name__ == "__main__":
    main()
