"""The HCS mail system over the HNS: heterogeneous delivery, spooling."""

import pytest

from repro.core import HNSName, NsmStub
from repro.core.import_call import HrpcImporter, LocalFinder
from repro.core.nsms import (
    BindBindingNSM,
    BindMailboxNSM,
    ClearinghouseBindingNSM,
    ClearinghouseMailboxNSM,
)
from repro.hrpc import HrpcRuntime
from repro.mail import MAIL_PROGRAM, MailAgent, MailMessage, MailboxServer
from repro.workloads import build_testbed

SCHWARTZ = HNSName("BIND-cs", "schwartz.cs.washington.edu")
LEVY = HNSName("CH-hcs", "levy:hcs:uw")


def run(env, gen):
    return env.run(until=env.process(gen))


@pytest.fixture
def mail_world():
    return build_mail_world()


def build_mail_world():
    """Testbed + mailbox servers on june (BIND side) and dlion (CH side)
    + a fully wired mail agent on the client."""
    testbed = build_testbed(seed=55)
    env = testbed.env

    # Mail hosts run the hcsmail service and register it with their
    # native binding protocols.
    june_box = MailboxServer(testbed.june, mailboxes=["schwartz"])
    from repro.hrpc import Portmapper

    june_pm = Portmapper(testbed.june, calibration=testbed.calibration)
    june_pm.listen()
    june_pm.register_local(MAIL_PROGRAM, june_box.endpoint.port)

    dlion_box = MailboxServer(testbed.dlion, mailboxes=["levy"])
    binder = testbed.dlion.service_at(5002)  # the Courier binder
    binder.advertise_local(MAIL_PROGRAM, dlion_box.endpoint.port)

    # The agent: HNS + mail NSMs + binding NSMs, all linked in.
    hns = testbed.make_hns(testbed.client)
    nsms = [
        testbed.make_nsm(BindMailboxNSM, testbed.client),
        testbed.make_nsm(ClearinghouseMailboxNSM, testbed.client),
        testbed.make_nsm(BindBindingNSM, testbed.client),
        testbed.make_nsm(ClearinghouseBindingNSM, testbed.client),
    ]
    stub = NsmStub(testbed.client)
    for nsm in nsms:
        hns.link_local_nsm(nsm)
        stub.link_local(nsm)
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    importer = HrpcImporter.direct(
        testbed.client,
        LocalFinder(hns),
        stub,
        calibration=testbed.calibration,
    )
    agent = MailAgent(testbed.client, hns, stub, importer, runtime)
    return testbed, agent, june_box, dlion_box


def message(*recipients, subject="measurements", body="Table 3.1 attached"):
    return MailMessage(
        sender=HNSName("BIND-cs", "zahorjan.cs.washington.edu"),
        recipients=tuple(recipients),
        subject=subject,
        body=body,
    )


def test_message_validation():
    with pytest.raises(ValueError):
        MailMessage(SCHWARTZ, (), "s", "b")
    m = message(SCHWARTZ)
    assert m.size_bytes > 0
    assert "msg #" in str(m)


def test_message_ids_are_numbered_per_simulation():
    """Two same-seed worlds in one process trace the same run: message
    ids come from each simulation's own sequence, not a global one."""

    def traced_run():
        testbed, agent, june_box, _ = build_mail_world()
        env = testbed.env
        env.trace.enabled = True
        first, second = message(SCHWARTZ, LEVY), message(SCHWARTZ, subject="again")
        unsubmitted = (first.msg_id, second.msg_id)
        run(env, agent.submit(first))
        run(env, agent.submit(second))
        run(env, agent.submit(first))  # a resubmission keeps its id
        stored = [m.msg_id for m in june_box.messages_in("schwartz")]
        return env.trace.digest(), unsubmitted, stored

    digest, unsubmitted, stored = traced_run()
    assert traced_run()[0] == digest
    assert unsubmitted == (0, 0)
    assert stored == [1, 2, 1]


def test_deliver_to_bind_side_user(mail_world):
    testbed, agent, june_box, dlion_box = mail_world
    report = run(testbed.env, agent.submit(message(SCHWARTZ)))
    assert report.fully_delivered
    stored = june_box.messages_in("schwartz")
    assert len(stored) == 1
    assert stored[0].subject == "measurements"


def test_deliver_to_clearinghouse_side_user(mail_world):
    testbed, agent, june_box, dlion_box = mail_world
    report = run(testbed.env, agent.submit(message(LEVY)))
    assert report.fully_delivered
    assert len(dlion_box.messages_in("levy")) == 1


def test_one_message_heterogeneous_recipients(mail_world):
    """One submit, recipients on two different system types."""
    testbed, agent, june_box, dlion_box = mail_world
    report = run(testbed.env, agent.submit(message(SCHWARTZ, LEVY)))
    assert report.fully_delivered
    assert len(june_box.messages_in("schwartz")) == 1
    assert len(dlion_box.messages_in("levy")) == 1
    counters = testbed.env.stats.counters()
    assert counters["mail.agent.sent"] == 2


def test_unknown_user_spools(mail_world):
    testbed, agent, june_box, dlion_box = mail_world
    ghost = HNSName("BIND-cs", "ghost.cs.washington.edu")
    report = run(testbed.env, agent.submit(message(ghost, SCHWARTZ)))
    assert not report.fully_delivered
    assert [r for r, _ in report.queued] == [ghost]
    assert report.delivered == [SCHWARTZ]
    assert agent.spool_size == 1


def test_down_mail_host_spools_then_retry_succeeds(mail_world):
    testbed, agent, june_box, dlion_box = mail_world
    env = testbed.env
    testbed.june.crash()
    report = run(env, agent.submit(message(SCHWARTZ)))
    assert not report.fully_delivered
    assert agent.spool_size == 1
    # Host comes back; a retry pass drains the spool.
    testbed.june.restart()
    sent = run(env, agent.retry_spool())
    assert sent == 1
    assert agent.spool_size == 0
    assert len(june_box.messages_in("schwartz")) == 1


def test_spool_bounces_after_max_attempts(mail_world):
    testbed, agent, june_box, dlion_box = mail_world
    env = testbed.env
    ghost = HNSName("BIND-cs", "ghost.cs.washington.edu")
    run(env, agent.submit(message(ghost)))
    for _ in range(MailAgent.MAX_ATTEMPTS):
        run(env, agent.retry_spool())
    assert agent.spool_size == 0
    assert env.stats.counters().get("mail.agent.bounced") == 1


def test_mailbox_server_operations(mail_world):
    testbed, agent, june_box, dlion_box = mail_world
    env = testbed.env
    run(env, agent.submit(message(SCHWARTZ, subject="one")))
    run(env, agent.submit(message(SCHWARTZ, subject="two")))

    # A mail reader lists and fetches over HRPC.
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    from repro.hrpc import HRPCBinding

    binding = HRPCBinding(june_box.endpoint, MAIL_PROGRAM, suite="sunrpc")

    def reader():
        summaries = yield from runtime.call(binding, "list", "schwartz")
        fetched = yield from runtime.call(
            binding, "fetch", "schwartz", summaries[0]["msg_id"]
        )
        return summaries, fetched

    summaries, fetched = run(env, reader())
    assert [s["subject"] for s in summaries] == ["one", "two"]
    assert fetched.subject == "one"


def test_mailbox_errors(mail_world):
    testbed, agent, june_box, dlion_box = mail_world
    from repro.mail.mailbox import MailboxError

    with pytest.raises(MailboxError):
        june_box.messages_in("nobody")
    with pytest.raises(ValueError):
        june_box.create_mailbox("")
    june_box.create_mailbox("newbox")
    assert june_box.messages_in("newbox") == []
