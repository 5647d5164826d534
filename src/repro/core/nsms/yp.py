"""NSMs for Sun Yellow Pages systems: the third system type.

These demonstrate the paper's integration story end to end: supporting
a whole new kind of name service takes one small NSM per query class
worth supporting, registered once with the HNS.  YP host addresses come
from the ``hosts.byname`` map; binding still uses the Sun portmapper
(YP systems are Sun systems); mailboxes come from ``mail.aliases``.
"""

from __future__ import annotations

import typing

from repro.core.names import HNSName
from repro.core.nsm import NamingSemanticsManager
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.portmapper import PortmapperClient
from repro.net.addresses import Endpoint, NetworkAddress
from repro.net.host import Host
from repro.net.transport import Transport
from repro.yellowpages.client import YpClient


class YpNSM(NamingSemanticsManager):
    """The YP family: one client of a YP domain, named
    ``<client_label>@<host>`` in the stats, and one portmapper client."""

    client_label: str = ""

    def __init__(
        self,
        host: Host,
        name_service: str,
        transport: Transport,
        yp_server: Endpoint,
        domain: str,
        calibration: Calibration = DEFAULT_CALIBRATION,
        cached: bool = True,
        **kwargs: object,
    ):
        super().__init__(
            host, name_service, calibration=calibration, cached=cached, **kwargs  # type: ignore[arg-type]
        )
        self.client = YpClient(
            host, transport, yp_server, domain, name=f"{self.client_label}@{host.name}"
        )
        self.portmapper = PortmapperClient(host, transport, calibration=calibration)


class YpHostAddressNSM(YpNSM):
    """HostAddress via ``hosts.byname``."""

    query_class = "HostAddress"
    client_label = "nsm-yp"
    statically_linked = True

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        # hosts.byname values are "address canonical-name aliases..."
        value = yield from self.client.match(
            "hosts.byname", self.translate_name(hns_name)
        )
        address = value.split()[0]
        return {"address": address}, self.calibration.meta_ttl_ms


class YpBindingNSM(YpNSM):
    """HRPCBinding for YP-named Sun hosts (portmapper protocol)."""

    query_class = "HRPCBinding"
    client_label = "nsm-ypbind"

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        service_name = params["service"]
        value = yield from self.client.match(
            "hosts.byname", self.translate_name(hns_name)
        )
        address = NetworkAddress(value.split()[0])
        port = yield from self.portmapper.get_port(address, service_name)
        return (
            {
                "endpoint": Endpoint(address, port),
                "program": service_name,
                "suite": "sunrpc",
                "system_type": "sun",
            },
            self.calibration.meta_ttl_ms,
        )


class YpMailboxNSM(YpNSM):
    """MailboxLocation via ``mail.aliases`` ("user: host|box")."""

    query_class = "MailboxLocation"
    client_label = "nsm-ypmail"

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        value = yield from self.client.match(
            "mail.aliases", self.translate_name(hns_name)
        )
        mail_host, sep, mailbox = value.partition("|")
        if not sep:
            raise ValueError(f"malformed mail.aliases value {value!r}")
        return (
            {"mail_host": mail_host, "mailbox": mailbox},
            self.calibration.meta_ttl_ms,
        )
