"""NSMs for BIND (UNIX/Sun) systems.

Every BIND-side NSM asks its server through the same hand-coded
resolver and binds through the Sun portmapper; :class:`BindNSM` builds
both once.  The NSM result cache (``self.cache``) covers the
standardized answers; the resolver itself runs uncached so the native
cost is the paper's 27 ms conventional lookup.
"""

from __future__ import annotations

import typing

from repro.bind import BindResolver, RRType
from repro.core.names import HNSName
from repro.core.nsm import NamingSemanticsManager
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hcsfs.fileserver import FILE_PROGRAM
from repro.hrpc.portmapper import PortmapperClient
from repro.net.addresses import Endpoint, NetworkAddress
from repro.net.host import Host
from repro.net.transport import Transport


def _parse_fields(
    text: str, required: typing.Sequence[str]
) -> typing.Dict[str, str]:
    """A ``key=value;...`` TXT record as a dict that has every
    ``required`` key; ``ValueError`` names the bad part or the missing
    key."""
    fields = {}
    for part in text.split(";"):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed TXT record part {part!r} in {text!r}")
        fields[key] = value
    for key in required:
        if key not in fields:
            raise ValueError(f"TXT record {text!r} has no {key!r} field")
    return fields


class BindNSM(NamingSemanticsManager):
    """The BIND family: one uncached resolver and one portmapper client,
    the resolver named ``<client_label>@<host>`` in the stats."""

    client_label: str = ""

    def __init__(
        self,
        host: Host,
        name_service: str,
        transport: Transport,
        bind_server: Endpoint,
        calibration: Calibration = DEFAULT_CALIBRATION,
        cached: bool = True,
        **kwargs: object,
    ):
        super().__init__(
            host, name_service, calibration=calibration, cached=cached, **kwargs  # type: ignore[arg-type]
        )
        self.resolver = BindResolver(
            host,
            transport,
            bind_server,
            marshalling="handcoded",
            calibration=calibration,
            name=f"{self.client_label}@{host.name}",
        )
        self.portmapper = PortmapperClient(host, transport, calibration=calibration)


class BindBindingNSM(BindNSM):
    """Binds clients to Sun RPC servers named through BIND.

    "The NSM looks up the local name ('fiji.cs.washington.edu') in the
    name service, and then determines the needed port number for the
    ServiceName, using whatever binding protocol is appropriate for that
    particular system" — here the Sun portmapper protocol.
    """

    query_class = "HRPCBinding"
    client_label = "nsm-binding"

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        service_name = params["service"]
        # 1. Local name service lookup: host name -> address.
        local_name = self.translate_name(hns_name)
        records = yield from self.resolver.lookup(local_name)
        address = NetworkAddress(records[0].address)
        # 2. Native binding protocol: the Sun portmapper exchanges.
        port = yield from self.portmapper.get_port(address, service_name)
        value = {
            "endpoint": Endpoint(address, port),
            "program": service_name,
            "suite": "sunrpc",
            "system_type": "sun",
        }
        return value, min(r.ttl for r in records)


class BindHostAddressNSM(BindNSM):
    """Maps a host name to its address via the conventional resolver.

    Instances are also statically linked into every HNS to cut the
    FindNSM recursion.
    """

    query_class = "HostAddress"
    client_label = "nsm-hostaddr"
    statically_linked = True

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        local_name = self.translate_name(hns_name)
        records = yield from self.resolver.lookup(local_name)
        ttl = min(r.ttl for r in records)
        return {"address": records[0].address}, ttl


class BindMailboxNSM(BindNSM):
    """Mailbox location from a TXT record
    ``mailhost=<host>;mailbox=<box>`` on the user's domain name."""

    query_class = "MailboxLocation"
    client_label = "nsm-mail"

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        records = yield from self.resolver.lookup(
            self.translate_name(hns_name), RRType.TXT
        )
        fields = _parse_fields(records[0].text, ("mailhost", "mailbox"))
        value = {"mail_host": fields["mailhost"], "mailbox": fields["mailbox"]}
        return value, min(r.ttl for r in records)


class BindFileServiceNSM(BindNSM):
    """File service location for UNIX/Sun systems.

    The volume descriptor lives in a TXT record
    (``server=<host>;volume=<path>``); the server's address comes from
    an A lookup and its port from the portmapper.
    """

    query_class = "FileService"
    client_label = "nsm-file"

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        records = yield from self.resolver.lookup(
            self.translate_name(hns_name), RRType.TXT
        )
        fields = _parse_fields(records[0].text, ("server", "volume"))
        address_records = yield from self.resolver.lookup(fields["server"])
        address = NetworkAddress(address_records[0].address)
        port = yield from self.portmapper.get_port(address, FILE_PROGRAM)
        value = {
            "endpoint": Endpoint(address, port),
            "program": FILE_PROGRAM,
            "suite": "sunrpc",
            "volume": fields["volume"],
        }
        return value, min(r.ttl for r in records)
