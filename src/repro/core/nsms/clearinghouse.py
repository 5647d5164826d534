"""NSMs for Clearinghouse (Xerox/XDE) systems.

Identical client interfaces to the BIND NSMs; completely different
implementation: three-part names, Courier, per-access authentication,
disk.  Every lookup is an authenticated Clearinghouse retrieve and every
port comes from the Courier binding agent; :class:`ClearinghouseNSM`
builds both clients once.
"""

from __future__ import annotations

import typing

from repro.clearinghouse import CHName, ClearinghouseClient, Credentials
from repro.core.names import HNSName
from repro.core.nsm import NamingSemanticsManager
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hcsfs.fileserver import FILE_PROGRAM
from repro.hrpc.courier_binder import CourierBinderClient
from repro.net.addresses import Endpoint, NetworkAddress
from repro.net.host import Host
from repro.net.transport import Transport


class ClearinghouseNSM(NamingSemanticsManager):
    """The Clearinghouse family: one authenticated client, named
    ``<client_label>@<host>`` in the stats, and one Courier binder
    client."""

    client_label: str = ""

    def __init__(
        self,
        host: Host,
        name_service: str,
        transport: Transport,
        ch_server: Endpoint,
        credentials: Credentials,
        calibration: Calibration = DEFAULT_CALIBRATION,
        cached: bool = True,
        **kwargs: object,
    ):
        super().__init__(
            host, name_service, calibration=calibration, cached=cached, **kwargs  # type: ignore[arg-type]
        )
        self.client = ClearinghouseClient(
            host, transport, ch_server, credentials, name=f"{self.client_label}@{host.name}"
        )
        self.binder = CourierBinderClient(host, transport)


class ClearinghouseBindingNSM(ClearinghouseNSM):
    """Binds clients to Courier servers named through the Clearinghouse."""

    query_class = "HRPCBinding"
    client_label = "nsm-chbind"

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        service_name = params["service"]
        local_name = self.translate_name(hns_name)
        address_text = yield from self.client.lookup_address(local_name)
        address = NetworkAddress(address_text)
        port = yield from self.binder.locate(address, service_name)
        value = {
            "endpoint": Endpoint(address, port),
            "program": service_name,
            "suite": "courier",
            "system_type": "xde",
        }
        return value, self.calibration.meta_ttl_ms


class ClearinghouseHostAddressNSM(ClearinghouseNSM):
    """Maps a Clearinghouse host name to its network address."""

    query_class = "HostAddress"
    client_label = "nsm-ch"
    statically_linked = True

    def translate_name(self, hns_name: HNSName) -> str:
        """Individual names are the local three-part CH names."""
        CHName.parse(hns_name.name)  # validate the local syntax
        return hns_name.name

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        local_name = self.translate_name(hns_name)
        address = yield from self.client.lookup_address(local_name)
        return {"address": address}, self.calibration.meta_ttl_ms


class ClearinghouseMailboxNSM(ClearinghouseNSM):
    """Mailbox location from the ``mailboxes`` property ``<host>|<box>``
    on the user's three-part name."""

    query_class = "MailboxLocation"
    client_label = "nsm-chmail"

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        raw = yield from self.client.retrieve(
            self.translate_name(hns_name), "mailboxes"
        )
        mail_host, sep, mailbox = raw.decode("utf-8").partition("|")
        if not sep:
            raise ValueError(f"malformed mailboxes property {raw!r}")
        value = {"mail_host": mail_host, "mailbox": mailbox}
        return value, self.calibration.meta_ttl_ms


class ClearinghouseFileServiceNSM(ClearinghouseNSM):
    """File service location for Xerox systems (property + Courier binder)."""

    query_class = "FileService"
    client_label = "nsm-chfile"

    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        raw = yield from self.client.retrieve(
            self.translate_name(hns_name), "fileservice"
        )
        host_part, sep, volume = raw.decode("utf-8").partition("|")
        if not sep:
            raise ValueError(f"malformed fileservice property {raw!r}")
        # host_part is itself a three-part CH name; its address property
        # gives the server's network address.
        address_raw = yield from self.client.retrieve(host_part, "address")
        address = NetworkAddress(".".join(str(b) for b in address_raw))
        port = yield from self.binder.locate(address, FILE_PROGRAM)
        value = {
            "endpoint": Endpoint(address, port),
            "program": FILE_PROGRAM,
            "suite": "courier",
            "volume": volume,
        }
        return value, self.calibration.meta_ttl_ms
