"""Reregistration-based global binding.

"We should also compare our HNS-based binding timings with a scheme in
which a name service holds all of the (reregistered) data.  We
implemented such a scheme on top of the Clearinghouse, and found that
binding took 166 msec.  While it may be possible to improve the
performance of such a scheme (e.g., by using BIND instead of the
Clearinghouse to store the data) ..."

Binding data for every service is copied ("reregistered") into one
global name service; a binding is then a single lookup plus glue.  The
costs the paper rejects this design for are modelled too: every native
change must be re-pushed, and stale entries persist until then.
"""

from __future__ import annotations

import typing

from repro.bind import (
    BindResolver,
    NameNotFound,
    ResourceRecord,
    RRType,
    UpdateMode,
)
from repro.clearinghouse import CHName, ClearinghouseClient, NoSuchObject
from repro.core.metastore import decode_fields, encode_fields
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.binding import HRPCBinding
from repro.net.addresses import Endpoint, NetworkAddress
from repro.net.host import Host


class ReregistrationBinder:
    """Global binding data reregistered into one name service.

    ``store`` selects the backing service: a
    :class:`ClearinghouseClient` (the paper's implementation, 166 ms)
    or a :class:`BindResolver` (the hypothetical faster variant).
    """

    def __init__(
        self,
        host: Host,
        store: typing.Union[ClearinghouseClient, BindResolver],
        domain: str,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.host = host
        self.env = host.env
        self.store = store
        self.domain = domain
        self.calibration = calibration
        self._is_ch = isinstance(store, ClearinghouseClient)

    # ------------------------------------------------------------------
    def _entry_key(self, service_name: str, host_name: str) -> str:
        flat_host = "".join(c if c.isalnum() else "-" for c in host_name.lower())
        return f"{service_name.lower()}-{flat_host}"

    def reregister(
        self,
        service_name: str,
        host_name: str,
        address: str,
        port: int,
        suite: str = "sunrpc",
    ) -> typing.Generator:
        """Push one service's binding data into the global store.

        This is the cost "that continues without end": it must re-run on
        every native change, for every service, forever.
        """
        data = encode_fields(addr=address, port=port, suite=suite)
        key = self._entry_key(service_name, host_name)
        self.env.stats.counter("baseline.rereg.registrations").increment()
        if self._is_ch:
            yield from typing.cast(ClearinghouseClient, self.store).register(
                CHName(key, self.domain, "uw"), "binding", data
            )
        else:
            record = ResourceRecord(
                f"{key}.{self.domain}",  # type: ignore[arg-type]
                RRType.UNSPEC,
                self.calibration.meta_ttl_ms,
                data,
            )
            yield from typing.cast(BindResolver, self.store).primary.update(
                UpdateMode.REPLACE, f"{key}.{self.domain}", RRType.UNSPEC, [record]
            )

    def import_binding(
        self, service_name: str, host_name: str
    ) -> typing.Generator:
        """One lookup in the global store + glue; raises on unknown."""
        key = self._entry_key(service_name, host_name)
        self.env.stats.counter("baseline.rereg.imports").increment()
        if self._is_ch:
            try:
                raw = yield from typing.cast(
                    ClearinghouseClient, self.store
                ).retrieve(CHName(key, self.domain, "uw"), "binding")
            except NoSuchObject as err:
                raise KeyError(f"{service_name}@{host_name}") from err
        else:
            try:
                records = yield from typing.cast(BindResolver, self.store).lookup(
                    f"{key}.{self.domain}", RRType.UNSPEC
                )
            except NameNotFound as err:
                raise KeyError(f"{service_name}@{host_name}") from err
            raw = records[0].data
        yield self.host.cpu.compute(self.calibration.rereg_glue_ms)
        fields = decode_fields(raw)
        return HRPCBinding(
            endpoint=Endpoint(
                NetworkAddress(fields["addr"]), int(fields["port"])
            ),
            program=service_name,
            suite=fields["suite"],
        )
