"""HNS administration: integrating a new system type.

"adding a new system type simply requires building NSMs for those
queries to be supported and registering their existence with the HNS."
This module is that registration step: it writes the meta-naming
records (via dynamic update to the modified BIND) that make a name
service, its contexts, and its NSMs visible to every HNS instance at
once.
"""

from __future__ import annotations

import typing

from repro.core.metastore import MetaStore, NameServiceRecord, NsmRecord


class HnsAdministrator:
    """Registration convenience layer over a :class:`MetaStore`."""

    def __init__(self, metastore: MetaStore):
        self.metastore = metastore

    def register_name_service(
        self,
        name: str,
        kind: str,
        host_name: str,
        port: int,
    ) -> typing.Generator:
        """Introduce an underlying name service to the global service."""
        if kind not in ("bind", "clearinghouse", "adhoc"):
            raise ValueError(f"unknown name service kind {kind!r}")
        yield from self.metastore.register_name_service(
            NameServiceRecord(name=name, kind=kind, host_name=host_name, port=port)
        )

    def register_context(self, context: str, name_service: str) -> typing.Generator:
        """Map a context onto (part of) one name service's name space.

        The one-context-one-service rule is what guarantees no naming
        conflicts when previously separate systems are combined.
        """
        yield from self.metastore.register_context(context, name_service)

    def register_nsm(
        self,
        nsm_name: str,
        query_class: str,
        name_service: str,
        host_name: str,
        host_context: str,
        program: str,
        suite: str,
        port: int,
        host_address: typing.Optional[str] = None,
    ) -> typing.Generator:
        """Register one NSM: its record, its query mapping, and (for
        remotely callable NSMs) its host's address record.

        "registering an NSM with the HNS extends the functionality of
        all machines at once."
        """
        record = NsmRecord(
            name=nsm_name,
            query_class=query_class,
            name_service=name_service,
            host_name=host_name,
            host_context=host_context,
            program=program,
            suite=suite,
            port=port,
        )
        yield from self.metastore.register_nsm(record)
        yield from self.metastore.register_query_mapping(
            name_service, query_class, nsm_name
        )
        if host_address is not None:
            yield from self.metastore.register_nsm_host_address(
                host_name, host_address
            )

