"""Query classes: the typed interfaces of the NSM confederation.

"All NSMs for a particular query class have identical client
interfaces" — a query class fixes the procedure the client calls and
the standard result shape, independent of which name service answers.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.errors import QueryClassUnsupported


@dataclasses.dataclass(frozen=True)
class QueryClass:
    """One query class: its name, standardized result fields and the
    query parameters every call must supply."""

    name: str
    result_fields: typing.Tuple[str, ...]
    description: str = ""
    required_params: typing.Tuple[str, ...] = ()

    def validate_result(self, value: typing.Mapping[str, object]) -> None:
        """Check an NSM's result against the standard interface."""
        missing = set(self.result_fields) - set(value)
        if missing:
            raise QueryClassUnsupported(
                f"result for {self.name} missing fields {sorted(missing)}"
            )


#: The query classes this reproduction ships.  HRPCBinding and
#: HostAddress are the ones the paper's evaluation uses; mail and filing
#: are the other two HCS network services the HNS supported.
QUERY_CLASSES: typing.Dict[str, QueryClass] = {
    qc.name: qc
    for qc in (
        QueryClass(
            "HRPCBinding",
            ("endpoint", "program", "suite", "system_type"),
            "Connect a client to a server: the first HNS application.",
            required_params=("service",),
        ),
        QueryClass(
            "HostAddress",
            ("address",),
            "Map a host name to a network address.",
        ),
        QueryClass(
            "MailboxLocation",
            ("mail_host", "mailbox"),
            "Locate a user's mailbox for the HCS mail service.",
        ),
        QueryClass(
            "FileService",
            ("endpoint", "program", "suite", "volume"),
            "Locate a file service and volume for the HCS filing service.",
        ),
        QueryClass(
            "AdHocService",
            ("address", "owner", "incarnation"),
            "Locate a service on the local segment via presence beacons.",
        ),
    )
}


def query_class_named(name: str) -> QueryClass:
    """Look up a query class; raises QueryClassUnsupported."""
    qc = QUERY_CLASSES.get(name)
    if qc is None:
        raise QueryClassUnsupported(
            f"unknown query class {name!r}; known: {sorted(QUERY_CLASSES)}"
        )
    return qc
