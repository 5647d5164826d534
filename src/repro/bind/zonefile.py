"""BIND master-file (zone file) reading and writing.

Real BIND loads its authoritative data from master files; this module
supports a faithful subset so testbeds can be described as text:

    ; comment
    $ORIGIN cs.washington.edu
    $TTL 3600000
    fiji        3600000  A      128.95.1.4
    june                 A      128.95.1.99
    schwartz             TXT    "mailhost=june.cs.washington.edu;mailbox=schwartz"
    meta                 UNSPEC "ns=BIND-cs"
    @                    TXT    "the origin itself"

Names are relative to ``$ORIGIN`` unless they end with a dot; a missing
TTL falls back to ``$TTL`` (or the zone default).  Supported types:
A, TXT, HINFO, UNSPEC, CNAME.
"""

from __future__ import annotations

import shlex
import typing

from repro.bind.names import DomainName
from repro.bind.rr import ResourceRecord, RRType
from repro.bind.zone import Zone


class ZoneFileError(Exception):
    """Malformed master file."""

    def __init__(self, message: str, line_number: int = 0):
        prefix = f"line {line_number}: " if line_number else ""
        super().__init__(prefix + message)
        self.line_number = line_number


_TEXT_TYPES = {RRType.TXT, RRType.HINFO, RRType.UNSPEC, RRType.CNAME}


def _strip_comment(line: str) -> str:
    # A ';' outside quotes starts a comment.
    out = []
    in_quotes = False
    for ch in line:
        if ch == '"':
            in_quotes = not in_quotes
        if ch == ";" and not in_quotes:
            break
        out.append(ch)
    return "".join(out).strip()


def parse_zone_text(text: str, default_origin: str = "") -> Zone:
    """Parse a master file into a :class:`Zone`."""
    origin: typing.Optional[DomainName] = (
        DomainName(default_origin) if default_origin else None
    )
    default_ttl: typing.Optional[float] = None
    pending: typing.List[typing.Tuple[int, ResourceRecord]] = []
    records: typing.List[ResourceRecord] = []

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        try:
            tokens = shlex.split(line)
        except ValueError as err:
            raise ZoneFileError(str(err), line_number) from err
        directive = tokens[0].upper()
        if directive == "$ORIGIN":
            if len(tokens) != 2:
                raise ZoneFileError("$ORIGIN needs exactly one name", line_number)
            origin = DomainName(tokens[1])
            continue
        if directive == "$TTL":
            if len(tokens) != 2:
                raise ZoneFileError("$TTL needs exactly one value", line_number)
            try:
                default_ttl = float(tokens[1])
            except ValueError as err:
                raise ZoneFileError(f"bad TTL {tokens[1]!r}", line_number) from err
            continue
        if origin is None:
            raise ZoneFileError("record before any $ORIGIN", line_number)
        records.append(_parse_record(tokens, origin, default_ttl, line_number))

    if origin is None:
        raise ZoneFileError("master file defines no $ORIGIN")
    zone = Zone(origin, default_ttl=default_ttl if default_ttl is not None else 3_600_000)
    for record in records:
        zone.add(record)
    # Loading a file is one logical version, not len(records) updates:
    # the journal of those adds carries serials the zone never had.
    zone.serial = 1
    zone.reset_journal()
    return zone


def _parse_record(
    tokens: typing.Sequence[str],
    origin: DomainName,
    default_ttl: typing.Optional[float],
    line_number: int,
) -> ResourceRecord:
    if len(tokens) < 3:
        raise ZoneFileError("record needs: name [ttl] TYPE rdata", line_number)
    name_token = tokens[0]
    rest = list(tokens[1:])
    # Optional TTL between name and type.
    ttl = default_ttl if default_ttl is not None else 3_600_000.0
    if rest and rest[0].replace(".", "", 1).isdigit():
        ttl = float(rest.pop(0))
    if len(rest) < 2:
        raise ZoneFileError("record needs a TYPE and rdata", line_number)
    type_token = rest[0].upper()
    rdata_tokens = rest[1:]
    try:
        rtype = RRType[type_token]
    except KeyError as err:
        raise ZoneFileError(f"unsupported type {type_token!r}", line_number) from err
    # Resolve the owner name.
    if name_token == "@":
        name = origin
    elif name_token.endswith("."):
        name = DomainName(name_token)
    else:
        name = DomainName(f"{name_token}.{origin}")
    try:
        if rtype is RRType.A:
            if len(rdata_tokens) != 1:
                raise ZoneFileError("A record needs one address", line_number)
            return ResourceRecord.a_record(name, rdata_tokens[0], ttl=ttl)
        if rtype in _TEXT_TYPES:
            return ResourceRecord(
                name, rtype, ttl, " ".join(rdata_tokens).encode("utf-8")
            )
    except ZoneFileError:
        raise
    except ValueError as err:
        raise ZoneFileError(str(err), line_number) from err
    raise ZoneFileError(f"unsupported type {type_token!r}", line_number)


def render_zone_text(zone: Zone) -> str:
    """Write a zone back out as a master file (parse/render round-trips)."""
    lines = [f"$ORIGIN {zone.origin}", f"$TTL {zone.default_ttl:.0f}"]
    for record in zone.all_records():
        owner = record.name.relative_to(zone.origin)
        if record.rtype is RRType.A:
            rdata = record.address
        else:
            rdata = '"' + record.text.replace('"', "") + '"'
        lines.append(f"{owner} {record.ttl:.0f} {record.rtype.name} {rdata}")
    return "\n".join(lines) + "\n"


def load_zone_file(path: str) -> Zone:
    """Parse a master file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_zone_text(handle.read())
