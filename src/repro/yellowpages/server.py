"""The YP server process (ypserv)."""

from __future__ import annotations

import dataclasses
import typing

from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.net.addresses import Endpoint
from repro.net.host import Host, Service
from repro.yellowpages.errors import NoSuchMap, YpError
from repro.yellowpages.maps import YpDomain

#: default ypserv port (the real one registers with the portmapper;
#: here it is fixed for determinism)
YP_PORT = 1067

STATUS_OK = 0

#: ypserv keeps its dbm maps in memory and does no authentication: a
#: match is fast, comparable to BIND's in-memory lookup path.
DEFAULT_MATCH_COST_MS = 9.0


@dataclasses.dataclass
class YpMatch:
    """Request: the value for ``key`` in ``map_name`` of ``domain``."""

    domain: str
    map_name: str
    key: str


@dataclasses.dataclass
class YpMapList:
    """Request: the names of all maps in ``domain``."""

    domain: str


@dataclasses.dataclass
class YpReply:
    """Status plus the matched value (or map names)."""
    status: int
    value: str = ""
    values: typing.Tuple[str, ...] = ()


class YpServer(Service):
    """Serves one or more YP domains."""

    def __init__(
        self,
        host: Host,
        domains: typing.Optional[typing.Sequence[YpDomain]] = None,
        match_cost_ms: float = DEFAULT_MATCH_COST_MS,
        calibration: Calibration = DEFAULT_CALIBRATION,
        name: str = "",
    ):
        if match_cost_ms < 0:
            raise ValueError("match cost must be non-negative")
        self.host = host
        self.env = host.env
        self.calibration = calibration
        self.name = name or f"ypserv@{host.name}"
        self.domains: typing.Dict[str, YpDomain] = {
            d.name: d for d in (domains or [])
        }
        self.match_cost_ms = match_cost_ms
        self.endpoint: typing.Optional[Endpoint] = None

    def listen(self, port: int = YP_PORT) -> Endpoint:
        self.endpoint = self.host.bind(port, self)
        return self.endpoint

    def add_domain(self, domain: YpDomain) -> None:
        if domain.name in self.domains:
            raise ValueError(f"duplicate domain {domain.name!r}")
        self.domains[domain.name] = domain

    def handle(self, datagram, responder):
        request = datagram.payload
        yield self.host.cpu.compute(self.match_cost_ms)
        try:
            if isinstance(request, YpMatch):
                self.env.stats.counter(f"yp.{self.name}.matches").increment()
                domain = self.domains.get(request.domain)
                if domain is None:
                    raise NoSuchMap(f"domain {request.domain!r}")
                value = domain.existing_map(request.map_name).match(request.key)
                responder(YpReply(STATUS_OK, value=value), 32 + len(value))
            elif isinstance(request, YpMapList):
                domain = self.domains.get(request.domain)
                if domain is None:
                    raise NoSuchMap(f"domain {request.domain!r}")
                names = tuple(domain.map_names())
                responder(
                    YpReply(STATUS_OK, values=names),
                    32 + sum(len(n) for n in names),
                )
            else:
                responder(YpReply(YpError.status), 16)
        except YpError as err:
            self.env.trace.emit("yp", f"{self.name}: {err!r}")
            responder(YpReply(err.status), 16)
