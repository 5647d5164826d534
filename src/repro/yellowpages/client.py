"""YP client (the ypbind/ypmatch side)."""

from __future__ import annotations

import typing

from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.transport import Transport
from repro.yellowpages.errors import NoSuchKey, NoSuchMap, YpError
from repro.yellowpages.server import STATUS_OK, YpMapList, YpMatch, YpReply

_STATUS_TO_ERROR = {NoSuchMap.status: NoSuchMap, NoSuchKey.status: NoSuchKey}


class YpClient:
    """Matches keys against one YP server's domain."""

    def __init__(
        self,
        host: Host,
        transport: Transport,
        server: Endpoint,
        domain: str,
        name: str = "yp-client",
    ):
        self.host = host
        self.env = host.env
        self.transport = transport
        self.server = server
        self.domain = domain
        self.name = name

    def _roundtrip(self, request: object, size: int) -> typing.Generator:
        reply = yield self.transport.request(
            self.host, self.server, request, size
        )
        if not isinstance(reply, YpReply):
            raise YpError(f"malformed reply {reply!r}")
        if reply.status != STATUS_OK:
            raise _STATUS_TO_ERROR.get(reply.status, YpError)(
                f"status {reply.status}"
            )
        return reply

    def match(self, map_name: str, key: str) -> typing.Generator:
        """ypmatch: the value for ``key`` in ``map_name``."""
        self.env.stats.counter(f"yp.{self.name}.lookups").increment()
        request = YpMatch(self.domain, map_name, key)
        reply = yield from self._roundtrip(
            request, 48 + len(map_name) + len(key)
        )
        yield self.host.cpu.compute(0.3)  # tiny reply demarshal
        return reply.value

    def map_names(self) -> typing.Generator:
        reply = yield from self._roundtrip(YpMapList(self.domain), 48)
        return list(reply.values)
