"""A BindServer that can be told to sit on requests for a while."""

from repro.bind import BindServer


class StallServer(BindServer):
    """Waits ``stall_ms`` before handling each request, when set.

    ``BindServer.handle`` answers most kinds from its charges' callbacks
    (``None``) and some as a generator; the stall runs either after its
    wait.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stall_ms = 0.0

    def handle(self, datagram, responder):
        if not self.stall_ms:
            return super().handle(datagram, responder)
        return self._stalled(datagram, responder)

    def _stalled(self, datagram, responder):
        yield self.env.timeout(self.stall_ms)
        handler = super().handle(datagram, responder)
        if handler is not None:
            yield from handler
