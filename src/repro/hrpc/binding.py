"""HRPC bindings: the system-independent server handle.

"The client presents a name and is returned a Binding to an NSM that
understands exactly how to do binding on the system type from which the
name came. ... This Binding is system-independent from the point of
view of the client, even though the means by which this information is
gathered by the NSM varies widely from system to system."
"""

from __future__ import annotations

import dataclasses
import types
import typing

from repro.hrpc.suites import suite_named
from repro.net.addresses import Endpoint


@dataclasses.dataclass(frozen=True)
class HRPCBinding:
    """Everything needed to call a remote program.

    ``suite`` selects the transport / data representation / control
    protocol black boxes; ``endpoint`` is where the server listens;
    ``program`` names the RPC program to dispatch to.  ``metadata`` is
    held read-only, so one binding can be handed to every caller.
    """

    endpoint: Endpoint
    program: str
    suite: str = "sunrpc"
    system_type: str = "unix"
    metadata: typing.Mapping[str, str] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.program:
            raise ValueError("binding needs a program name")
        suite_named(self.suite)  # validates
        object.__setattr__(
            self, "metadata", types.MappingProxyType(dict(self.metadata))
        )

    def describe(self) -> str:
        return (
            f"HRPCBinding({self.program} @ {self.endpoint}, suite={self.suite}, "
            f"system={self.system_type})"
        )

    def wire_size(self) -> int:
        """Approximate marshalled size of the binding structure."""
        return 48 + len(self.program) + sum(
            len(k) + len(v) for k, v in self.metadata.items()
        )
