"""Deterministic, named random streams.

Every stochastic decision in the simulator (network jitter, workload
inter-arrival times, Zipf draws) pulls from a stream named after its
purpose.  Streams are derived from one master seed, so adding a new
consumer never perturbs existing ones — runs stay reproducible as the
codebase evolves, which the benchmark harness depends on.
"""

from __future__ import annotations

import hashlib
import random
import typing


class RngRegistry:
    """Hands out independent :class:`random.Random` streams by name."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: typing.Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created (deterministically) on demand."""
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()
            # hnslint: disable=SIM001 -- RngRegistry is the one sanctioned wrapper: every stream derives from the master seed
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream
