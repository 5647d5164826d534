"""Equation (1): the caching-versus-colocation tradeoff.

With ``p`` the cache-hit fraction of a locally linked copy and ``q``
the *increase* in hit fraction from a shared remote placement:

    C(remote location) = C(remote call) + (p+q) C(hit) + (1-p-q) C(miss)
    C(local location)  = C(local call)  + p     C(hit) + (1-p)   C(miss)

Since C(local call) ~ 0, remote placement wins exactly when

    q > C(remote call) / (C(miss) - C(hit))              (1)

The paper evaluates this with C(remote call) = 33 ms and the Table 3.1
cells, getting ~11% for the HNS and ~42% for the NSMs.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ColocationModel:
    """Cost model for one component's placement decision."""

    remote_call_ms: float
    cache_miss_ms: float
    cache_hit_ms: float

    def __post_init__(self) -> None:
        if self.cache_miss_ms <= self.cache_hit_ms:
            raise ValueError(
                "equation (1) requires C(miss) > C(hit); got "
                f"miss={self.cache_miss_ms}, hit={self.cache_hit_ms}"
            )

    def q_threshold(self) -> float:
        """Equation (1): the extra hit fraction remote placement needs."""
        return self.remote_call_ms / (self.cache_miss_ms - self.cache_hit_ms)
