"""Latency models used by the network and device layers.

A latency model maps an operation (optionally parameterised by payload
size) to a delay in simulated milliseconds.  The calibration module
(:mod:`repro.harness.calibration`) instantiates these with the component
costs measured in the paper.
"""

from __future__ import annotations

import random


class LatencyModel:
    """Base class: ``sample(rng, size_bytes)`` returns a delay in ms."""

    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Fixed base delay plus an optional per-byte transfer cost."""

    def __init__(self, base_ms: float, per_byte_ms: float = 0.0):
        if base_ms < 0 or per_byte_ms < 0:
            raise ValueError("latency parameters must be non-negative")
        self.base_ms = float(base_ms)
        self.per_byte_ms = float(per_byte_ms)

    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        return self.base_ms + self.per_byte_ms * size_bytes

    def __repr__(self) -> str:
        return f"ConstantLatency({self.base_ms}, per_byte={self.per_byte_ms})"


class UniformLatency(LatencyModel):
    """Uniform jitter in ``[low_ms, high_ms]`` plus per-byte cost."""

    def __init__(self, low_ms: float, high_ms: float, per_byte_ms: float = 0.0):
        if not 0 <= low_ms <= high_ms:
            raise ValueError(f"bad uniform range [{low_ms}, {high_ms}]")
        self.low_ms = float(low_ms)
        self.high_ms = float(high_ms)
        self.per_byte_ms = float(per_byte_ms)

    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        return rng.uniform(self.low_ms, self.high_ms) + self.per_byte_ms * size_bytes
