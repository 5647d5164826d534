"""Three-part Clearinghouse names: ``object:domain:organization``."""

from __future__ import annotations

import dataclasses

MAX_PART = 40  # Clearinghouse limits name parts to 40 characters


@dataclasses.dataclass(frozen=True, order=True)
class CHName:
    """A distributed three-level name, case-insensitive like the original."""

    object_part: str
    domain: str
    organization: str

    def __post_init__(self) -> None:
        for label, part in (
            ("object", self.object_part),
            ("domain", self.domain),
            ("organization", self.organization),
        ):
            if not part:
                raise ValueError(f"empty {label} part in Clearinghouse name")
            if len(part) > MAX_PART:
                raise ValueError(f"{label} part too long ({len(part)} > {MAX_PART})")
            if ":" in part:
                raise ValueError(f"{label} part contains ':': {part!r}")
        object.__setattr__(self, "object_part", self.object_part.lower())
        object.__setattr__(self, "domain", self.domain.lower())
        object.__setattr__(self, "organization", self.organization.lower())

    @classmethod
    def parse(cls, text: str) -> "CHName":
        """Parse ``object:domain:organization``."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"Clearinghouse name needs 3 colon-separated parts: {text!r}"
            )
        return cls(*parts)

    def __str__(self) -> str:
        return f"{self.object_part}:{self.domain}:{self.organization}"
