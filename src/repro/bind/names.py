"""Domain names: case-insensitive, dot-separated, hierarchical."""

from __future__ import annotations

import typing

from repro.memo import memoised
from repro.serial import CONVERTERS, StringType

MAX_LABEL = 63
MAX_NAME = 255


def _checked(labels: typing.Tuple[str, ...], text: object) -> typing.Tuple[str, ...]:
    """``labels`` lower-cased, or ValueError naming ``text``."""
    for label in labels:
        if not label:
            raise ValueError(f"empty label in domain name {text!r}")
        if len(label) > MAX_LABEL:
            raise ValueError(f"label too long ({len(label)} > {MAX_LABEL}): {label!r}")
        if any(c in ". \t\n" for c in label):
            raise ValueError(f"invalid character in label {label!r}")
    if sum(len(l) + 1 for l in labels) > MAX_NAME:
        raise ValueError(f"domain name too long: {text!r}")
    return tuple(label.lower() for label in labels)


@memoised
def _parse(text: str) -> typing.Tuple[str, ...]:
    """Text -> validated labels.  A resolver sees the same few hundred
    strings all day; an invalid one raises every time (errors are not
    cached)."""
    stripped = text.strip().rstrip(".")
    return _checked(tuple(stripped.split(".")) if stripped else (), text)


class DomainName:
    """An absolute domain name such as ``fiji.cs.washington.edu``.

    Comparison and hashing are case-insensitive, as in DNS.  The root is
    the empty name, written ``.``.
    """

    __slots__ = ("labels",)

    def __init__(self, text: typing.Union[str, "DomainName", typing.Sequence[str]]):
        self.labels: typing.Tuple[str, ...]
        if isinstance(text, DomainName):
            self.labels = text.labels
        elif isinstance(text, str):
            self.labels = _parse(text)
        else:
            self.labels = _checked(tuple(text), text)

    @property
    def is_root(self) -> bool:
        return not self.labels

    @property
    def parent(self) -> "DomainName":
        if self.is_root:
            raise ValueError("the root has no parent")
        return DomainName(self.labels[1:])

    def is_subdomain_of(self, other: "DomainName") -> bool:
        """True if ``self`` equals or falls under ``other``."""
        if len(other.labels) > len(self.labels):
            return False
        return self.labels[len(self.labels) - len(other.labels):] == other.labels

    def child(self, label: str) -> "DomainName":
        return DomainName((label.lower(),) + self.labels)

    def __str__(self) -> str:
        return ".".join(self.labels) if self.labels else "."

    def __repr__(self) -> str:
        return f"DomainName({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            try:
                other = DomainName(other)
            except ValueError:
                return NotImplemented
        if not isinstance(other, DomainName):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __lt__(self, other: "DomainName") -> bool:
        return self.labels[::-1] < other.labels[::-1]


# On the wire a domain name is its text.
CONVERTERS[DomainName] = (StringType, str, DomainName)
