"""Broadcast-tier wire messages.

``NameQuery``/``NameAnswer`` are declared like every other message
family (:mod:`repro.serial.message`), so their encoded size is there
for the asking — but nothing asks yet: the locator and the beacon tier
still put fixed size estimates on their datagrams (``size_bytes=96``,
``64 + len(name)``), which the ad-hoc scenario digests pin.

The answer's per-name payload travels as a flat ``key=value`` mapping
(strings both sides), the same encoding discipline the meta zone's
UNSPEC records use: arbitrary Python objects never ride a wire message.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Annotated, ClassVar

from repro.serial.idl import StringType, U32Type
from repro.serial.message import CONVERTERS, Wire, WireMessage


def encode_data(data: typing.Mapping[str, str]) -> str:
    """Flat mapping -> the ``key=value;...`` wire field."""
    return ";".join(f"{key}={data[key]}" for key in sorted(data))


def decode_data(text: str) -> typing.Dict[str, str]:
    """The ``key=value;...`` wire field -> flat mapping."""
    if not text:
        return {}
    return dict(
        typing.cast(
            typing.Tuple[str, str], tuple(pair.split("=", 1))
        )
        for pair in text.split(";")
    )


CONVERTERS[typing.Dict[str, str]] = (StringType, encode_data, decode_data)


@dataclasses.dataclass
class NameQuery(WireMessage):
    """Broadcast: who owns this name?"""

    name: Annotated[str, StringType(255)]


@dataclasses.dataclass
class NameAnswer(WireMessage):
    """An owner's reply: where the name lives."""

    name: Annotated[str, StringType(255)]
    owner: Annotated[str, StringType(64)]     # host name
    address: Annotated[str, StringType(64)]   # dotted quad
    data: Annotated[typing.Dict[str, str], Wire(StringType(255), "fields")]
    count: ClassVar[
        Annotated[int, Wire(U32Type(), derive=lambda answer: len(answer.data))]
    ]
