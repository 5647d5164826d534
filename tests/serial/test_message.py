"""One declaration per wire message: what the derivation guarantees.

Every message class must survive ``from_idl(decode(encode(to_idl())))``
under both representations, and a class whose fields cannot be carried
must fail when it is created, not when it is first sent.
"""

import dataclasses
import datetime
import random
import typing
from typing import Annotated, ClassVar

import pytest

from repro.bind.names import DomainName
from repro.bind.rr import ResourceRecord, RRType
from repro.broadcast.messages import NameAnswer
from repro.serial import ArrayType, StringType, StructType, U32Type, Wire, WireMessage
from tests.serial.test_golden_vectors import REPRESENTATIONS, message_classes, sample

_LABELS = ("fiji", "cs", "washington", "edu", "x1", "meta-bind")


def python_value(py_type, spec, rng, size):
    """A random value of a field's Python type that fits its wire type."""
    if isinstance(spec, Wire) and spec.from_wire is not None:
        return spec.from_wire(sample(spec.idl, rng, size))
    idl = spec.idl if isinstance(spec, Wire) else spec
    if py_type in (int, str, bool, bytes):
        return sample(idl, rng, size)
    if py_type is float:
        return float(sample(idl, rng, size))
    if py_type is DomainName:
        return DomainName(".".join(rng.choices(_LABELS, k=rng.randint(1, 1 + size))))
    if py_type is RRType:
        return rng.choice(list(RRType))
    if py_type == typing.Dict[str, str]:
        return {f"k{i}": rng.choice(("", "v", "a=b", "1.2.3.4")) for i in range(size)}
    if isinstance(py_type, type) and issubclass(py_type, WireMessage):
        return instance(py_type, rng, size)
    length = rng.randint(0, min(size, idl.max_length))
    element = typing.get_args(py_type)[0]
    return typing.get_origin(py_type)(
        python_value(element, idl.element, rng, size) for _ in range(length)
    )


def instance(cls, rng, size):
    """A random message of class ``cls``, built from its declaration."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return cls(**{
        field.name: python_value(*typing.get_args(hints[field.name])[:2], rng, size)
        for field in dataclasses.fields(cls)
    })


@pytest.mark.parametrize("cls", message_classes(), ids=lambda cls: cls.__name__)
def test_every_message_round_trips_through_the_wire(cls):
    rng = random.Random(cls.__name__)
    for size in (0, 1, 3, 3):
        message = instance(cls, rng, size)
        value = message.to_idl()
        cls.idl_type.validate(value)
        for rep in REPRESENTATIONS.values():
            wire = rep.encode(cls.idl_type, value)
            assert cls.from_idl(rep.decode(cls.idl_type, wire)) == message


def test_the_library_declares_twenty_four_messages():
    # 17 BIND + 3 discovery + 2 broadcast, plus the two record types
    # (ResourceRecord, ZoneDelta) that ride inside them.
    assert len(message_classes()) == 24


def test_wire_only_fields_are_derived_when_sending_and_dropped_on_receipt():
    record = ResourceRecord.a_record("fiji.cs.washington.edu", "128.95.1.4")
    assert record.to_idl()["rclass"] == 1
    answer = NameAnswer("n", "fiji", "128.95.1.4", {"port": "1", "kind": "x"})
    value = answer.to_idl()
    assert (value["fields"], value["count"]) == ("kind=x;port=1", 2)
    assert NameAnswer.from_idl(dict(value, count=99)) == answer


def test_a_declaration_needs_no_second_statement():
    @dataclasses.dataclass(frozen=True)
    class Lease(WireMessage):
        holder: Annotated[DomainName, StringType(255)]
        remaining_ms: Annotated[float, Wire(U32Type(), "remaining")] = 0.0
        kind: ClassVar[str] = "lease"  # a plain class constant, not a field

    assert isinstance(Lease.idl_type, StructType)
    assert [name for name, _ in Lease.idl_type.fields] == ["holder", "remaining"]
    lease = Lease(DomainName("a.b"), 250.0)
    assert lease.to_idl() == {"holder": "a.b", "remaining": 250}
    assert Lease.from_idl(lease.to_idl()) == lease


def _datetime_field():
    class Bad(WireMessage):
        when: Annotated[datetime.datetime, U32Type()]


def _no_wire_type():
    class Bad(WireMessage):
        name: Annotated[str, StringType(8)]
        when: int


def _one_wire_name_twice():
    class Bad(WireMessage):
        name: Annotated[str, StringType(8)]
        when: Annotated[str, Wire(StringType(8), "name")]


def _python_type_and_wire_type_disagree():
    class Bad(WireMessage):
        when: Annotated[int, StringType(8)]


def _nested_message_under_another_struct():
    class Bad(WireMessage):
        when: Annotated[
            typing.List[ResourceRecord],
            ArrayType(StructType("Other", [("name", StringType(8))]), 4),
        ]


def _half_a_converter_pair():
    class Bad(WireMessage):
        when: Annotated[int, Wire(U32Type(), to_wire=abs)]


def _derived_field_that_is_not_a_classvar():
    class Bad(WireMessage):
        when: Annotated[int, Wire(U32Type(), derive=lambda message: 1)]


@pytest.mark.parametrize(
    "declare",
    [
        _datetime_field,
        _no_wire_type,
        _one_wire_name_twice,
        _python_type_and_wire_type_disagree,
        _nested_message_under_another_struct,
        _half_a_converter_pair,
        _derived_field_that_is_not_a_classvar,
    ],
    ids=lambda declare: declare.__name__.strip("_"),
)
def test_an_uncarriable_field_fails_when_the_class_is_created(declare):
    with pytest.raises(TypeError, match=r"Bad\.when"):
        declare()
