"""One declaration per wire message.

The stub compiler exists so that nobody writes a procedure's
marshalling twice; this module extends that to the Python side of a
message.  A message class states each field once, as an annotation
carrying the Python type and the IDL type it travels as::

    @dataclasses.dataclass
    class QueryRequest(WireMessage):
        name: Annotated[DomainName, StringType(255)]
        rtype: Annotated[RRType, U32Type()]

and subclassing :class:`WireMessage` derives, when the class is
created, its ``idl_type`` (a :class:`StructType` in field order), its
``to_idl`` and its ``from_idl``.  How a Python type becomes its wire
value is looked up in one table, :data:`CONVERTERS`; a field the table
cannot place is a ``TypeError`` at import, so the schema and the two
conversions cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.serial.idl import (
    ArrayType,
    BoolType,
    IdlType,
    OpaqueType,
    StringType,
    StructType,
    U32Type,
)

_Convert = typing.Optional[typing.Callable[[typing.Any], typing.Any]]
_M = typing.TypeVar("_M", bound="WireMessage")


@dataclasses.dataclass(frozen=True)
class Wire:
    """How one field travels, where its annotation alone does not say.

    ``name`` is the wire field's name when it differs from the
    attribute's; ``to_wire``/``from_wire`` convert the value in place
    of the :data:`CONVERTERS` entry.  ``derive`` marks a field that
    exists only on the wire — annotate it ``ClassVar[Annotated[...]]``;
    it is computed from the message when sending and dropped when
    receiving.
    """

    idl: IdlType
    name: typing.Optional[str] = None
    to_wire: _Convert = None
    from_wire: _Convert = None
    derive: _Convert = None


#: Python type -> (the IDL class it travels as, to wire, from wire);
#: a ``None`` conversion passes the value through.  Modules that own a
#: type which rides in messages add its entry next to the type.
CONVERTERS: typing.Dict[
    typing.Any, typing.Tuple[typing.Type[IdlType], _Convert, _Convert]
] = {
    int: (U32Type, None, None),
    bool: (BoolType, None, None),
    str: (StringType, None, None),
    bytes: (OpaqueType, None, None),
    # simulated milliseconds (TTLs, leases) travel as whole numbers
    float: (U32Type, int, float),
}


def _each(convert: _Convert, build: typing.Callable) -> _Convert:
    """``convert`` over a sequence, collected by ``build``."""
    if convert is None:
        return build
    if build is list:
        return lambda items: [convert(item) for item in items]
    return lambda items: build([convert(item) for item in items])


def _converters(py_type: typing.Any, idl: IdlType) -> typing.Tuple[_Convert, _Convert]:
    """The (to wire, from wire) pair for ``py_type`` travelling as ``idl``."""
    entry = CONVERTERS.get(py_type)
    if entry is not None and isinstance(idl, entry[0]):
        return entry[1], entry[2]
    if isinstance(py_type, type) and issubclass(py_type, WireMessage):
        if idl is py_type.idl_type:
            return py_type.to_idl, py_type.from_idl
    origin, args = typing.get_origin(py_type), typing.get_args(py_type)
    sequence = origin is list or (origin is tuple and args[1:] == (Ellipsis,))
    if sequence and isinstance(idl, ArrayType):
        to_wire, from_wire = _converters(args[0], idl.element)
        return _each(to_wire, list), _each(from_wire, origin)
    raise TypeError(f"no converter carries {py_type!r} as {idl.describe()}")


def _derive(cls: typing.Type[WireMessage]) -> None:
    """Build ``cls.idl_type``, ``to_idl`` and ``from_idl`` from its fields.

    The two methods are generated as source and compiled once, the way
    ``dataclasses`` builds ``__init__``: a call runs one dict display
    (or one constructor call) with each field's conversion bound by
    name, not a loop over field specs.
    """
    hints = typing.get_type_hints(cls, include_extras=True)
    fields: typing.List[typing.Tuple[str, IdlType]] = []
    to_items: typing.List[str] = []
    from_items: typing.List[str] = []
    namespace: typing.Dict[str, typing.Any] = {}
    for attr in vars(cls).get("__annotations__", {}):
        where = f"{cls.__name__}.{attr}"
        hint = hints[attr]
        wire_only = typing.get_origin(hint) is typing.ClassVar
        if wire_only:
            hint = (typing.get_args(hint) or (None,))[0]
        spec = next(
            (m for m in getattr(hint, "__metadata__", ()) if isinstance(m, (Wire, IdlType))),
            None,
        )
        if spec is None:
            if wire_only:
                continue  # an ordinary class constant
            raise TypeError(
                f"{where} has no wire type: annotate it "
                "Annotated[<python type>, <IdlType or Wire(...)>]"
            )
        if isinstance(spec, IdlType):
            spec = Wire(spec)
        name = spec.name or attr
        if any(name == taken for taken, _ in fields):
            raise TypeError(f"{where}: wire name {name!r} is already taken")
        if wire_only != (spec.derive is not None):
            raise TypeError(f"{where}: Wire(derive=...) goes with ClassVar, and only there")
        fields.append((name, spec.idl))
        if wire_only:
            namespace[f"_derive_{attr}"] = spec.derive
            to_items.append(f"{name!r}: _derive_{attr}(self)")
            continue
        if (spec.to_wire is None) != (spec.from_wire is None):
            raise TypeError(f"{where}: to_wire and from_wire come as a pair")
        to_wire, from_wire = spec.to_wire, spec.from_wire
        if to_wire is None:
            try:
                to_wire, from_wire = _converters(typing.get_args(hint)[0], spec.idl)
            except TypeError as err:
                raise TypeError(f"{where}: {err}") from None
        sent, received = f"self.{attr}", f"value[{name!r}]"
        if to_wire is not None:
            namespace[f"_to_{attr}"] = to_wire
            sent = f"_to_{attr}({sent})"
        if from_wire is not None:
            namespace[f"_from_{attr}"] = from_wire
            received = f"_from_{attr}({received})"
        to_items.append(f"{name!r}: {sent}")
        from_items.append(f"{attr}={received}")
    exec(
        f"def to_idl(self):\n return {{{', '.join(to_items)}}}\n"
        f"def from_idl(cls, value):\n return cls({', '.join(from_items)})\n",
        namespace,
    )
    cls.idl_type = StructType(cls.__name__, fields)
    setattr(cls, "to_idl", namespace["to_idl"])
    setattr(cls, "from_idl", classmethod(namespace["from_idl"]))


class WireMessage:
    """Base of every message class; subclassing derives the wire form."""

    idl_type: typing.ClassVar[StructType]
    #: The bytes a sender marshalled this message to.  They ride with
    #: the message, so a receiver prices its demarshal against them and
    #: never re-encodes what it received.
    wire: typing.Optional[bytes] = None

    def __init_subclass__(cls, **kwargs: typing.Any) -> None:
        super().__init_subclass__(**kwargs)
        _derive(cls)

    def to_idl(self) -> typing.Dict[str, typing.Any]:
        """This message as the dict value ``idl_type`` describes."""
        raise NotImplementedError  # generated per subclass

    @classmethod
    def from_idl(cls: typing.Type[_M], value: typing.Mapping[str, typing.Any]) -> _M:
        """The message a decoded dict value stands for."""
        raise NotImplementedError  # generated per subclass
