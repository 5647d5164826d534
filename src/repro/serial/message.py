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
``to_idl``, its ``from_idl`` and its ``wire_key``.  How a Python type
becomes its wire value is looked up in one table, :data:`CONVERTERS`; a
field the table cannot place is a ``TypeError`` at import, so the schema
and the conversions cannot drift apart.

``wire_key`` is the wire value ``to_idl`` would build, as a hashable
tuple in field order (an array is a tuple of its items' keys), or
``None`` when some scalar in it does not have its IDL type's exact
Python type (``int`` for a u32, ``bool``, ``str``, ``bytes`` for an
opaque).  That is what lets a marshaller remember
its answer per key: ``1 == True == 1.0`` and all three hash alike, but
only the first is a valid u32, so a key holding ``True`` would let a
memo skip the ``IdlError`` the codec raises for it.  With exact types,
equal keys are the same wire value and marshal to the same bytes.
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
    raise TypeError(f"no converter carries {py_type!r} as {idl!r}")


#: scalar IDL type -> the one Python type its valid wire values have
_SCALARS: typing.Dict[typing.Type[IdlType], type] = {
    U32Type: int,
    BoolType: bool,
    StringType: str,
    OpaqueType: bytes,
}


def _exact(idl: IdlType) -> typing.Optional[type]:
    """The exact Python type of ``idl``'s wire values, if it is a scalar."""
    return next((exact for t, exact in _SCALARS.items() if isinstance(idl, t)), None)


def _keyer(py_type: typing.Any, idl: IdlType) -> typing.Optional[typing.Tuple[_Convert, type]]:
    """How a field converted through :data:`CONVERTERS` joins its
    message's wire key: (the conversion to its key, the exact type that
    key has), or ``None`` when its wire value cannot be keyed."""
    exact = _exact(idl)
    if exact is not None:
        return _converters(py_type, idl)[0], exact
    if isinstance(py_type, type) and issubclass(py_type, WireMessage):
        return py_type.wire_key, tuple
    if isinstance(idl, ArrayType) and typing.get_origin(py_type) in (list, tuple):
        item = _keyer(typing.get_args(py_type)[0], idl.element)
        return None if item is None else (_item_keys(*item), tuple)
    return None


def _item_keys(convert: _Convert, exact: type) -> typing.Callable[[typing.Any], typing.Any]:
    """An array's key: its items' keys as a tuple, or ``None`` if one is
    not exact (a message or array item says so by being ``None``)."""
    if exact is tuple:
        def keys(items: typing.Any) -> typing.Optional[tuple]:
            out = tuple(map(convert, items))
            return None if None in out else out
    else:
        def keys(items: typing.Any) -> typing.Optional[tuple]:
            out = tuple(items) if convert is None else tuple(map(convert, items))
            return out if all(type(item) is exact for item in out) else None
    return keys


def _derive(cls: typing.Type[WireMessage]) -> None:
    """Build ``cls.idl_type``, ``to_idl``, ``from_idl`` and ``wire_key``
    from its fields.

    The three methods are generated as source and compiled once, the way
    ``dataclasses`` builds ``__init__``: a call runs one dict display
    (or one constructor call, or one tuple display) with each field's
    conversion bound by name, not a loop over field specs.
    """
    hints = typing.get_type_hints(cls, include_extras=True)
    fields: typing.List[typing.Tuple[str, IdlType]] = []
    to_items: typing.List[str] = []
    from_items: typing.List[str] = []
    # each field's wire-key expression and the exact type it must have
    keys: typing.List[typing.Tuple[str, typing.Optional[type]]] = []
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
            keys.append((f"_derive_{attr}(self)", _exact(spec.idl)))
            continue
        if (spec.to_wire is None) != (spec.from_wire is None):
            raise TypeError(f"{where}: to_wire and from_wire come as a pair")
        to_wire, from_wire = spec.to_wire, spec.from_wire
        py_type = typing.get_args(hint)[0]
        if to_wire is None:
            try:
                to_wire, from_wire = _converters(py_type, spec.idl)
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
        # A scalar is keyed by its wire value, a message or array by its
        # items' keys; a custom conversion to anything else is not keyed.
        key, exact = sent, _exact(spec.idl)
        if exact is None and spec.to_wire is None:
            keyer = _keyer(py_type, spec.idl)
            if keyer is not None:
                namespace[f"_key_{attr}"], exact = keyer
                key = f"_key_{attr}(self.{attr})"
        keys.append((key, exact))
    namespace["_key_types"] = key_types = tuple(exact for _, exact in keys)
    wire_key = (
        "def wire_key(self):\n return None\n"
        if None in key_types
        else f"def wire_key(self):\n key = ({', '.join(key for key, _ in keys)},)\n"
        " return key if tuple(map(type, key)) == _key_types else None\n"
    )
    exec(
        f"def to_idl(self):\n return {{{', '.join(to_items)}}}\n"
        f"def from_idl(cls, value):\n return cls({', '.join(from_items)})\n"
        + wire_key,
        namespace,
    )
    cls.idl_type = StructType(cls.__name__, fields)
    setattr(cls, "to_idl", namespace["to_idl"])
    setattr(cls, "from_idl", classmethod(namespace["from_idl"]))
    setattr(cls, "wire_key", namespace["wire_key"])


class WireMessage:
    """Base of every message class; subclassing derives the wire form."""

    idl_type: typing.ClassVar[StructType]
    #: The bytes a sender marshalled this message to.  They ride with
    #: the message, so a receiver prices its demarshal against them and
    #: never re-encodes what it received.
    wire: typing.Optional[bytes] = None

    # Generated per subclass by :func:`_derive`: the message as the dict
    # value ``idl_type`` describes, the message a decoded dict stands
    # for, and ``to_idl()``'s value as an exactly typed tuple (``None``
    # when a scalar in it is not of its IDL type's exact Python type).
    to_idl: typing.Callable[[], typing.Dict[str, typing.Any]]
    from_idl: typing.ClassVar[typing.Callable[[typing.Mapping[str, typing.Any]], typing.Any]]
    wire_key: typing.Callable[[], typing.Optional[tuple]]

    def __init_subclass__(cls, **kwargs: typing.Any) -> None:
        super().__init_subclass__(**kwargs)
        _derive(cls)
