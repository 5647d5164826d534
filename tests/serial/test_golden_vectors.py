"""Golden wire vectors for every message IDL under both representations.

``golden_vectors.json`` was written by the three interpreters this
repo used to have (``XdrRepresentation._encode``, ``CourierRepresentation
._encode`` and the stub compiler's ``_PlanNode``) just before they were
replaced by the compiled codec, so it pins the bytes, the generated
path's operation counts and both styles' simulated costs across that
change.  ``PYTHONPATH=src python -m tests.serial.test_golden_vectors``
adds vectors for message classes that have none and leaves the rest.
"""

import importlib
import json
import pathlib
import random

import pytest

from repro.serial import (
    ArrayType,
    BoolType,
    CourierRepresentation,
    HandcodedMarshaller,
    OpaqueType,
    OptionalType,
    StringType,
    StructType,
    StubCompiler,
    U32Type,
    WireMessage,
    XdrRepresentation,
)
from repro.serial.generated import MarshalCost

GOLDEN = pathlib.Path(__file__).with_name("golden_vectors.json")
#: where the wire-message classes are declared (importing registers them)
MODULES = (
    "repro.bind.messages",
    "repro.discovery.messages",
    "repro.broadcast.messages",
)
REPRESENTATIONS = {"xdr": XdrRepresentation(), "courier": CourierRepresentation()}
_ALPHABET = "abcxyz019.-_=; é→"


def message_classes():
    """Every wire-message class the library declares."""
    for module_name in MODULES:
        importlib.import_module(module_name)
    return [
        cls for cls in WireMessage.__subclasses__()
        if cls.__module__.startswith("repro.")
    ]


def message_idls():
    """``module:Class`` -> IDL type of every wire-message class, plus the
    Clearinghouse's ``*_IDL`` structs (it has no message classes)."""
    found = {
        f"{cls.__module__}:{cls.__name__}": cls.idl_type
        for cls in message_classes()
    }
    clearinghouse = importlib.import_module("repro.clearinghouse.server")
    for attr in sorted(vars(clearinghouse)):
        if attr.endswith("_IDL"):
            found[f"{clearinghouse.__name__}:{attr}"] = getattr(clearinghouse, attr)
    return found


def sample(idl_type, rng, size):
    """A random value of ``idl_type``; ``size`` bounds lengths (0 = minimal)."""
    if isinstance(idl_type, U32Type):
        return rng.choice([0, 1, 3600, 2**32 - 1, rng.randrange(2**32)])
    if isinstance(idl_type, BoolType):
        return rng.random() < 0.5
    if isinstance(idl_type, StringType):
        n = rng.randint(0, min(size * 8, idl_type.max_length))
        return "".join(rng.choice(_ALPHABET) for _ in range(n))
    if isinstance(idl_type, OpaqueType):
        return rng.randbytes(rng.randint(0, min(size * 5, idl_type.max_length)))
    if isinstance(idl_type, ArrayType):
        n = rng.randint(0, min(size, idl_type.max_length))
        return [sample(idl_type.element, rng, size) for _ in range(n)]
    if isinstance(idl_type, StructType):
        return {name: sample(t, rng, size) for name, t in idl_type.fields}
    assert isinstance(idl_type, OptionalType)
    return None if rng.random() < 0.4 else sample(idl_type.inner, rng, size)


def to_json(idl_type, value):
    """IDL value -> JSON-safe value (opaque bytes as hex)."""
    if isinstance(idl_type, OpaqueType):
        return value.hex()
    if isinstance(idl_type, ArrayType):
        return [to_json(idl_type.element, v) for v in value]
    if isinstance(idl_type, StructType):
        return {name: to_json(t, value[name]) for name, t in idl_type.fields}
    if isinstance(idl_type, OptionalType):
        return None if value is None else to_json(idl_type.inner, value)
    return value


def from_json(idl_type, stored):
    if isinstance(idl_type, OpaqueType):
        return bytes.fromhex(stored)
    if isinstance(idl_type, ArrayType):
        return [from_json(idl_type.element, v) for v in stored]
    if isinstance(idl_type, StructType):
        return {name: from_json(t, stored[name]) for name, t in idl_type.fields}
    if isinstance(idl_type, OptionalType):
        return None if stored is None else from_json(idl_type.inner, stored)
    return stored


def observe(idl_type, rep, value):
    """What the golden file records for one (type, representation, value)."""
    generated = StubCompiler(rep).marshaller(idl_type)
    handcoded = HandcodedMarshaller(idl_type, representation=rep)
    wire, generated_ms = generated.encode(value)
    counts = generated.measure_decode(wire)
    return {
        "wire": wire.hex(),
        "ops": [counts.proc_calls, counts.indirect_calls, counts.allocations],
        "generated_ms": generated_ms,
        "handcoded_ms": handcoded.encode(value)[1],
    }


def regenerate():
    vectors = _vectors()
    pinned = {vector["idl"] for vector in vectors}
    for key, idl_type in message_idls().items():
        if key in pinned:
            continue
        rng = random.Random(key)
        for size in (0, 1, 3):
            value = sample(idl_type, rng, size)
            entry = {"idl": key, "value": to_json(idl_type, value)}
            for rep_name, rep in REPRESENTATIONS.items():
                entry[rep_name] = observe(idl_type, rep, value)
            vectors.append(entry)
    GOLDEN.write_text(json.dumps(vectors, indent=1, ensure_ascii=True) + "\n")


def _vectors():
    return json.loads(GOLDEN.read_text())


def test_every_message_idl_has_vectors():
    assert {v["idl"] for v in _vectors()} == set(message_idls())


@pytest.mark.parametrize("rep_name", sorted(REPRESENTATIONS))
def test_golden_bytes_counts_and_costs(rep_name):
    rep = REPRESENTATIONS[rep_name]
    idls = message_idls()
    for vector in _vectors():
        idl_type = idls[vector["idl"]]
        value = from_json(idl_type, vector["value"])
        golden = vector[rep_name]
        assert observe(idl_type, rep, value) == golden, vector["idl"]
        wire = bytes.fromhex(golden["wire"])
        # every public path agrees on the bytes, and decode inverts them
        assert rep.encode(idl_type, value) == wire
        assert rep.decode(idl_type, wire) == value
        generated = StubCompiler(rep).marshaller(idl_type)
        decoded, decode_ms = generated.decode(wire)
        assert decoded == value
        # encode and decode walk the same routines, so they cost the same
        assert decode_ms == golden["generated_ms"]
        proc, indirect, alloc = golden["ops"]
        assert decode_ms == MarshalCost(proc, indirect, alloc, len(wire)).time_ms()
        assert HandcodedMarshaller(idl_type, representation=rep).decode(wire) == (
            value, golden["handcoded_ms"]
        )


if __name__ == "__main__":
    regenerate()
