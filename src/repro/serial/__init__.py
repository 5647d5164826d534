"""Data representation substrate: IDL, wire formats, marshallers.

The paper's Table 3.2 hinges on a distinction this package makes
concrete:

- **Hand-coded marshallers** (:mod:`repro.serial.handcoded`) model one
  pass over a buffer with no temporary allocation — the "standard BIND
  library routines" that cost 0.65/2.6 ms for 1/6 resource records.
- **Generated marshallers** (:mod:`repro.serial.generated`) model the
  code a stub compiler produces from an IDL description: *correct*, but
  paying for "procedure calls, indirect calls to marshalling routines,
  unnecessary dynamic memory allocation, and unnecessary levels of
  marshalling" — the cost accounting counts exactly those operations.

Both run the one codec :mod:`repro.serial.compiler` compiles per (IDL
type, representation) — Sun XDR or Xerox Courier, which are parameters
of the compiler, not implementations — so they produce identical wire
bytes; only the simulated CPU cost differs, which is the whole point of
the paper's cache-format experiment.  Both compute the bytes and cost
of a given wire value once and recall them after
(:class:`~repro.serial.generated.Marshaller`); the simulation is
charged every time.

:mod:`repro.serial.message` is the Python side of the same idea: a
message class declares each field once and its IDL type and both
conversions are derived from that.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "idl": (
        "ArrayType", "BoolType", "IdlError", "IdlType", "OpaqueType", "OptionalType", "StringType",
        "StructType", "U32Type",
    ),
    "compiler": ("CourierRepresentation", "StubCompiler", "WireError", "XdrRepresentation"),
    "handcoded": ("HandcodedMarshaller",),
    "generated": ("Encoded", "GeneratedMarshaller", "MarshalCost"),
    "message": ("CONVERTERS", "Wire", "WireMessage"),
})
