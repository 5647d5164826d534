"""Generated vs hand-coded marshallers: identical bytes, different costs.

The calibration targets come straight from Table 3.2 of the paper:
hand-coded 0.65/2.6 ms and generated-demarshal 10.28/24.95 ms for BIND
responses with 1/6 resource records.
"""

import pytest
from hypothesis import given, settings, strategies as st

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
    XdrRepresentation,
)
from repro.serial.generated import OpCosts

RR = StructType(
    "ResourceRecord",
    [
        ("name", StringType(255)),
        ("rtype", U32Type()),
        ("rclass", U32Type()),
        ("ttl", U32Type()),
        ("data", OpaqueType(256)),
    ],
)
RESPONSE = StructType(
    "LookupResponse",
    [("status", U32Type()), ("records", ArrayType(RR, 64))],
)


def response(n, name="fiji.cs.washington.edu", data=bytes([128, 95, 1, 4])):
    return {
        "status": 0,
        "records": [
            {"name": name, "rtype": 1, "rclass": 1, "ttl": 3600, "data": data}
            for _ in range(n)
        ],
    }


@pytest.fixture
def generated():
    return StubCompiler().marshaller(RESPONSE)


@pytest.fixture
def handcoded():
    return HandcodedMarshaller(RESPONSE)


def test_same_wire_bytes(generated, handcoded):
    value = response(3)
    gen_bytes, _ = generated.encode(value)
    hc_bytes, _ = handcoded.encode(value)
    assert gen_bytes == hc_bytes


def test_roundtrip_through_either(generated, handcoded):
    value = response(2)
    data, _ = generated.encode(value)
    assert generated.decode(data)[0] == value
    assert handcoded.decode(data)[0] == value


def test_generated_decode_costs_match_table_3_2(generated):
    for n, target in ((1, 10.28), (6, 24.95)):
        data, _ = generated.encode(response(n))
        _, cost = generated.decode(data)
        assert cost == pytest.approx(target, rel=0.001)


def test_handcoded_costs_match_table_3_2(handcoded):
    for n, target in ((1, 0.65), (6, 2.60)):
        data, _ = handcoded.encode(response(n))
        _, cost = handcoded.decode(data)
        assert cost == pytest.approx(target, rel=0.001)


def test_generated_is_much_slower_than_handcoded(generated, handcoded):
    """The paper's headline: ~16x for one record, ~10x for six."""
    for n, low, high in ((1, 12, 20), (6, 8, 12)):
        data, _ = generated.encode(response(n))
        _, gen_cost = generated.decode(data)
        _, hc_cost = handcoded.decode(data)
        assert low < gen_cost / hc_cost < high


def test_cost_grows_with_record_count(generated):
    costs = []
    for n in (1, 2, 4, 8):
        data, _ = generated.encode(response(n))
        costs.append(generated.decode(data)[1])
    assert costs == sorted(costs)
    # Linear growth: equal increments per added record.
    assert (costs[1] - costs[0]) == pytest.approx((costs[3] - costs[2]) / 4, rel=0.01)


def test_op_counts_scale_linearly(generated):
    c1 = generated.measure_decode(generated.encode(response(1))[0])
    c6 = generated.measure_decode(generated.encode(response(6))[0])
    assert c6.proc_calls - c1.proc_calls == 5 * 6
    assert c6.indirect_calls - c1.indirect_calls == 5 * 6
    assert c6.allocations - c1.allocations == 5 * 3


def test_custom_op_costs_ablation(generated):
    """Making generated ops free collapses the gap (the paper's fix-path)."""
    cheap = OpCosts(
        entry_overhead_ms=0.2,
        per_proc_call_ms=0.001,
        per_indirect_call_ms=0.001,
        per_allocation_ms=0.002,
    )
    m = StubCompiler().marshaller(RESPONSE, op_costs=cheap)
    data, _ = m.encode(response(6))
    _, cost = m.decode(data)
    assert cost < 1.0


def test_compiler_caches_plans():
    comp = StubCompiler()
    assert comp.compile(RESPONSE) is comp.compile(RESPONSE)


def test_courier_backend_roundtrip():
    comp = StubCompiler(CourierRepresentation())
    m = comp.marshaller(RESPONSE)
    value = response(2)
    data, _ = m.encode(value)
    assert m.decode(data)[0] == value
    # Different representation, different bytes.
    xdr_bytes, _ = StubCompiler().marshaller(RESPONSE).encode(value)
    assert data != xdr_bytes


def test_handcoded_validation():
    with pytest.raises(ValueError):
        HandcodedMarshaller(RESPONSE, base_ms=-1)


@given(
    st.integers(min_value=0, max_value=10),
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=40,
    ),
    st.binary(min_size=0, max_size=64),
)
@settings(max_examples=40, deadline=None)
def test_marshaller_roundtrip_property(n, name, blob):
    value = response(n, name=name, data=blob)
    gen = StubCompiler().marshaller(RESPONSE)
    hc = HandcodedMarshaller(RESPONSE)
    gen_bytes, _ = gen.encode(value)
    hc_bytes, _ = hc.encode(value)
    assert gen_bytes == hc_bytes
    assert gen.decode(gen_bytes)[0] == value
    assert hc.decode(hc_bytes)[0] == value


# ----------------------------------------------------------------------
# Random IDL types: every path agrees, and the compile-time sums match
# a walk that counts one node at a time.
# ----------------------------------------------------------------------
_text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=12)


def _typed(children):
    """Strategies for (IDL type, strategy for its values) pairs."""
    array = children.flatmap(
        lambda tv: st.integers(0, 4).map(
            lambda n: (ArrayType(tv[0], n), st.lists(tv[1], max_size=n))
        )
    )
    optional = children.map(lambda tv: (OptionalType(tv[0]), st.none() | tv[1]))
    struct = st.lists(children, min_size=1, max_size=4).map(
        lambda tvs: (
            StructType("S", [(f"f{i}", t) for i, (t, _) in enumerate(tvs)]),
            st.fixed_dictionaries({f"f{i}": v for i, (_, v) in enumerate(tvs)}),
        )
    )
    return array | optional | struct


typed_values = st.recursive(
    st.sampled_from([
        (U32Type(), st.integers(0, 2**32 - 1)),
        (BoolType(), st.booleans()),
        (StringType(12), _text),
        (OpaqueType(12), st.binary(max_size=12)),
    ]),
    _typed,
    max_leaves=8,
).flatmap(lambda tv: st.tuples(st.just(tv[0]), tv[1]))


def reference_ops(t, value):
    """The counting rules of ``repro.serial.compiler``, one node at a time."""
    ops = [1, 0, 0]
    children = []
    if isinstance(t, (StringType, OpaqueType)):
        ops[2] += 1
    elif isinstance(t, ArrayType):
        ops[2] += 1
        children = [(t.element, item) for item in value]
    elif isinstance(t, StructType):
        ops[2] += 1
        children = [(ft, value[name]) for name, ft in t.fields]
    elif isinstance(t, OptionalType) and value is not None:
        children = [(t.inner, value)]
    for child_type, child_value in children:
        ops[1] += 1
        ops = [a + b for a, b in zip(ops, reference_ops(child_type, child_value))]
    return ops


@given(typed_values)
@settings(max_examples=150, deadline=None)
def test_random_types_roundtrip_and_count_like_the_reference(typed):
    idl_type, value = typed
    idl_type.validate(value)
    for rep in (XdrRepresentation(), CourierRepresentation()):
        gen = StubCompiler(rep).marshaller(idl_type)
        hc = HandcodedMarshaller(idl_type, representation=rep)
        data, encode_ms = gen.encode(value)
        assert hc.encode(value)[0] == data == rep.encode(idl_type, value)
        assert len(data) % rep.alignment == 0
        assert gen.decode(data) == (value, encode_ms)
        assert hc.decode(data)[0] == value
        counts = gen.measure_decode(data)
        assert [
            counts.proc_calls, counts.indirect_calls, counts.allocations
        ] == reference_ops(idl_type, value)
        assert counts.bytes_processed == len(data)
