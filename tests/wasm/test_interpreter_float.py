"""Float semantics tests for the interpreter (IEEE corner cases)."""

import math
import struct

import pytest

from repro.eosio import Chain, TransactionResult, WasmContract
from repro.wasm import (ExecutionLimits, Instance, ModuleBuilder,
                        TrapIntegerOverflow)


def run(emit, results=("f64",), params=(), args=(), limits=None):
    builder = ModuleBuilder()
    f = builder.function("f", params=params, results=results)
    emit(f)
    builder.export_function("f", f)
    return Instance(builder.build(), limits=limits).invoke("f", args)[0]


def test_nearest_ties_to_even():
    assert run(lambda f: f.emit("f64.const", 2.5).emit("f64.nearest")) \
        == 2.0
    assert run(lambda f: f.emit("f64.const", 3.5).emit("f64.nearest")) \
        == 4.0
    assert run(lambda f: f.emit("f64.const", -0.5).emit("f64.nearest")) \
        == 0.0


def test_min_max_nan_propagation():
    result = run(lambda f: f.emit("f64.const", math.nan)
                 .emit("f64.const", 1.0).emit("f64.min"))
    assert math.isnan(result)
    result = run(lambda f: f.emit("f64.const", 2.0)
                 .emit("f64.const", math.nan).emit("f64.max"))
    assert math.isnan(result)


def test_division_by_zero_gives_infinity():
    assert run(lambda f: f.emit("f64.const", 1.0)
               .emit("f64.const", 0.0).emit("f64.div")) == math.inf
    assert run(lambda f: f.emit("f64.const", -1.0)
               .emit("f64.const", 0.0).emit("f64.div")) == -math.inf
    assert math.isnan(run(lambda f: f.emit("f64.const", 0.0)
                          .emit("f64.const", 0.0).emit("f64.div")))


def test_copysign():
    assert run(lambda f: f.emit("f64.const", 3.0)
               .emit("f64.const", -1.0).emit("f64.copysign")) == -3.0
    assert run(lambda f: f.emit("f64.const", -3.0)
               .emit("f64.const", 1.0).emit("f64.copysign")) == 3.0


def test_sqrt():
    assert run(lambda f: f.emit("f64.const", 9.0).emit("f64.sqrt")) == 3.0


def test_floor_ceil_trunc():
    assert run(lambda f: f.emit("f64.const", -1.5).emit("f64.floor")) \
        == -2.0
    assert run(lambda f: f.emit("f64.const", -1.5).emit("f64.ceil")) \
        == -1.0
    assert run(lambda f: f.emit("f64.const", -1.5).emit("f64.trunc")) \
        == -1.0


def test_f32_demote_rounds():
    value = 1.0000000001
    got = run(lambda f: f.emit("f64.const", value)
              .emit("f32.demote_f64"), results=("f32",))
    expected = struct.unpack("<f", struct.pack("<f", value))[0]
    assert got == expected


def test_promote_preserves():
    got = run(lambda f: f.emit("f32.const", 0.5)
              .emit("f64.promote_f32"))
    assert got == 0.5


def test_trunc_nan_traps():
    with pytest.raises(TrapIntegerOverflow):
        run(lambda f: f.emit("f64.const", math.nan)
            .emit("i32.trunc_f64_s"), results=("i32",))


def test_trunc_boundary_values():
    assert run(lambda f: f.emit("f64.const", 2147483647.0)
               .emit("i32.trunc_f64_s"), results=("i32",)) == 0x7FFFFFFF
    with pytest.raises(TrapIntegerOverflow):
        run(lambda f: f.emit("f64.const", 2147483648.0)
            .emit("i32.trunc_f64_s"), results=("i32",))
    assert run(lambda f: f.emit("f64.const", -2147483648.0)
               .emit("i32.trunc_f64_s"), results=("i32",)) == 0x80000000


def test_unsigned_convert():
    assert run(lambda f: f.i32_const(-1).emit("f64.convert_i32_u")) \
        == 4294967295.0
    assert run(lambda f: f.i32_const(-1).emit("f64.convert_i32_s")) \
        == -1.0


def test_float_compares_push_i32():
    assert run(lambda f: f.emit("f64.const", 1.0)
               .emit("f64.const", 2.0).emit("f64.lt"),
               results=("i32",)) == 1
    # NaN compares false with everything (ne is true).
    assert run(lambda f: f.emit("f64.const", math.nan)
               .emit("f64.const", math.nan).emit("f64.eq"),
               results=("i32",)) == 0
    assert run(lambda f: f.emit("f64.const", math.nan)
               .emit("f64.const", math.nan).emit("f64.ne"),
               results=("i32",)) == 1


def test_float_memory_roundtrip():
    def body(f):
        f.i32_const(0).emit("f64.const", -123.456).emit("f64.store", 3, 0)
        f.i32_const(0).emit("f64.load", 3, 0)
    builder = ModuleBuilder()
    builder.add_memory(1)
    fn = builder.function("f", results=["f64"])
    body(fn)
    builder.export_function("f", fn)
    assert Instance(builder.build()).invoke("f") == [-123.456]


def test_f32_store_narrows():
    builder = ModuleBuilder()
    builder.add_memory(1)
    fn = builder.function("f", results=["f32"])
    fn.i32_const(0).emit("f64.const", 0.1).emit("f32.demote_f64")
    fn.emit("f32.store", 2, 0)
    fn.i32_const(0).emit("f32.load", 2, 0)
    builder.export_function("f", fn)
    got = Instance(builder.build()).invoke("f")[0]
    assert got == struct.unpack("<f", struct.pack("<f", 0.1))[0]


# -- edge cases, under both engines -----------------------------------------------
#
# The translator runs float ops through the interpreter's handlers, so
# the engine differential cannot catch a wrong handler: each case below
# states the Wasm result and runs on both engines.

@pytest.fixture(params=[False, True], ids=["interpreter", "translator"])
def engine(request):
    limits = ExecutionLimits(translate=request.param)
    return lambda emit, results=("f64",): run(emit, results, limits=limits)


def negative_zero(value: float) -> bool:
    return value == 0.0 and math.copysign(1.0, value) < 0


@pytest.mark.parametrize("width", ["f32", "f64"])
@pytest.mark.parametrize("name", ["ceil", "floor", "trunc", "nearest"])
@pytest.mark.parametrize("operand", [math.inf, -math.inf])
def test_rounding_returns_an_infinite_operand(engine, width, name, operand):
    got = engine(lambda f: f.emit(f"{width}.const", operand)
                 .emit(f"{width}.{name}"), results=(width,))
    assert got == operand


@pytest.mark.parametrize("width", ["f32", "f64"])
@pytest.mark.parametrize("name", ["ceil", "floor", "trunc", "nearest"])
def test_rounding_a_nan_gives_nan(engine, width, name):
    got = engine(lambda f: f.emit(f"{width}.const", math.nan)
                 .emit(f"{width}.{name}"), results=(width,))
    assert math.isnan(got)


@pytest.mark.parametrize("width", ["f32", "f64"])
@pytest.mark.parametrize("name, operand", [
    ("ceil", -0.5), ("trunc", -0.5), ("nearest", -0.4), ("nearest", -0.5),
    ("floor", -0.0), ("ceil", -0.0), ("trunc", -0.0), ("nearest", -0.0)])
def test_rounding_keeps_the_sign_of_zero(engine, width, name, operand):
    got = engine(lambda f: f.emit(f"{width}.const", operand)
                 .emit(f"{width}.{name}"), results=(width,))
    assert negative_zero(got)


def test_rounding_keeps_ordinary_results(engine):
    assert engine(lambda f: f.emit("f64.const", 0.5)
                  .emit("f64.ceil")) == 1.0
    assert engine(lambda f: f.emit("f64.const", -2.5)
                  .emit("f64.nearest")) == -2.0
    got = engine(lambda f: f.emit("f64.const", 0.4).emit("f64.nearest"))
    assert got == 0.0 and not negative_zero(got)


@pytest.mark.parametrize("lhs, rhs, expected", [
    (3e38, 10.0, math.inf), (-3e38, 10.0, -math.inf)])
def test_f32_overflow_rounds_to_infinity(engine, lhs, rhs, expected):
    got = engine(lambda f: f.emit("f32.const", lhs).emit("f32.const", rhs)
                 .emit("f32.mul"), results=("f32",))
    assert got == expected


@pytest.mark.parametrize("operand", [1e300, -1e300])
def test_demote_past_the_f32_range_gives_infinity(engine, operand):
    got = engine(lambda f: f.emit("f64.const", operand)
                 .emit("f32.demote_f64"), results=("f32",))
    assert got == math.copysign(math.inf, operand)


@pytest.mark.parametrize("width", ["f32", "f64"])
def test_min_and_max_order_signed_zeros(engine, width):
    def pair(lhs, rhs, name):
        return engine(lambda f: f.emit(f"{width}.const", lhs)
                      .emit(f"{width}.const", rhs)
                      .emit(f"{width}.{name}"), results=(width,))
    assert negative_zero(pair(0.0, -0.0, "min"))
    assert negative_zero(pair(-0.0, 0.0, "min"))
    assert not negative_zero(pair(-0.0, 0.0, "max"))
    assert not negative_zero(pair(0.0, -0.0, "max"))


def test_sqrt_of_a_negative_is_nan(engine):
    assert math.isnan(engine(lambda f: f.emit("f64.const", -1.0)
                             .emit("f64.sqrt")))
    assert negative_zero(engine(lambda f: f.emit("f64.const", -0.0)
                                .emit("f64.sqrt")))


@pytest.mark.parametrize("translate", [False, True],
                         ids=["interpreter", "translator"])
def test_f32_overflow_in_a_contract_is_no_chain_error(translate):
    """An overflowing f32 op is ordinary Wasm: the transaction runs."""
    builder = ModuleBuilder()
    apply_f = builder.function("apply", params=["i64", "i64", "i64"])
    apply_f.emit("f32.const", 3e38).emit("f32.const", 10.0)
    apply_f.emit("f32.mul").emit("drop")
    builder.export_function("apply", apply_f)
    chain = Chain(limits=ExecutionLimits(translate=translate))
    chain.set_contract("floaty", WasmContract(builder.build()))
    result = chain.push_action("floaty", "go", ["floaty"], b"")
    assert isinstance(result, TransactionResult)
    assert result.success, result.error
