"""Tests for the calling-convention input inference (C3, Table 2)."""

import struct
from types import SimpleNamespace

import pytest

from repro.eosio import Abi, AbiAction, Asset, Name, TRANSFER_SIGNATURE
from repro.smt import BitVecVal, Model, evaluate
from repro.symbolic import SeedLayout, SymbolicMemory, scalar_width

TRANSFER_ABI = Abi.from_signatures({"transfer": TRANSFER_SIGNATURE})


def transfer_layout(memo="hello"):
    action = TRANSFER_ABI.action("transfer")
    values = [Name("player"), Name("victim"),
              Asset.from_string("5.0000 EOS"), memo]
    return SeedLayout(action, values), values


def test_scalar_widths():
    assert scalar_width("name") == 64
    assert scalar_width("uint32") == 32
    assert scalar_width("bool") == 32
    assert scalar_width("asset") is None
    assert scalar_width("string") is None


def test_variables_created_per_param():
    layout, _ = transfer_layout()
    roles = [sorted(p.vars) for p in layout.params]
    assert roles[0] == ["value"]                 # from: name
    assert roles[1] == ["value"]                 # to: name
    assert roles[2] == ["amount", "symbol"]      # quantity: asset
    assert roles[3] == [f"byte{i}" for i in range(5)]  # memo content


def test_init_frame_table2_layout():
    layout, _ = transfer_layout()
    memory = SymbolicMemory()
    # concrete args: (self, from, to, quantity_ptr, memo_ptr)
    frame = layout.init_frame(7, [111, 222, 333, 1040, 1056], memory)
    # Local slot i+1 <-> rho_i; scalars are the symbolic vars directly.
    assert frame.locals[1] is layout.params[0].vars["value"]
    assert frame.locals[2] is layout.params[1].vars["value"]
    # Pointer params keep the concrete address in the local...
    assert frame.locals[3].const_value() == 1040
    assert frame.locals[4].const_value() == 1056
    # ...and the memory holds the symbolic content at that address.
    assert memory.load(1040, 8) is layout.params[2].vars["amount"]
    assert memory.load(1048, 8) is layout.params[2].vars["symbol"]
    # String: length byte then symbolic content bytes (Table 2).
    assert memory.load(1056, 1).const_value() == 5
    assert memory.load(1057, 1) is layout.params[3].vars["byte0"]


def test_binding_constraints_reflect_seed():
    layout, values = transfer_layout()
    bindings = layout.binding_constraints()
    assert bindings[layout.params[0].vars["value"]].const_value() \
        == int(Name("player"))
    assert bindings[layout.params[2].vars["amount"]].const_value() == 50000
    assert bindings[layout.params[3].vars["byte0"]].const_value() \
        == ord("h")


def test_seed_from_model_overrides_name():
    layout, _ = transfer_layout()
    model = Model({"rho0": int(Name("attacker"))})
    new_values = layout.seed_from_model(model)
    assert new_values[0] == Name("attacker")
    assert new_values[1] == Name("victim")  # untouched


def test_seed_from_model_overrides_asset_amount():
    layout, _ = transfer_layout()
    model = Model({"rho2_amount": 123456})
    new_values = layout.seed_from_model(model)
    assert new_values[2].amount == 123456
    assert new_values[2].symbol.code == "EOS"


def test_seed_from_model_bad_symbol_keeps_base():
    layout, _ = transfer_layout()
    model = Model({"rho2_symbol": 0})  # precision 0, empty code: invalid
    new_values = layout.seed_from_model(model)
    assert new_values[2].symbol.code == "EOS"


def test_seed_from_model_rewrites_memo_bytes():
    layout, _ = transfer_layout()
    model = Model({"rho3_byte0": ord("X")})
    new_values = layout.seed_from_model(model)
    assert new_values[3] == "Xello"


def test_memo_length_is_fixed():
    # The paper's RQ4 FP mechanism: the layout cannot grow the string,
    # only rewrite its bytes.
    layout, _ = transfer_layout(memo="ab")
    assert len(layout.params[3].vars) == 2
    model = Model({"rho3_byte0": ord("z")})
    assert layout.seed_from_model(model) [3] == "zb"


def test_signed_int_round_trip():
    abi = Abi.from_signatures({"adjust": (("delta", "int64"),)})
    layout = SeedLayout(abi.action("adjust"), [-5])
    bindings = layout.binding_constraints()
    var = layout.params[0].vars["value"]
    assert bindings[var].const_value() == (1 << 64) - 5
    model = Model({"rho0": (1 << 64) - 9})
    assert layout.seed_from_model(model)[0] == -9


@pytest.mark.parametrize("abi_type, float_fmt, bits_fmt, width", [
    ("float32", "<f", "<I", 32), ("float64", "<d", "<Q", 64)])
def test_float_param_is_a_concrete_local(abi_type, float_fmt, bits_fmt,
                                         width):
    """No float theory: the slot holds the traced IEEE bits, and the
    parameter has no variable to bind, flip or read off a model."""
    abi = Abi.from_signatures({"setrate": (("who", "name"),
                                           ("rate", abi_type))})
    layout = SeedLayout(abi.action("setrate"), [Name("alice"), 2.5])
    who = layout.params[0].vars["value"]
    assert layout.params[1].vars == {}
    assert layout.all_vars() == {who}
    assert list(layout.binding_constraints()) == [who]
    # The traced operand is a Python float; it must not be truncated.
    frame = layout.init_frame(7, [111, 222, -1.75], SymbolicMemory())
    assert frame.locals[1] is who
    bits = struct.unpack(bits_fmt, struct.pack(float_fmt, -1.75))[0]
    assert frame.locals[2].width == width
    assert frame.locals[2].const_value() == bits
    model = Model({"rho0": int(Name("bob")), "rho1": 7})
    assert layout.seed_from_model(model) == [Name("bob"), 2.5]


def test_unsupported_type_rejected():
    # AbiParam admits only types with a layout, so the odd type is
    # smuggled in through a stand-in parameter.
    odd = AbiAction("odd", (SimpleNamespace(name="blob", type="float128"),))
    with pytest.raises(ValueError):
        SeedLayout(odd, [1.0])
