#!/usr/bin/env python3
"""A tour of the underlying toolchain, layer by layer.

Shows the public APIs of the substrates that WASAI is built from:

1. assemble a Wasm module from scratch (repro.wasm.builder),
2. encode/parse/validate it (the binary toolchain),
3. instrument it with Wasabi-style hooks and watch the trace,
4. replay the trace symbolically and solve a flipped branch
   (repro.symbolic + repro.smt).

Run:  python examples/toolchain_tour.py
"""

from repro.instrument import (HOOK_MODULE, hook_event_builder,
                              instrument_module)
from repro.smt import SAT, Solver
from repro.wasm import (HostFunc, Instance, ModuleBuilder, encode_module,
                        parse_module, validate_module)


def main() -> None:
    # 1. Assemble: f(x) = if (x * 3 > 100) then x else 0
    print("=== 1. assembling a module ===")
    builder = ModuleBuilder()
    f = builder.function("f", params=["i32"], results=["i32"])
    f.local_get(0).i32_const(3).emit("i32.mul")
    f.i32_const(100).emit("i32.gt_u")
    f.emit("if", "i32")
    f.local_get(0)
    f.emit("else")
    f.i32_const(0)
    f.emit("end")
    builder.export_function("f", f)
    module = builder.build()
    print(f"one function, body: {module.functions[0].body}")

    # 2. Binary round-trip + validation.
    print("\n=== 2. binary toolchain ===")
    binary = encode_module(module)
    print(f"encoded: {len(binary)} bytes, magic {binary[:4]!r}")
    reparsed = parse_module(binary)
    validate_module(reparsed)
    print("parsed back and validated OK")

    # 3. Instrument and execute, capturing the trace.
    print("\n=== 3. instrumentation (C1) ===")
    instrumented, sites = instrument_module(module)
    print(f"{len(sites)} instrumentation sites, "
          f"{sum(1 for i in instrumented.imports if i.module == HOOK_MODULE)}"
          " hook imports")
    events = []
    imports = {}
    for imp in instrumented.imports:
        if imp.module == HOOK_MODULE:
            func_type = instrumented.types[imp.desc]
            imports[(imp.module, imp.name)] = HostFunc(
                func_type,
                lambda inst, args, make=hook_event_builder(imp.name):
                    events.append(make(args)) or [])
    instance = Instance(instrumented, imports)
    result = instance.invoke("f", [50])
    print(f"f(50) = {result[0]}")
    for event in events:
        if event.kind == "instr":
            site = sites[event.site_id]
            print(f"  τ({site.instr.op}, {event.operands})")

    # 4. Symbolic: rebuild the branch condition and flip it.
    print("\n=== 4. constraint flipping (Symback + repro.smt) ===")
    from repro.smt import BitVec, BitVecVal, Not, UGT
    x = BitVec("x", 32)
    condition = UGT(x * BitVecVal(3, 32), BitVecVal(100, 32))
    print(f"f(50) took the branch: {condition}")
    solver = Solver()
    solver.add(Not(condition))
    assert solver.check() == SAT
    witness = solver.model()[x]
    print(f"flipped model: x = {witness}  "
          f"(so f({witness}) takes the other arm)")
    assert instance.invoke("f", [witness]) == [0]
    print("confirmed on the interpreter: other branch reached")


if __name__ == "__main__":
    main()
