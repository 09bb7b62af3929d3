"""Value and function types."""

import pickle

from repro.wasm.types import F32, F64, FuncType, I32, I64


def test_singletons_survive_pickling():
    for singleton in (I32, I64, F32, F64):
        assert pickle.loads(pickle.dumps(singleton)) is singleton
    func_type = FuncType((I32, I64), (I32,))
    assert pickle.loads(pickle.dumps(func_type)) == func_type
