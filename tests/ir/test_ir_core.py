"""IR construction: types, values, instructions, functions, modules."""

import pytest

from repro.errors import IRError
from repro.ir import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cmp,
    CondBr,
    Constant,
    Copy,
    FLOAT,
    Function,
    INT,
    IRBuilder,
    Load,
    Module,
    PTR,
    Register,
    Ret,
    Store,
    VOID,
    const_float,
    const_int,
    const_ptr,
    result_type,
)


class TestTypes:
    def test_singletons(self):
        types = (INT, FLOAT, PTR, VOID)
        assert len({id(t) for t in types}) == 4
        assert [repr(t) for t in types] == ["int", "float", "ptr", "void"]

    def test_integral_classification(self):
        assert INT.is_integral and PTR.is_integral
        assert not FLOAT.is_integral
        assert FLOAT.is_float and not FLOAT.is_int


class TestConstants:
    def test_int_constant_coerces(self):
        assert Constant(INT, 3.0).value == 3
        assert isinstance(Constant(INT, 3.0).value, int)

    def test_float_constant_coerces(self):
        assert Constant(FLOAT, 3).value == 3.0
        assert isinstance(Constant(FLOAT, 3).value, float)

    def test_void_constant_rejected(self):
        with pytest.raises(TypeError):
            Constant(VOID, 0)

    def test_equality_and_hash(self):
        assert const_int(5) == const_int(5)
        assert const_int(5) != const_float(5)
        assert len({const_int(5), const_int(5), const_float(5.0)}) == 2

    def test_helpers(self):
        assert const_ptr(7).type is PTR


class TestResultType:
    def test_int_ops(self):
        assert result_type("add", INT, INT) is INT

    def test_float_ops(self):
        assert result_type("fadd", FLOAT, FLOAT) is FLOAT

    def test_ptr_arith(self):
        assert result_type("padd", PTR, INT) is PTR

    def test_invalid_combinations(self):
        with pytest.raises(IRError):
            result_type("add", INT, FLOAT)
        with pytest.raises(IRError):
            result_type("fadd", INT, INT)
        with pytest.raises(IRError):
            result_type("padd", INT, PTR)
        with pytest.raises(IRError):
            result_type("nope", INT, INT)


class TestFunction:
    def test_params_are_dense_registers(self):
        f = Function("f", [INT, FLOAT], VOID, ["a", "b"])
        assert [p.index for p in f.params] == [0, 1]
        assert f.params[0].name == "a"
        r = f.new_reg(INT)
        assert r.index == 2
        assert f.num_regs == 3

    def test_blocks_get_dense_indices(self):
        f = Function("f", [], VOID)
        b0 = f.new_block("entry")
        b1 = f.new_block("next")
        assert (b0.index, b1.index) == (0, 1)
        assert f.entry is b0

    def test_entry_of_empty_function_raises(self):
        f = Function("f", [], VOID)
        with pytest.raises(IRError):
            _ = f.entry

    def test_reindex_after_mutation(self):
        f = Function("f", [], VOID)
        b0 = f.new_block("a")
        b1 = f.new_block("b")
        f.blocks.reverse()
        f.reindex_blocks()
        assert (b1.index, b0.index) == (0, 1)


class TestBasicBlock:
    def test_append_after_terminator_rejected(self):
        f = Function("f", [], VOID)
        b = f.new_block("entry")
        b.append(Ret())
        with pytest.raises(IRError):
            b.append(Copy(f.new_reg(INT), const_int(1)))

    def test_successors(self):
        f = Function("f", [], VOID)
        a = f.new_block("a")
        b = f.new_block("b")
        c = f.new_block("c")
        a.append(CondBr(const_int(1), b, c))
        b.append(Br(c))
        c.append(Ret())
        assert a.successors() == [b, c]
        assert b.successors() == [c]
        assert c.successors() == []


class TestModule:
    def test_duplicate_function_rejected(self):
        m = Module("m")
        m.add_function(Function("f", [], VOID))
        with pytest.raises(IRError):
            m.add_function(Function("f", [], VOID))

    def test_lookup(self):
        m = Module("m")
        f = m.add_function(Function("f", [], VOID))
        assert m["f"] is f
        assert "f" in m and "g" not in m
        assert m.get("g") is None
        with pytest.raises(IRError):
            _ = m["g"]


class TestInstructionOperands:
    def test_operand_traversal(self):
        f = Function("f", [INT, INT], INT, ["a", "b"])
        a, b = f.params
        d = f.new_reg(INT)
        inst = BinOp(d, "add", a, b)
        assert inst.operands() == (a, b)

    def test_alloca_positive_count(self):
        f = Function("f", [], VOID)
        with pytest.raises(IRError):
            Alloca(f.new_reg(PTR), 0)

    def test_unknown_binop_rejected(self):
        f = Function("f", [], VOID)
        with pytest.raises(IRError):
            BinOp(f.new_reg(INT), "frobnicate", const_int(1), const_int(2))

    def test_unknown_cmp_pred_rejected(self):
        f = Function("f", [], VOID)
        with pytest.raises(IRError):
            Cmp(f.new_reg(INT), "icmp", "ult", const_int(1), const_int(2))

    def test_terminator_flags(self):
        f = Function("f", [], VOID)
        blk = f.new_block("x")
        assert Ret().is_terminator
        assert Br(blk).is_terminator
        assert not Store(const_int(1), const_ptr(4)).is_terminator
