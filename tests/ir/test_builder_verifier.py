"""IRBuilder type checking and the module verifier."""

import pytest

from repro.errors import IRError, VerifierError
from repro.frontend import compile_source
from repro.ir import (
    BinOp,
    Br,
    Call,
    FLOAT,
    Function,
    INT,
    IRBuilder,
    Module,
    PTR,
    Ret,
    VOID,
    const_float,
    const_int,
    format_function,
    format_module,
    verify_function,
    verify_module,
)
from repro.passes import pipeline_for_mode, run_passes

SIMPLE = """
func helper(x: float) -> float {
    return x * 2.0 + 1.0;
}
func main(rank: int, size: int) {
    var a: float[4];
    for (var i: int = 0; i < 4; i += 1) {
        a[i] = helper(float(i));
    }
    emit(a[3]);
}
"""


def make_void_main():
    m = Module("m")
    f = Function("main", [INT, INT], VOID, ["rank", "size"])
    m.add_function(f)
    b = IRBuilder(f, f.new_block("entry"))
    return m, f, b


class TestBuilder:
    def test_binop_infers_result_type(self):
        _, f, b = make_void_main()
        r = b.binop("fadd", const_float(1.0), const_float(2.0))
        assert r.type is FLOAT

    def test_binop_type_mismatch(self):
        _, f, b = make_void_main()
        with pytest.raises(IRError):
            b.binop("add", const_int(1), const_float(2.0))

    def test_icmp_requires_integral(self):
        _, f, b = make_void_main()
        with pytest.raises(IRError):
            b.icmp("slt", const_float(1.0), const_float(2.0))

    def test_load_requires_ptr(self):
        _, f, b = make_void_main()
        with pytest.raises(IRError):
            b.load(const_int(4), FLOAT)

    def test_store_requires_ptr_addr(self):
        _, f, b = make_void_main()
        with pytest.raises(IRError):
            b.store(const_int(1), const_int(4))

    def test_ret_type_checked(self):
        m = Module("m")
        f = Function("f", [], INT)
        m.add_function(f)
        b = IRBuilder(f, f.new_block("entry"))
        with pytest.raises(IRError):
            b.ret(const_float(1.0))
        with pytest.raises(IRError):
            b.ret()
        b.ret(const_int(1))

    def test_void_ret_rejects_value(self):
        _, f, b = make_void_main()
        with pytest.raises(IRError):
            b.ret(const_int(1))

    def test_condbr_requires_int(self):
        _, f, b = make_void_main()
        t = f.new_block("t")
        e = f.new_block("e")
        with pytest.raises(IRError):
            b.condbr(const_float(1.0), t, e)

    def test_copy_type_mismatch(self):
        _, f, b = make_void_main()
        dest = f.new_reg(INT)
        with pytest.raises(IRError):
            b.copy(const_float(1.0), dest=dest)

    def test_no_block_positioned(self):
        m = Module("m")
        f = Function("f", [], VOID)
        m.add_function(f)
        b = IRBuilder(f)
        with pytest.raises(IRError):
            b.ret()


class TestVerifier:
    def test_accepts_well_formed(self):
        m, f, b = make_void_main()
        b.ret()
        verify_module(m)

    def test_missing_terminator(self):
        m, f, b = make_void_main()
        b.copy(const_int(1))
        with pytest.raises(VerifierError, match="no terminator"):
            verify_module(m)

    def test_terminator_mid_block(self):
        m, f, b = make_void_main()
        blk = b.block
        blk.append(Ret())
        # bypass the block guard to simulate a buggy pass
        blk.instructions.append(Ret())
        with pytest.raises(VerifierError):
            verify_module(m)

    def test_use_before_any_def(self):
        m, f, b = make_void_main()
        ghost = f.new_reg(INT, "ghost")
        blk = b.block
        blk.instructions.append(BinOp(f.new_reg(INT), "add", ghost, const_int(1)))
        blk.append(Ret())
        with pytest.raises(VerifierError, match="used before any definition"):
            verify_module(m)

    def test_stale_block_indices(self):
        m, f, b = make_void_main()
        b.ret()
        extra = f.new_block("extra")
        extra.append(Ret())
        f.blocks.reverse()  # indices now stale
        with pytest.raises(VerifierError, match="stale index"):
            verify_module(m)

    def test_branch_to_foreign_block(self):
        m, f, b = make_void_main()
        other = Function("other", [], VOID)
        foreign = other.new_block("foreign")
        b.block.append(Br(foreign))
        with pytest.raises(VerifierError, match="foreign block"):
            verify_module(m)

    def test_call_arity_checked(self):
        m, f, b = make_void_main()
        callee = Function("callee", [INT], INT, ["x"])
        m.add_function(callee)
        cb = IRBuilder(callee, callee.new_block("entry"))
        cb.ret(const_int(0))
        b.block.append(Call(None, "callee", [const_int(1), const_int(2)]))
        b.block.append(Ret())
        f.reindex_blocks()
        with pytest.raises(VerifierError, match="2 args"):
            verify_module(m)

    def test_call_arg_type_checked(self):
        m, f, b = make_void_main()
        callee = Function("callee", [FLOAT], VOID, ["x"])
        m.add_function(callee)
        cb = IRBuilder(callee, callee.new_block("entry"))
        cb.ret()
        b.block.append(Call(None, "callee", [const_int(1)]))
        b.block.append(Ret())
        with pytest.raises(VerifierError, match="arg type"):
            verify_module(m)

    def test_duplicate_labels(self):
        m, f, b = make_void_main()
        b.ret()
        dup = f.new_block("entry")
        dup.append(Ret())
        with pytest.raises(VerifierError, match="duplicate block label"):
            verify_module(m)


class TestPrinter:
    def test_format_function_mentions_everything(self):
        m, f, b = make_void_main()
        r = b.binop("add", f.params[0], const_int(1))
        b.call("emiti", [r])
        b.ret()
        text = format_function(f)
        assert "main" in text
        assert "add %rank, 1" in text
        assert "call emiti" in text
        assert "ret" in text

    def test_format_module_lists_passes(self):
        m, f, b = make_void_main()
        b.ret()
        m.passes_applied.append("demo")
        assert "demo" in format_module(m)

    def test_site_annotations_shown(self):
        m = compile_source(SIMPLE)
        run_passes(m, pipeline_for_mode("fpm"))
        text = format_module(m)
        assert "!site" in text
        assert "!sec" in text
        assert "func [dual] " in text
