"""Machine arithmetic: 64-bit wrapping integers and IEEE float semantics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vm.bitflip import flip_bit
from repro.vm.intrinsics import INTRINSICS
from repro.vm.ops import BINOP_FUNCS, CAST_FUNCS, CMP_FUNCS, wrap_i64

i64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
nonzero_i64 = i64.filter(lambda v: v != 0)

I64_MIN = -(2 ** 63)
I64_MAX = 2 ** 63 - 1


class TestIntWrap:
    def test_add_overflow_wraps(self):
        assert BINOP_FUNCS["add"](I64_MAX, 1) == I64_MIN

    def test_sub_underflow_wraps(self):
        assert BINOP_FUNCS["sub"](I64_MIN, 1) == I64_MAX

    def test_mul_wraps(self):
        assert BINOP_FUNCS["mul"](2 ** 62, 4) == 0

    @given(i64, i64)
    def test_add_in_range(self, a, b):
        r = BINOP_FUNCS["add"](a, b)
        assert I64_MIN <= r <= I64_MAX
        assert (a + b - r) % (2 ** 64) == 0

    @given(i64, i64)
    def test_mul_in_range(self, a, b):
        r = BINOP_FUNCS["mul"](a, b)
        assert I64_MIN <= r <= I64_MAX
        assert (a * b - r) % (2 ** 64) == 0


class TestDivision:
    def test_sdiv_truncates_toward_zero(self):
        # C semantics: -7/2 == -3 (Python's // would give -4).
        assert BINOP_FUNCS["sdiv"](-7, 2) == -3
        assert BINOP_FUNCS["sdiv"](7, -2) == -3
        assert BINOP_FUNCS["sdiv"](-7, -2) == 3

    def test_srem_sign_follows_dividend(self):
        assert BINOP_FUNCS["srem"](-7, 2) == -1
        assert BINOP_FUNCS["srem"](7, -2) == 1

    @given(i64, nonzero_i64)
    def test_div_rem_identity(self, a, b):
        q = BINOP_FUNCS["sdiv"](a, b)
        r = BINOP_FUNCS["srem"](a, b)
        # identity holds modulo 2^64 (q may have wrapped for I64_MIN/-1)
        assert (q * b + r - a) % (2 ** 64) == 0

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            BINOP_FUNCS["sdiv"](1, 0)
        with pytest.raises(ZeroDivisionError):
            BINOP_FUNCS["srem"](1, 0)


class TestShifts:
    def test_shift_amount_masked_to_six_bits(self):
        # Hardware masks the shift count; a corrupted huge count must not
        # blow up into a bignum shift.
        assert BINOP_FUNCS["shl"](1, 64) == 1
        assert BINOP_FUNCS["shl"](1, 65) == 2

    def test_ashr_is_arithmetic(self):
        assert BINOP_FUNCS["ashr"](-8, 1) == -4
        assert BINOP_FUNCS["ashr"](-1, 63) == -1

    @given(i64, st.integers(min_value=0, max_value=63))
    def test_shl_in_range(self, a, s):
        r = BINOP_FUNCS["shl"](a, s)
        assert I64_MIN <= r <= I64_MAX


class TestFloatDiv:
    def test_div_by_zero_gives_signed_inf(self):
        assert BINOP_FUNCS["fdiv"](1.0, 0.0) == math.inf
        assert BINOP_FUNCS["fdiv"](-1.0, 0.0) == -math.inf
        assert BINOP_FUNCS["fdiv"](1.0, -0.0) == -math.inf

    def test_zero_by_zero_is_nan(self):
        assert math.isnan(BINOP_FUNCS["fdiv"](0.0, 0.0))

    def test_normal_division(self):
        assert BINOP_FUNCS["fdiv"](3.0, 2.0) == 1.5


class TestComparisons:
    def test_nan_ordered_predicates_false(self):
        nan = float("nan")
        for pred in ("oeq", "olt", "ole", "ogt", "oge", "one"):
            assert CMP_FUNCS[("fcmp", pred)](nan, 1.0) == 0
            assert CMP_FUNCS[("fcmp", pred)](1.0, nan) == 0

    def test_one_is_ordered_not_equal(self):
        assert CMP_FUNCS[("fcmp", "one")](1.0, 2.0) == 1
        assert CMP_FUNCS[("fcmp", "one")](1.0, 1.0) == 0

    @given(i64, i64)
    def test_icmp_trichotomy(self, a, b):
        lt = CMP_FUNCS[("icmp", "slt")](a, b)
        gt = CMP_FUNCS[("icmp", "sgt")](a, b)
        eq = CMP_FUNCS[("icmp", "eq")](a, b)
        assert lt + gt + eq == 1


class TestCasts:
    def test_fptosi_truncates_toward_zero(self):
        assert CAST_FUNCS["fptosi"](2.9) == 2
        assert CAST_FUNCS["fptosi"](-2.9) == -2

    def test_fptosi_inf_raises(self):
        with pytest.raises(OverflowError):
            CAST_FUNCS["fptosi"](math.inf)

    def test_fptosi_nan_raises(self):
        with pytest.raises(ValueError):
            CAST_FUNCS["fptosi"](float("nan"))

    def test_fptosi_huge_wraps(self):
        r = CAST_FUNCS["fptosi"](1e30)
        assert I64_MIN <= r <= I64_MAX

    def test_sitofp(self):
        assert CAST_FUNCS["sitofp"](3) == 3.0
        assert isinstance(CAST_FUNCS["sitofp"](3), float)


@given(st.integers())
def test_wrap_i64_range(v):
    r = wrap_i64(v)
    assert I64_MIN <= r <= I64_MAX
    assert (v - r) % (2 ** 64) == 0


# ----------------------------------------------------------------------
# Every int a program can compute fits a memory word.  Memory is a list
# of Python objects and stores whatever it is handed, so the producers
# are what keeps a bignum out of it.
# ----------------------------------------------------------------------
INT_OPS = ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl",
           "ashr", "padd", "psub")
edge_i64 = i64 | st.sampled_from(
    [I64_MIN, I64_MIN + 1, -2 ** 62, -1, 0, 1, 2 ** 62, I64_MAX - 1, I64_MAX])


def is_word(r):
    return type(r) is int and I64_MIN <= r <= I64_MAX


def mask_wrap(v):
    """The wrap as it was spelled before the range test."""
    v &= 2 ** 64 - 1
    return v - 2 ** 64 if v & 2 ** 63 else v


class TestIntResultsAreWords:
    @given(edge_i64, edge_i64)
    def test_binops(self, a, b):
        for op in INT_OPS:
            try:
                r = BINOP_FUNCS[op](a, b)
            except ZeroDivisionError:
                assert b == 0 and op in ("sdiv", "srem")
                continue
            assert is_word(r), (op, a, b, r)

    @given(edge_i64, edge_i64)
    def test_add_sub_mul_agree_with_the_mask_spelling(self, a, b):
        assert BINOP_FUNCS["add"](a, b) == mask_wrap(a + b)
        assert BINOP_FUNCS["sub"](a, b) == mask_wrap(a - b)
        assert BINOP_FUNCS["mul"](a, b) == mask_wrap(a * b)

    @given(st.integers())
    def test_wrap_agrees_with_the_mask_spelling_on_any_int(self, v):
        assert wrap_i64(v) == mask_wrap(v)

    def test_wrap_at_the_edges(self):
        # the first value past each bound wraps, the bound itself stays
        assert wrap_i64(I64_MAX) == I64_MAX
        assert wrap_i64(I64_MAX + 1) == I64_MIN
        assert wrap_i64(I64_MIN) == I64_MIN
        assert wrap_i64(I64_MIN - 1) == I64_MAX
        assert BINOP_FUNCS["add"](I64_MAX, 1) == I64_MIN
        assert BINOP_FUNCS["sub"](I64_MIN, 1) == I64_MAX
        assert BINOP_FUNCS["mul"](2 ** 62, 2) == I64_MIN
        assert BINOP_FUNCS["mul"](2 ** 62, -2) == I64_MIN

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_fptosi(self, x):
        assert is_word(CAST_FUNCS["fptosi"](x))

    @given(edge_i64, st.integers(min_value=0, max_value=63))
    def test_flip_bit(self, a, bit):
        assert is_word(flip_bit(a, bit, is_float=False))

    @given(edge_i64, edge_i64)
    def test_int_intrinsics(self, a, b):
        for name, args in (("iabs", [a]), ("imin", [a, b]),
                           ("imax", [a, b])):
            assert is_word(INTRINSICS[name].handler(None, args)), name

    def test_iabs_of_the_most_negative_word_wraps(self):
        # abs(-2**63) == 2**63 needs 65 bits; like C's labs, it wraps
        assert INTRINSICS["iabs"].handler(None, [I64_MIN]) == I64_MIN
        assert INTRINSICS["iabs"].handler(None, [-7]) == 7


class TestFloatInAnIntOp:
    """Memory is untyped, so an int register can hold a float (a load
    through a corrupted address).  An int op on it is a TypeError — the
    run loop's POISON trap — never a float result passed along."""

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "padd", "psub",
                                    "and", "or", "xor", "shl", "ashr"])
    def test_raises(self, op):
        for a, b in ((1.5, 2), (2, 1.5), (1.0, 1.0), (float("nan"), 1)):
            with pytest.raises(TypeError):
                BINOP_FUNCS[op](a, b)

    def test_wrap_rejects_a_float(self):
        for x in (0.0, 1.0, -2.0 ** 63, float("inf"), float("nan")):
            with pytest.raises(TypeError):
                wrap_i64(x)
