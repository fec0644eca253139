import ast
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import v2partitions
from v2partitions.series import (TruncatedSeries, _divide, _expand, _largest, _shift_add, _top_bits, _unpack, _widen,
                                 binomial_power, mul, pochhammer, product_power, reciprocal)

from oracles import (count_with, distinct_parts, partition_count, pochhammer_factors, product_expand,
                     unpack_slots)


def series(*coeffs):
    return TruncatedSeries(coeffs)


def series_one(order):
    """The series 1 to `order`."""
    return series(1, *[0] * order)


small_series = st.lists(st.integers(-9, 9), min_size=7, max_size=7).map(
    lambda c: series(*c))
unit_series = st.lists(st.integers(-9, 9), min_size=6, max_size=6).map(
    lambda c: series(1, *c))
# zeros (sparse divisors), the pentagonal coefficients +-1, and non-unit ones
coefficient = st.one_of(st.just(0), st.sampled_from([1, -1]), st.integers(-10**20, 10**20))


def coefficients(n):
    return st.lists(coefficient, min_size=n, max_size=n)


@st.composite
def exponent_lists(draw):
    """(e, order) with zeros and small exponents; half of them carry one entry of 200 to 255 above order // 3.

    No monomial of degree <= order takes three factors n > order // 3, so `_expand`
    writes their product directly. Near 255, a written entry fills its 8-bit slot,
    and a pair of them widens the written slots.
    """
    order = draw(st.integers(0, 120))
    e = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=order + 1, max_size=order + 1))
    if order and draw(st.booleans()):
        e[draw(st.integers(order // 3 + 1, order))] = draw(st.integers(200, 255))
    return e, order


def boundary_case(order, big=False):
    """Exponents n % 4 to `order`, the top one 256 (refused) when `big`: a segment boundary's example."""
    e = [n % 4 for n in range(order + 1)]
    if big:
        e[order] = 256
    return e, order


def sparse_case(order, entries):
    """Exponents 0 to `order` but for `entries`, {n: e[n]}."""
    e = [0] * (order + 1)
    for n, exponent in entries.items():
        e[n] = exponent
    return e, order


def expand_checks(e, order):
    """The driver both packed expansions share, alone: it checks the list before any pass."""
    return _expand(e, order, None)


@pytest.mark.parametrize("call", [
    lambda: pochhammer(2, 5), lambda: product_power([0, 1, 2], 2),
    lambda: mul(series(1, 1), series(1, 2), 1), lambda: reciprocal(series(1, 1), 1),
], ids=["pochhammer", "product_power", "mul", "reciprocal"])
def test_traced_functions_return_truncated_series(call):
    # The benchmark tracer reads .coeffs off each of these results; it is the list itself.
    result = call()
    assert type(result) is TruncatedSeries
    assert isinstance(result, list)
    assert result.coeffs is result
    assert all(type(c) is int for c in result)


class TestMul:
    @given(small_series)
    def test_multiplicative_identity(self, s):
        order = len(s) - 1
        assert mul(series_one(order), s, order) == s

    def test_telescoping(self):
        assert mul(series(1, -1, 0, 0), series(1, 1, 1, 1), 3) == series_one(3)

    def test_square_of_binomial(self):
        assert mul(series(1, 1, 0), series(1, 1, 0), 2) == series(1, 2, 1)

    def test_square_of_trinomial(self):
        # (1+q+q^2)^2, convolved by hand
        s = series(1, 1, 1, 0, 0)
        assert mul(s, s, 4) == series(1, 2, 3, 2, 1)

    def test_insufficient_order_rejected(self):
        with pytest.raises(ValueError):
            mul(series(1, 1), series(1, 1, 1), 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            mul(series(1), series(1), -1)

    @given(small_series, small_series)
    def test_commutative(self, a, b):
        assert mul(a, b, 6) == mul(b, a, 6)

    @given(small_series, small_series, small_series)
    @settings(max_examples=50)
    def test_associative(self, a, b, c):
        assert mul(mul(a, b, 6), c, 6) == mul(a, mul(b, c, 6), 6)


class TestReciprocal:
    @pytest.mark.parametrize("m", range(1, 51))
    def test_geometric_series(self, m):
        # 1/(1-q^m) = sum_j q^(jm)
        N = 200
        one_minus_qm = series(*(1 if k == 0 else -1 if k == m else 0 for k in range(N + 1)))
        expected = series(*(1 if k % m == 0 else 0 for k in range(N + 1)))
        assert reciprocal(one_minus_qm, N) == expected

    def test_reciprocal_of_one(self):
        assert reciprocal(series_one(7), 7) == series_one(7)

    def test_negative_order_rejected(self):
        # _divide checks the order itself: these lengths pass its length check
        for call in (lambda: reciprocal(series(1), -1), lambda: _divide([1], [1], -1),
                     lambda: _divide([5, 1], [1, 2], -3)):
            with pytest.raises(ValueError, match="non-negative"):
                call()

    def test_nonunit_constant_rejected(self):
        with pytest.raises(ValueError):
            reciprocal(series(2, 1, 1), 2)

    @given(unit_series)
    def test_inverse_property(self, a):
        assert mul(a, reciprocal(a, 5), 5) == series_one(5)

    @given(st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.just(n), coefficients(n), coefficients(n + 1))))
    def test_division_inverts_multiplication(self, case):
        order, tail, c = case
        a = series(1, *tail)
        assert mul(a, _divide(c, a, order), order) == c
        assert mul(a, reciprocal(a, order), order) == series_one(order)

    @given(st.integers(1, 200).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(1, n), st.sampled_from([2, -2, 3])), max_size=12),
        st.sampled_from([2, -2, 3]), st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1))))
    def test_division_by_repeated_nonunit_coefficients(self, case):
        # terms sharing a value share one list of its multiples; one term starts at the order, one past it
        order, terms, last, c = case
        a = [1] + [0] * (order + 1)
        for i, ai in terms:
            a[i] = ai
        a[order] = a[order + 1] = last
        assert mul(a, _divide(c, a, order), order) == c

    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), coefficients(n + 1))),
           st.integers(-10**20, 10**20).filter(lambda a0: a0 != 1))
    def test_division_requires_unit_constant_term(self, case, a0):
        order, coeffs = case
        with pytest.raises(ValueError, match="constant term 1"):
            _divide([1] + [0] * order, [a0, *coeffs[1:]], order)

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just([1] + [0] * n), st.integers(0, n - 1).flatmap(coefficients).map(lambda t: [1, *t]), st.just(n))))
    @example(([1], [1, 1, 0], 2))  # the numerator ends before the order
    @example(([1], [], 0))  # an empty divisor: there is no a[0] to read
    def test_division_requires_divisor_up_to_order(self, case):
        c, a, order = case
        with pytest.raises(ValueError, match="up to the requested order"):
            _divide(c, a, order)

    def test_euler_product_inverse_gives_partition_numbers(self):
        # 1/(q;q) generates p(n); oracle: literal partition enumeration
        expected = [partition_count(n) for n in range(11)]
        assert expected == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        qq = pochhammer(1, 10)
        assert reciprocal(qq, 10) == expected


class TestPochhammer:
    def test_distinct_odd_parts(self):
        # (-q;q^2) = f2^2/(f1 f4): coefficient of q^n counts partitions into distinct odd parts
        N = 12
        f1, f2, f4 = (pochhammer(k, N) for k in (1, 2, 4))
        got = mul(mul(f2, f2, N), reciprocal(mul(f1, f4, N), N), N)
        expected = [count_with(n, lambda p: distinct_parts(p) and all(k % 2 for k in p))
                    for n in range(N + 1)]
        assert got == expected
        assert expected[:5] == [1, 1, 0, 1, 1]

    def test_euler_function(self):
        # (q;q) to order 7, cross-checked by factor-by-factor expansion
        factors = [{0: 1, m: -1} for m in range(1, 8)]
        expected = product_expand(factors, 7)
        got = pochhammer(1, 7)
        assert got == expected == [1, -1, -1, 0, 0, 1, 0, 1]

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_pentagonal_series_matches_factor_expansion(self, k):
        # (q^k;q^k) is written from the pentagonal number theorem, not expanded
        N = 300
        factors = [{0: 1, k * m: -1} for m in range(1, N // k + 1)]
        got = pochhammer(k, N)
        assert got == product_expand(factors, N)

    def test_empty_effective_product(self):
        assert pochhammer(9, 4) == series_one(4)  # (1 - q^9)(1 - q^18)... is 1 below q^9

    def test_negated_pair_gives_even_step(self):
        # (-q;q)(q;q) = (q^2;q^2)
        N = 200
        lhs = mul(series(*pochhammer_factors(-1, 1, 1, N)), pochhammer(1, N), N)
        assert lhs == pochhammer(2, N)

    @pytest.mark.parametrize("k,order", [(0, 5), (-1, 5), (1, -1)])
    def test_bad_arguments_rejected(self, k, order):
        # k = 0 would never leave the pentagonal loop, since 0 <= order
        with pytest.raises(ValueError):
            pochhammer(k, order)


class TestProductPower:
    def test_zero_exponents(self):
        assert product_power([0] * 7, 6) == series_one(6)

    def test_unit_exponents_give_distinct_partitions(self):
        # (1+q)(1+q^2)(1+q^3) counts partitions into distinct parts
        got = product_power([0, 1, 1, 1], 3)
        expected = [count_with(n, distinct_parts) for n in range(4)]
        assert got == expected == [1, 1, 1, 2]

    @pytest.mark.parametrize("expand", [product_power, binomial_power, expand_checks], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("e,order,message", [
        ([0, 1], 2, "every n <= order"),
        ([0, 2, -1], 2, "at n = 2 is negative"),  # not (1, 2, 1): (1+q)^2/(1+q^2) is 1 + 2q + 0q^2
        ([0, -1, 0], 2, "at n = 1 is negative"),  # not a bound from a negative binomial count
        ([0], -1, "order must be non-negative"),
        (*boundary_case(33, big=True), "^exponent 256 at n = 33 is over 255$"),  # a byte holds no 256
        (*sparse_case(60, {21: 1, 39: 256}), "^exponent 256 at n = 39 is over 255$"),
        ([0, 300, -1], 2, "^exponent 300 at n = 1 is over 255$"),  # the first one out of range
    ], ids=["short", "negative-at-2", "negative-at-1", "negative-order",
            "256-at-top", "256-paired", "300-then-negative"])
    def test_bad_exponent_list_rejected(self, expand, e, order, message):
        with pytest.raises(ValueError, match=message):
            expand(e, order)

    # e[0] names no factor: it is neither read nor refused, whatever it holds.
    @pytest.mark.parametrize("e0", [-1, 256, 10**30])
    def test_unused_first_exponent_is_not_refused(self, e0):
        assert product_power([e0, 1, 1], 2) == binomial_power([e0, 1, 1], 2) == [1, 1, 1]
        assert product_power([e0] + [1] * 40, 40) == product_power([0] + [1] * 40, 40)
        assert binomial_power([e0] + [2] * 40, 40) == binomial_power([0] + [2] * 40, 40)

    @pytest.mark.parametrize("N", [0, 1, 10, 50, 200])
    def test_euler_identity(self, N):
        # (-q;q) = 1/(q;q^2)
        lhs = product_power([0] + [1] * N, N)
        rhs = reciprocal(series(*pochhammer_factors(1, 1, 2, N)), N)
        assert lhs == rhs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_exponents_match_factor_expansion(self, seed):
        N = 60
        rng = random.Random(seed)
        e = [0] + [rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(N)]
        factors = [{0: 1, n: 1} for n in range(1, N + 1) for _ in range(e[n])]
        assert product_power(e, N) == product_expand(factors, N)

    @settings(max_examples=100, deadline=None)
    @given(exponent_lists())
    @example(boundary_case(15))
    @example(boundary_case(16))
    @example(boundary_case(17))
    @example(boundary_case(32))
    @example(boundary_case(33))
    @example(([0] * 10 + [1] + [0] * 19 + [255] + [0] * 9 + [1], 40))  # c_40 = 255 + 1 must widen its slot
    @example(boundary_case(99))  # order 3k, 3k + 1 and 3k + 2: the written factors start at k + 1
    @example(boundary_case(100))
    @example(boundary_case(101))
    @example(sparse_case(40, {20: 2}))  # C(2, 2) q^40 from the one factor (1 + q^20)^2
    @example(sparse_case(40, {15: 1}))  # a lone factor with 2n <= order pairs with nothing
    @example(sparse_case(40, {17: 1, 23: 1}))  # the two smallest meet at exactly the order
    @example(sparse_case(40, {17: 1, 24: 1}))  # and one past it
    @example(sparse_case(60, {21: 1, 39: 255}))  # a written pair: c_60 = 255
    def test_both_expansions_match_factor_expansion(self, case):
        e, order = case
        factors = [{0: 1, n: 1} for n in range(1, order + 1) for _ in range(e[n])]
        expected = product_expand(factors, order)
        assert product_power(e, order) == expected
        assert binomial_power(e, order) == expected

    # Each expansion reads e through slicing and indexing alone: any sequence of ints
    # in 0..255 gives the same list, as the binary sweep's bytearray does.
    @settings(max_examples=100, deadline=None)
    @given(exponent_lists())
    def test_every_sequence_type_gives_the_same_expansion(self, case):
        e, order = case
        for expand in (product_power, binomial_power):
            expected = expand(e, order)
            for kind in (tuple, bytes, bytearray):
                assert expand(kind(e), order) == expected


class TestPackedKernel:
    # c_k sits in slot order - k: 1 + 2q + 3q^2 at order 2 with 8-bit slots is 0x010203.
    def test_slot_layout(self):
        assert _unpack(0x010203, 2, 8) == [1, 2, 3]
        assert _unpack(0x0001_0002_0003, 2, 16) == [1, 2, 3]
        assert _unpack(0x000001_000002_000003, 2, 24) == [1, 2, 3]
        assert _unpack(0x00000001_00000002_00000003, 2, 32) == [1, 2, 3]
        assert _unpack(1 << 128 | 2 << 64 | 3, 2, 64) == [1, 2, 3]
        assert _unpack(0xFFFFFFFF_FFFFFFFE << 64, 1, 64) == [2**64 - 2, 0]

    # 8-bit slots are the bytes themselves; those of up to 64 bits are read as machine words,
    # those of 24, 40, 48 and 56 bits after moving them into wider ones; wider ones are cut apart by struct
    @pytest.mark.parametrize("bits", range(8, 137, 8))
    @pytest.mark.parametrize("order", [0, 1, 2, 61, 500])
    def test_matches_reference_decoder(self, bits, order):
        rng = random.Random(bits * 1000 + order)
        for top in [0, 1, rng.getrandbits(70) | 1]:  # junk bits above the top slot
            x = top << (order + 1) * bits | rng.getrandbits((order + 1) * bits)
            assert _unpack(x, order, bits) == unpack_slots(x, order, bits)
        full = (1 << (order + 1) * bits) - 1  # every slot at its maximum
        assert _unpack(full, order, bits) == [(1 << bits) - 1] * (order + 1)

    # `most` starts from the exact largest exponent, so the widths follow from it alone; a
    # bound off the bit length (7 for 5) would widen some slots sooner.
    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(0, 400), st.integers(0, 255)).flatmap(lambda size: st.lists(
        st.integers(0, size[1]), min_size=size[0], max_size=size[0]).map(bytes)))
    def test_largest_is_max(self, raw):
        assert _largest(raw) == max(raw, default=0)

    # The package runs on Python 3.10, where int.from_bytes and int.to_bytes have no default
    # byte order: each use must pass one, as a second argument or, under map, a second iterable.
    def test_byte_conversions_name_their_byte_order(self):
        for path in Path(v2partitions.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            named = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and (len(node.args) >= 2 or any(k.arg == "byteorder" for k in node.keywords))}
            named |= {id(node.args[0]) for node in ast.walk(tree) if isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "map" and len(node.args) >= 3}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes"):
                    assert id(node) in named, f"{path.name}:{node.lineno}"

    # pyproject.toml admits Python 3.10: no module may use syntax that only a later Python parses.
    def test_every_module_parses_as_python_3_10(self):
        paths = sorted(Path(v2partitions.__file__).parent.glob("*.py"))
        assert paths  # a glob that finds nothing checks nothing
        for path in paths:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))

    # Slots of 1 to 17 bytes: random ones, and a top slot with only its low byte set,
    # as c_0 = 1 is while every other slot is zero.
    @pytest.mark.parametrize("size", range(1, 18))
    @pytest.mark.parametrize("order", [0, 1, 2, 61])
    def test_read_back_and_widening_match_reference_decoder(self, size, order):
        bits, rng = 8 * size, random.Random(size * 1000 + order)
        for x in [1 << order * bits, *(rng.getrandbits((order + 1) * bits) >> rng.randrange(bits)
                                       for _ in range(20))]:
            raw = x.to_bytes((order + 1) * size, "big")
            assert _top_bits(raw, bits) == max(unpack_slots(x, order, bits)).bit_length()
            widened, width = _widen(raw, bits, bits + 8 * rng.randrange(4))
            assert unpack_slots(widened, order, width) == unpack_slots(x, order, bits)

    def test_order_zero(self):
        assert _unpack(1, 0, 8) == [1]
        assert product_power([0], 0) == series_one(0)
        assert product_power([0, 5], 0) == series_one(0)  # a factor past the order adds nothing

    def test_order_one(self):
        assert _unpack(_shift_add(1 << 8, 1 << 8, 1, 5, 8), 1, 8) == [1, 5]
        assert product_power([0, 3], 1) == series(1, 3)

    @pytest.mark.parametrize("order", [0, 1, 5])
    def test_shift_past_order_returns_dst(self, order):
        bits = 16
        packed = sum((k + 1) << (order - k) * bits for k in range(order + 1))  # c_k = k + 1
        for s in [order + 1, order + 2, 10**6]:
            assert _shift_add(packed, packed, s, 7, bits) == packed
