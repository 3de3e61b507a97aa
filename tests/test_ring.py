"""Exact ring arithmetic: worked examples, axioms, serialization."""

import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combspectra import ring
from combspectra.errors import NotDivisibleError
from combspectra.ring import (
    Classification,
    GaussInt,
    RingElem,
    const,
    monomial,
    random_element,
    x_pow,
)
from combspectra.verify import _convolution

X, Y, I, ONE, ZERO = ring.X, ring.Y, ring.I, ring.ONE, ring.ZERO


def test_add_examples():
    assert (ONE + X) + X == ONE + 2 * X
    assert I + (-I) == ZERO
    assert (I + (-I)).is_zero
    assert (Y - ONE) + ONE == Y


def test_mul_examples():
    assert I * I == const(-1)
    assert x_pow(2) * (ONE + X) == x_pow(2) + x_pow(3)
    assert Y * I == monomial(0, 1, 0, 1)


def test_eval_examples():
    assert (x_pow(3) + 2 * x_pow(5)).eval(1, 1) == GaussInt(3, 0)
    # total weight of the worked edge Roman witness on the 3-path
    p = (I * Y - ONE) + (Y - ONE) * X + (Y - I) * x_pow(2)
    assert p.eval(1, 1) == GaussInt(0, 0)
    assert ZERO.eval(GaussInt(5, -2), GaussInt(7, 7)) == GaussInt(0, 0)


def test_coeff_x_examples():
    p = ONE + 3 * X + 2 * x_pow(2)
    assert p.coeff_x(1) == const(3)
    q = (I * Y - ONE) + (Y - I) * x_pow(2)
    assert q.coeff_x(2) == Y - I
    assert q.coeff_x(17) == ZERO


def test_exact_div_examples():
    d = GaussInt(2, 1)
    assert (const(2, 1) * (Y - ONE)).exact_div(d) == Y - ONE
    assert ZERO.exact_div(d) == ZERO
    with pytest.raises(NotDivisibleError):
        ONE.exact_div(GaussInt(2, 0))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(GaussInt(0, 0))


def test_classify_examples():
    flags = (I - ONE).classify()
    assert not flags.is_nonzero_pure_imaginary
    assert not flags.is_in_minus_i_plus_z
    assert ZERO.classify() == Classification(True, True, False, False)
    assert const(3, -1).classify().is_in_minus_i_plus_z
    assert const(0, 5).classify().is_nonzero_pure_imaginary
    assert const(0, -1).classify().is_in_minus_i_plus_z  # m = 0
    assert not (Y - I).classify().is_constant  # not constant, so not in -i+Z


def test_ring_axioms_randomized():
    rng = Random(20240917)
    for _ in range(1000):
        a, b, c = (random_element(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a + (-a) == ZERO


def test_eval_homomorphism_randomized():
    rng = Random(5)
    for _ in range(300):
        a, b = random_element(rng), random_element(rng)
        px = GaussInt(rng.randint(-3, 3), rng.randint(-3, 3))
        py = GaussInt(rng.randint(-3, 3), rng.randint(-3, 3))
        assert (a + b).eval(px, py) == a.eval(px, py) + b.eval(px, py)
        assert (a * b).eval(px, py) == a.eval(px, py) * b.eval(px, py)


def test_eval_at_one_matches_the_power_path():
    # eval(1, 1) sums the coefficients; each x-coefficient evaluated at
    # (0, 1) goes through the power cache, so the two routes are independent.
    rng = Random(9)
    for _ in range(300):
        a = random_element(rng)
        via_powers = sum(
            (c.eval(0, 1) for c in a.coeffs_x().values()), GaussInt(0, 0)
        )
        assert a.eval(1, 1) == via_powers
        assert a.eval(GaussInt(1, 0), 1) == via_powers


def test_coefficient_reconstruction():
    rng = Random(7)
    for _ in range(200):
        p = random_element(rng)
        rebuilt = ZERO
        for j, coeff in p.coeffs_x().items():
            rebuilt = rebuilt + coeff * x_pow(j)
        assert rebuilt == p


def test_exact_div_inverts_mul():
    rng = Random(11)
    for _ in range(200):
        p = random_element(rng)
        d = GaussInt(rng.randint(-5, 5), rng.randint(-5, 5))
        if d.is_zero:
            d = GaussInt(3, -2)
        assert (p * const(d.re, d.im)).exact_div(d) == p


@given(st.integers(0, 2**32), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_unit_and_zero_rules_agree_with_convolution(seed, max_terms):
    rng = Random(seed)
    a = random_element(rng, max_terms=max_terms)
    b = random_element(rng, max_terms=max_terms)
    assert a * b == _convolution(a, b)
    for product in (a * ONE, ONE * a, a * const(1), const(1) * a, a * 1, 1 * a):
        assert product == a
        assert product == _convolution(a, ONE)
    assert a * ZERO == ZERO
    assert ZERO * a == ZERO


def test_unit_rule_shares_the_operand():
    a = RingElem([((1, 2), (3, -4)), ((0, 0), (5, 0))])
    hash(a)
    assert a * ONE is a
    assert ONE * a is a
    assert a * RingElem([((0, 0), (1, 0))]) is a
    assert a * const(1, 0) is a
    # -1 and i are units of the ring but not its identity: a new element
    assert a * const(-1) == -a
    assert a * I == _convolution(a, I)


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        ),
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_hash_equals_follow_equality(terms):
    a = RingElem(terms)
    b = RingElem(list(reversed(terms)))
    assert a == b
    assert hash(a) == hash(b)


def test_canonical_no_zero_terms():
    p = RingElem([((1, 0), (2, 0)), ((1, 0), (-2, 0)), ((0, 0), (0, 0))])
    assert p == ZERO
    assert list(p.terms()) == []


def test_equality_with_plain_numbers():
    assert const(5) == 5
    assert const(0, 1) == GaussInt(0, 1)
    assert ZERO == 0


def test_json_round_trip_and_order():
    p = monomial(10**40, -(3**50), 2, 1) + const(-1) + x_pow(5)
    data = p.to_json()
    assert [(t["x"], t["y"]) for t in data] == [(0, 0), (2, 1), (5, 0)]
    assert all(isinstance(t["re"], str) for t in data)
    assert RingElem.from_json(json.loads(json.dumps(data))) == p


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE + 2 * X) == "1 + 2*x"
    assert str(I * Y - ONE) == "-1 + i*y"
    assert str(-X) == "-x"


def test_gauss_int_arithmetic():
    assert GaussInt(1, 1) * GaussInt(1, 1) == GaussInt(0, 2)
    assert GaussInt(2, 1) * GaussInt(2, -1) == GaussInt(5, 0)
    assert GaussInt(8, -1).exact_div(GaussInt(2, 1)) == GaussInt(3, -2)
    assert 3 * GaussInt(1, -1) == GaussInt(3, -3)
    assert sum([GaussInt(1, 2), GaussInt(3, 4)]) == GaussInt(4, 6)
