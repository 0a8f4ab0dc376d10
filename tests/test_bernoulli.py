"""Tests for exact Bernoulli tables, polynomials, and the two denominator routes."""

import json
import pickle
import random
import sys
from fractions import Fraction
from math import comb, lcm, prod

import pytest

from berndenom import bernoulli as btable
from berndenom import cli
from berndenom.arith import _ord_abs, digit_sum, frac_sum, primes_up_to
from berndenom.bernoulli import (
    FORMULA_SIEVE_LIMIT,
    DenominatorFactorization,
    RationalPolynomial,
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_poly_no_constant,
    clausen_denominator,
    denom_formula,
    denominator_has_prime,
    ord_poly,
    poly_denominator,
    prime_search_bound,
)
from berndenom.verify import VerificationReport

# Frozen from an independent computer-algebra run (exact rational polynomials,
# lcm of coefficient denominators), n = 1..40.
DENOM_NO_CONST_1_40 = [
    1, 1, 2, 1, 6, 2, 6, 3, 10, 2,
    6, 2, 210, 30, 6, 3, 30, 10, 210, 42,
    330, 30, 30, 30, 546, 42, 14, 2, 30, 2,
    462, 231, 3570, 210, 6, 2, 51870, 2730, 210, 42,
]

# Frozen from the same independent run, with the minus-half convention pinned.
BERNOULLI_0_20 = [
    "1", "-1/2", "1/6", "0", "-1/30", "0", "1/42", "0", "-1/30", "0",
    "5/66", "0", "-691/2730", "0", "7/6", "0", "-3617/510", "0",
    "43867/798", "0", "-174611/330",
]

CLAUSEN_2_40 = {
    2: 6, 4: 30, 6: 42, 8: 30, 10: 66, 12: 2730, 14: 6, 16: 510, 18: 798,
    20: 330, 22: 138, 24: 2730, 26: 6, 28: 870, 30: 14322, 32: 510, 34: 6,
    36: 1919190, 38: 6, 40: 13530,
}


def reference_bernoulli(n_max):
    """B_0 .. B_n_max from the classical recurrence
    sum(C(m+1, k) B_k, k = 0..m) = 0, with O(n^2) Fraction additions."""
    table = [Fraction(1)]
    for m in range(1, n_max + 1):
        total = sum((comb(m + 1, k) * table[k] for k in range(m)), Fraction(0))
        table.append(-total / (m + 1))
    return table


def reset_table():
    btable._BERNOULLI[:] = [Fraction(1)]
    btable._ZIGZAG_ROW[:] = [1]


@pytest.fixture
def fresh_table():
    """Start the memo empty and put back what it held afterwards, so later
    tests see the memo exactly as it was."""
    saved = btable._BERNOULLI[:], btable._ZIGZAG_ROW[:]
    reset_table()
    try:
        yield
    finally:
        btable._BERNOULLI[:], btable._ZIGZAG_ROW[:] = saved


# --- the number table --------------------------------------------------------


def test_bernoulli_table_matches_reference_recurrence(fresh_table):
    assert bernoulli_numbers(200) == reference_bernoulli(200)


def test_table_grown_one_index_at_a_time_matches_bulk(fresh_table):
    stepwise = [bernoulli_number(k) for k in range(301)]
    reset_table()
    assert bernoulli_numbers(300) == stepwise


def test_corrupted_entry_survives_later_extension(fresh_table):
    bernoulli_number(2)
    btable._BERNOULLI[2] = Fraction(1, 7)
    extended = bernoulli_numbers(60)
    assert extended[2] == Fraction(1, 7)
    assert extended[3:] == reference_bernoulli(60)[3:]


def test_bernoulli_numbers_match_frozen_table():
    assert [str(b) for b in bernoulli_numbers(20)] == BERNOULLI_0_20


def test_bernoulli_table_invariants():
    table = bernoulli_numbers(101)
    assert table[0] == 1
    assert table[1] == Fraction(-1, 2)
    for n in range(3, 102, 2):
        assert table[n] == 0
    for n in range(2, 102, 2):
        assert table[n].denominator == clausen_denominator(n)


def test_bernoulli_cap_refuses_large_requests():
    with pytest.raises(ValueError):
        bernoulli_numbers(5001)
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_von_staudt_clausen_integrality():
    for n in range(2, 121, 2):
        total = bernoulli_number(n) + sum(
            Fraction(1, p) for p in primes_up_to(n + 1) if n % (p - 1) == 0
        )
        assert total.denominator == 1


def test_clausen_examples_and_domain():
    assert clausen_denominator(2) == 6
    assert clausen_denominator(4) == 30
    assert clausen_denominator(12) == 2730
    for n, d in CLAUSEN_2_40.items():
        assert clausen_denominator(n) == d
    with pytest.raises(ValueError):
        clausen_denominator(3)
    with pytest.raises(ValueError):
        clausen_denominator(0)


# --- polynomials --------------------------------------------------------------


def _bernoulli_poly_reference(n):
    # sum(C(n,k) B_k x^(n-k), k=0..n), index = power of x
    return tuple(comb(n, n - j) * bernoulli_number(n - j) for j in range(n + 1))


def test_bernoulli_poly_examples():
    assert _bernoulli_poly_reference(0) == (Fraction(1),)
    assert _bernoulli_poly_reference(1) == (Fraction(-1, 2), Fraction(1))
    assert _bernoulli_poly_reference(3) == (
        Fraction(0),
        Fraction(1, 2),
        Fraction(-3, 2),
        Fraction(1),
    )


def test_bernoulli_poly_shape():
    for n in range(41):
        full = _bernoulli_poly_reference(n)
        assert len(full) == n + 1
        assert full[-1] == 1
        if n:
            assert bernoulli_poly_no_constant(n).coeffs[-1] == 1


def test_no_constant_difference_is_n_x_to_the_n_minus_1():
    # f = B_n(x) - B_n has f(0) = 0 and f(x + 1) - f(x) = n x^(n-1); the
    # coefficient of x^i in f(x + 1) is the sum over j of C(j, i) f_j
    for n in range(1, 41):
        f = bernoulli_poly_no_constant(n).coeffs
        assert f[0] == 0
        shifted = [sum(comb(j, i) * f[j] for j in range(i, n + 1)) for i in range(n + 1)]
        difference = [a - b for a, b in zip(shifted, f)]
        assert difference == [n if i == n - 1 else 0 for i in range(n + 1)]


def test_no_constant_examples():
    assert bernoulli_poly_no_constant(1).coeffs == (Fraction(0), Fraction(1))
    assert bernoulli_poly_no_constant(2).coeffs == (
        Fraction(0),
        Fraction(-1),
        Fraction(1),
    )
    assert bernoulli_poly_no_constant(4).coeffs == (
        Fraction(0),
        Fraction(0),
        Fraction(1),
        Fraction(-2),
        Fraction(1),
    )
    with pytest.raises(ValueError):
        bernoulli_poly_no_constant(0)


def test_no_constant_drops_exactly_the_constant():
    for n in range(1, 41):
        full = _bernoulli_poly_reference(n)
        bare = bernoulli_poly_no_constant(n)
        assert bare.coeffs[0] == 0
        assert bare.coeffs[1:] == full[1:]
        assert len(bare.coeffs) == n + 1


def test_poly_denominator_examples():
    assert poly_denominator(bernoulli_poly_no_constant(3)) == 2
    assert poly_denominator(bernoulli_poly_no_constant(5)) == 6
    assert poly_denominator(RationalPolynomial(())) == 1


def test_polynomial_denominator_is_the_coefficient_lcm():
    coeffs = (Fraction(1, 4), 0, Fraction(5, 6), Fraction(7, 9), 2)
    f = RationalPolynomial(tuple(Fraction(c) for c in coeffs))
    twin = RationalPolynomial(tuple(Fraction(c) for c in coeffs))
    before = hash(f)
    assert poly_denominator(f) == lcm(4, 1, 6, 9, 1) == 36
    assert f == twin and hash(f) == before == hash(twin)
    assert poly_denominator(f) == 36
    assert poly_denominator(RationalPolynomial(())) == 1
    for n in range(1, 61):
        g = bernoulli_poly_no_constant(n)
        assert poly_denominator(g) == lcm(*(c.denominator for c in g.coeffs))


def test_frozen_records_compare_hash_and_refuse_assignment():
    poly = bernoulli_poly_no_constant(3)
    twin = RationalPolynomial(tuple(poly.coeffs))
    assert poly == twin and hash(poly) == hash(twin)
    assert not hasattr(poly, "__dict__")
    assert repr(poly) == (
        "RationalPolynomial(coeffs=(Fraction(0, 1), Fraction(1, 2), "
        "Fraction(-3, 2), Fraction(1, 1)))"
    )
    factored = denom_formula(9)
    same = DenominatorFactorization(9, (2, 5), 10)
    assert factored == same and hash(factored) == hash(same)
    assert factored != DenominatorFactorization(9, (2, 5), 11)
    assert repr(factored) == "DenominatorFactorization(n=9, primes=(2, 5), product=10)"
    assert pickle.loads(pickle.dumps(factored)) == factored
    report = VerificationReport("main", "demo", 10, [(4, 2, 1, 1)], 0.5)
    assert not hasattr(report, "__dict__")
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
    fields = [(poly, "coeffs"), (factored, "n"), (factored, "primes"), (factored, "product")]
    names = ("suite", "range_checked", "cases_total", "failures", "elapsed")
    fields += [(report, name) for name in names]
    for record, name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert poly.coeffs == twin.coeffs and factored.product == 10
    assert report._fields == names and report.elapsed == 0.5


# --- valuations of polynomials -------------------------------------------------


def test_ord_poly_examples():
    assert ord_poly(bernoulli_poly_no_constant(3), 2) == -1
    for p in primes_up_to(13):
        assert ord_poly(bernoulli_poly_no_constant(2), p) == 0
    with pytest.raises(ValueError, match="zero polynomial"):
        ord_poly(RationalPolynomial(()), 5)


def _ord_poly_reference(f, p):
    # the all-coefficient minimum: every numerator and denominator is read;
    # None for the zero polynomial
    return min(
        (_ord_abs(c.numerator, p) - _ord_abs(c.denominator, p) for c in f.coeffs if c),
        default=None,
    )


def test_ord_poly_matches_the_all_coefficient_minimum():
    for n in range(1, 121):
        f = bernoulli_poly_no_constant(n)
        for p in primes_up_to(n + 3):
            assert ord_poly(f, p) == _ord_poly_reference(f, p)


@pytest.mark.parametrize(
    "coeffs, p, expected",
    [
        # the zero polynomial has no valuation
        ((), 5, pytest.raises(ValueError, match="zero polynomial")),
        ((0, 0, 0), 3, pytest.raises(ValueError, match="zero polynomial")),
        ((Fraction(1, 3), Fraction(2, 9), 5), 3, -2),
        ((0, Fraction(5, 2), Fraction(1, 18), 0, 7), 3, -2),
        ((9, 0, Fraction(27, 2), 18), 3, 2),
        ((0, 25, Fraction(125, 7)), 5, 2),
        ((Fraction(4, 7), 8, 0), 2, 2),
        ((Fraction(4, 7), 3, 0), 2, 0),
        # p in two denominators to different powers: the larger one counts
        ((Fraction(1, 4), Fraction(1, 8)), 2, -3),
        ((Fraction(1, 8), 0, Fraction(3, 4), 5), 2, -3),
        ((Fraction(1, 9), Fraction(2, 3), Fraction(5, 27), Fraction(1, 2)), 3, -3),
        ((Fraction(1, 9), Fraction(2, 3), Fraction(5, 27), Fraction(1, 2)), 2, -1),
        ((Fraction(1, 10), Fraction(7, 250), Fraction(3, 4)), 5, -3),
    ],
)
def test_ord_poly_hand_built(coeffs, p, expected):
    f = RationalPolynomial(tuple(Fraction(c) for c in coeffs))
    if isinstance(expected, int):
        assert ord_poly(f, p) == _ord_poly_reference(f, p) == expected
    else:
        assert _ord_poly_reference(f, p) is None
        with expected:
            ord_poly(f, p)


def _p_part(n, p):
    # the terms C(n,k) B_k x^(n-k) over even k in [2, n-1] with p - 1 dividing
    # k: the only terms of the constant-free polynomial whose coefficients can
    # carry p in the denominator
    coeffs = [0] * (n + 1)
    for k in range(2, n, 2):
        if k % (p - 1) == 0:
            coeffs[n - k] = comb(n, k) * bernoulli_number(k)
    return RationalPolynomial(tuple(Fraction(c) for c in coeffs))


def _ord_half(n, p):
    # ord_p(n/2) for n >= 1, the valuation of the x^(n-1) coefficient
    return _ord_abs(n, p) - _ord_abs(2, p)


def test_poly_valuation_invariants_full_range():
    # one pass over n and p checks: the coefficient-minimum valuation of the
    # constant-free polynomial is min(0, ord(n/2), ord of the p-part); the
    # p-part valuation is -1 exactly when the fractional-part sum exceeds 1;
    # and the overall valuation stays in {-1, 0} (squarefree denominator). A
    # zero p-part has no valuation and leaves the sum at most 1
    for n in range(3, 301):
        bare = bernoulli_poly_no_constant(n)
        for p in primes_up_to(n + 1):
            part = _p_part(n, p)
            v_bare = ord_poly(bare, p)
            if any(part.coeffs):
                v_part = ord_poly(part, p)
                assert v_bare == min(0, _ord_half(n, p), v_part)
                if frac_sum(n, p) > 1:
                    assert v_part == -1
                else:
                    assert v_part >= 0
            else:
                assert v_bare == min(0, _ord_half(n, p))
                assert frac_sum(n, p) <= 1
            assert v_bare == 0 or v_bare == -1


# --- the denominator formula ----------------------------------------------------


def test_denom_formula_examples():
    assert denom_formula(1).product == 1
    assert denom_formula(3).primes == (2,)
    assert denom_formula(3).product == 2
    assert denom_formula(5).product == 6
    assert denom_formula(9).primes == (2, 5)
    assert denom_formula(9).product == 10
    with pytest.raises(ValueError):
        denom_formula(0)


def test_denom_formula_refuses_oversized_sieve():
    # refused before the sieve is allocated: 10^12 would need about 333 GB
    with pytest.raises(ValueError, match="sieve"):
        denom_formula(10**12)
    # the least odd n whose search bound (n+1)/2 passes the limit
    with pytest.raises(ValueError, match="sieve"):
        denom_formula(2 * FORMULA_SIEVE_LIMIT + 1)


def test_denom_formula_matches_frozen_oracle():
    for n, expected in enumerate(DENOM_NO_CONST_1_40, start=1):
        assert denom_formula(n).product == expected


def test_brute_force_matches_frozen_oracle():
    for n, expected in enumerate(DENOM_NO_CONST_1_40, start=1):
        assert poly_denominator(bernoulli_poly_no_constant(n)) == expected


def test_reduced_denominator_kernel_is_the_polynomial_lcm(monkeypatch):
    # the oracle reads the polynomial's content off the reduced Bernoulli
    # numbers; pinned against the built polynomial (numerator gcd 1, since
    # the x^n coefficient is 1, and its lcm), with the formula route's digit
    # sums and the von Staudt-Clausen product unreachable
    def refuse(*args):
        raise AssertionError("the oracle route must not use the formula route")

    monkeypatch.setattr(btable, "digit_sum", refuse)
    monkeypatch.setattr(btable, "clausen_denominator", refuse)
    for n in [*range(1, 601), 997, 1000]:
        expected = poly_denominator(bernoulli_poly_no_constant(n))
        assert btable._content_no_constant(n) == (1, expected), n
    with pytest.raises(ValueError, match="n must be >= 1"):
        btable._content_no_constant(0)
    with pytest.raises(ValueError, match="cap"):
        btable._content_no_constant(btable.DEFAULT_BERNOULLI_CAP + 1)


def test_search_bound_is_lossless():
    # widening the prime search beyond (n+1)/lambda_n to every p <= n must
    # change nothing (any p > n has digit sum n < p and never qualifies)
    for n in range(1, 121):
        narrow = denom_formula(n)
        wide = tuple(p for p in primes_up_to(n) if digit_sum(n, p) >= p)
        assert narrow.primes == wide
        assert all(p <= prime_search_bound(n) for p in narrow.primes)


def _full_sieve_primes(n, primes):
    # every prime up to n, with its base-p digit sum taken here
    qualifying = []
    for p in primes:
        if p > n:
            break
        total, m = 0, n
        while m:
            m, d = divmod(m, p)
            total += d
        if total >= p:
            qualifying.append(p)
    return tuple(qualifying)


def test_seeded_differential_of_the_three_routes():
    # the formula route against a full-sieve digit-sum reference at random n
    # up to 10^5, and both against the oracle (brute-force lcm) up to 600
    rng = random.Random(20170501)
    primes = primes_up_to(10**5)
    for n in rng.sample(range(1, 10**5 + 1), 200):
        assert denom_formula(n).primes == _full_sieve_primes(n, primes), n
    for n in rng.sample(range(1, 601), 40):
        fact = denom_formula(n)
        assert fact.primes == _full_sieve_primes(n, primes), n
        assert poly_denominator(bernoulli_poly_no_constant(n)) == fact.product, n


# the formula route's functions, by name: digit sums, Legendre sums and the
# fractional-part sums, Kummer and Lucas, and von Staudt-Clausen; then the
# oracle's, the Bernoulli table and its readers. Only the names that exist are
# looked up, so a function that leaves the package may stay listed
FORMULA_FUNCTIONS = (
    "digit_sum", "_legendre", "ord_factorial", "frac_sum", "frac_sum_digit",
    "frac_sum_direct", "witness_k", "clausen_denominator", "denominator_has_prime",
    "kummer_carries", "lucas_binom_mod", "ord_binomial", "denom_formula",
    "prime_search_bound",
)
TABLE_FUNCTIONS = (
    "_extend_bernoulli", "bernoulli_number", "bernoulli_numbers",
    "bernoulli_poly_no_constant", "_content_no_constant", "poly_denominator", "ord_poly",
)


def _refuse(names):
    """Make every attribute of the package's modules that holds one of the
    named functions raise when called; returns the (module, attribute,
    function) triples to put back."""
    modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "berndenom"]
    functions = [getattr(m, name) for m in modules for name in names if hasattr(m, name)]
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if any(value is f for f in functions):

                def refused(*args, _where=f"{module.__name__}.{attr}", **kwargs):
                    raise AssertionError(f"{_where} called")

                setattr(module, attr, refused)
                patched.append((module, attr, value))
    return patched


def test_the_two_routes_share_no_function(fresh_table, capsys):
    # the oracle builds its table and reads the content with every function
    # of the formula route refused, and the formula route runs with the table
    # and its readers refused; every attribute is put back afterwards
    oracle = {}
    patched = _refuse(FORMULA_FUNCTIONS)
    try:
        assert {attr for _, attr, _ in patched} >= {"digit_sum", "clausen_denominator"}
        for n in (1, 2, 3, 10, 101, 700):
            oracle[n] = btable._content_no_constant(n)[1]
            assert cli.main(["denom", str(n), "--method", "oracle"]) == 0
            assert json.loads(capsys.readouterr().out)["result"]["oracle"]["product"] == oracle[n]
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
    assert len(btable._BERNOULLI) == 701
    expected = {n: oracle[n] for n in (1, 10, 700)}
    expected[10**6] = prod(_full_sieve_primes(10**6, primes_up_to(10**6)))
    table = btable._BERNOULLI, btable._ZIGZAG_ROW
    patched = _refuse(TABLE_FUNCTIONS)
    btable._BERNOULLI = btable._ZIGZAG_ROW = None
    try:
        assert {attr for _, attr, _ in patched} >= {"_extend_bernoulli", "_content_no_constant"}
        for n, product in expected.items():
            assert denom_formula(n).product == product, n
    finally:
        btable._BERNOULLI, btable._ZIGZAG_ROW = table
        for module, attr, value in patched:
            setattr(module, attr, value)


def test_prime_search_bound():
    assert prime_search_bound(9) == 5
    assert prime_search_bound(8) == 3
    with pytest.raises(ValueError):
        prime_search_bound(0)


def test_denominator_has_prime_matches_formula():
    for n in range(1, 201):
        members = set(denom_formula(n).primes)
        for p in (2, 3, 5, 7, 11, 13):
            assert denominator_has_prime(n, p) == (p in members)
    with pytest.raises(ValueError):
        denominator_has_prime(10, 4)
    with pytest.raises(ValueError):
        denominator_has_prime(0, 2)
