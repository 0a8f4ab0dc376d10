"""The package namespace re-exports the public names of its modules."""

import berndenom
from berndenom import arith, bernoulli, verify

# every name the package exported before it took its list from the modules
EARLIER_EXPORTS = set(
    """
    DEFAULT_BERNOULLI_CAP DEFAULT_K_CAP DenominatorFactorization DigitExpansion
    DigitSumGrowth FORMULA_SIEVE_LIMIT INFINITY PowerScanResult RationalPolynomial
    SUITE_NAMES VERIFY_MAX_N Valuation VerificationReport __version__
    bernoulli_number bernoulli_numbers bernoulli_poly bernoulli_poly_no_constant
    bernoulli_poly_p_part clausen_denominator denom_formula denominator_has_prime
    digit_expansion digit_sum digit_sum_growth ensure_prime frac_sum frac_sum_digit
    frac_sum_direct fracsum_is_integer is_power_of is_prime kummer_carries
    lucas_binom_mod merge_reports ord_binomial ord_factorial ord_int ord_poly
    ord_rational poly_denominator power_scan prime_search_bound primes_up_to
    run_suite stewart_bound verify_binomial_valuations verify_correspondence
    verify_prime_bound verify_squarefree witness_k
    """.split()
)


def test_every_exported_name_resolves_once():
    names = berndenom.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(berndenom, name)
    assert len(EARLIER_EXPORTS) == 51
    assert set(names) == EARLIER_EXPORTS | {"MILLER_RABIN_LIMIT"}


def test_exports_are_the_module_objects():
    # the benchmark's tracer swaps a function wherever it finds the same object
    assert berndenom.frac_sum is arith.frac_sum
    assert berndenom.denom_formula is bernoulli.denom_formula
    assert berndenom.run_suite is verify.run_suite
