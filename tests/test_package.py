"""The package namespace re-exports the public names of its modules, and the
README's library example runs as written."""

import doctest
import re
from pathlib import Path

import berndenom
from berndenom import arith, bernoulli, verify

# every public name the package exports: the names in the __all__ of arith,
# bernoulli and verify, plus __version__
PUBLIC_NAMES = set(
    """
    DEFAULT_BERNOULLI_CAP DEFAULT_K_CAP DenominatorFactorization
    FORMULA_SIEVE_LIMIT MILLER_RABIN_LIMIT PowerScanResult
    RationalPolynomial SUITE_NAMES VERIFY_MAX_N VerificationReport
    __version__ bernoulli_number bernoulli_numbers
    bernoulli_poly_no_constant clausen_denominator denom_formula
    denominator_has_prime digit_sum ensure_prime frac_sum frac_sum_digit
    frac_sum_direct is_power_of is_prime kummer_carries lucas_binom_mod
    ord_binomial ord_factorial ord_poly poly_denominator
    power_scan prime_search_bound primes_up_to run_suite stewart_bound
    verify_binomial_valuations verify_correspondence verify_prime_bound
    verify_squarefree witness_k
    """.split()
)


def test_every_exported_name_resolves_once():
    names = berndenom.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(berndenom, name)
    assert len(PUBLIC_NAMES) == 40
    assert set(names) == PUBLIC_NAMES


def test_exports_are_the_module_objects():
    # the benchmark's tracer swaps a function wherever it finds the same object
    assert berndenom.frac_sum is arith.frac_sum
    assert berndenom.denom_formula is bernoulli.denom_formula
    assert berndenom.run_suite is verify.run_suite


def test_readme_library_example_runs():
    # only the fenced block's body: fed the whole file, doctest would read the
    # closing fence as expected output
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S)
    test = doctest.DocTestParser().get_doctest(block.group(1), {}, "README", str(readme), 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted > 0
    assert result.failed == 0, "".join(report)
