"""Checks of the program's outputs against values the benchmark computes
itself, from the fractional-part side of the paper's equivalence.

Nothing here imports berndenom. Each checker returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt, prod


def sieve(limit: int) -> list[int]:
    """Primes <= limit."""
    if limit < 2:
        return []
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return [i for i, flag in enumerate(flags) if flag]


_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin: bases 2, 3, 5, 7 are proven below
    3,215,031,751 and the first 13 primes below 3.3e24."""
    if m < 2:
        return False
    for p in _SMALL:
        if m % p == 0:
            return m == p
    if m >= 3_317_044_064_679_887_385_961_981:
        raise ValueError(f"{m} is beyond the proven Miller-Rabin range")
    bases = _SMALL[:4] if m < 3_215_031_751 else _SMALL
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def frac_part_sum(n: int, p: int) -> Fraction:
    """Exact sum over nu >= 1 of the fractional part of n / p^nu.

    Terms with p^nu <= n are taken one by one; past that n / p^nu is its own
    fractional part and the remaining terms form a geometric series.
    """
    total = Fraction(0)
    q = p
    while q <= n:
        total += Fraction(n % q, q)
        q *= p
    return total + Fraction(n * p, q * (p - 1))


def denominator_primes(n: int) -> list[int]:
    """Primes p with frac_part_sum(n, p) > 1, found without a sieve to n.

    Primes up to sqrt(n) are tested directly. A prime p > sqrt(n) writes
    n = a*p + b with a <= sqrt(n), and its sum exceeds 1 exactly when
    n/(a+1) < p <= (n+a)/(a+1), an interval with at most one integer; each
    such candidate is confirmed by primality and by its own sum.
    """
    root = isqrt(n)
    found = [p for p in sieve(root) if frac_part_sum(n, p) > 1]
    above = []
    for a in range(1, root + 1):
        c = (n + a) // (a + 1)
        if c * c > n and c * (a + 1) > n and is_prime(c) and frac_part_sum(n, c) > 1:
            above.append(c)
    return found + sorted(above)


def _prime_list_problems(label: str, entry, expected: list[int]) -> list[str]:
    if not isinstance(entry, dict):
        return [f"{label}: missing"]
    primes, product = entry.get("primes"), entry.get("product")
    problems = []
    if not isinstance(primes, list) or any(a >= b for a, b in zip(primes, primes[1:])):
        problems.append(f"{label}: primes not strictly increasing")
    elif primes != expected:
        missing = sorted(set(expected) - set(primes))[:5]
        extra = sorted(set(primes) - set(expected))[:5]
        problems.append(f"{label}: primes differ (missing {missing}, extra {extra})")
    if product != prod(expected):
        problems.append(f"{label}: product is not the product of the expected primes")
    return problems


def check_denom(n: int, method: str, code: int, stdout: str) -> list[str]:
    """Problems with the output of `berndenom denom n --method method`."""
    if code != 0:
        return [f"denom {n}: exit code {code}"]
    try:
        record = json.loads(stdout)
    except ValueError as exc:
        return [f"denom {n}: output is not JSON ({exc})"]
    if record.get("command") != "denom" or record.get("inputs") != {"n": n, "method": method}:
        return [f"denom {n}: wrong command or inputs {record.get('inputs')}"]
    expected = denominator_primes(n)
    result = record.get("result", {})
    methods = ("formula", "oracle") if method == "both" else (method,)
    problems = []
    for name in methods:
        problems += _prime_list_problems(f"denom {n} {name}", result.get(name), expected)
    if method == "both" and result.get("agree") is not True:
        problems.append(f"denom {n}: agree is {result.get('agree')!r}")
    return problems


VALUATION_PRIME_COUNT = 6


def verify_case_counts(max_n: int) -> dict[str, int]:
    """cases_total of each suite of `verify all --max-n max_n`, derived from
    the suite definitions."""
    primes = sieve(2 * max_n)

    def pi(x):
        return sum(1 for p in primes if p <= x)

    bound = 0
    for n in range(1, max_n + 1):
        lam = 2 if n % 2 else 3
        bound += sum(1 for p in primes if lam * p > n + 1)
    return {
        "main": max_n * pi(max_n + 1),
        "bound": bound,
        "squarefree": sum(pi(n + 1) for n in range(1, max_n + 1)),
        "binom": VALUATION_PRIME_COUNT * sum(n + 1 for n in range(max_n + 1)),
    }


def check_verify(max_n: int, code: int, stdout: str) -> list[str]:
    """Problems with the output of `berndenom verify all --max-n max_n`."""
    if code != 0:
        return [f"verify: exit code {code}"]
    try:
        record = json.loads(stdout)
    except ValueError as exc:
        return [f"verify: output is not JSON ({exc})"]
    inputs = record.get("inputs", {})
    if record.get("command") != "verify" or inputs.get("suite") != "all" or inputs.get("max_n") != max_n:
        return [f"verify: wrong command or inputs {inputs}"]
    result = record.get("result", {})
    counts = verify_case_counts(max_n)
    problems = []
    if result.get("passed") is not True:
        problems.append(f"verify: passed is {result.get('passed')!r}")
    suites = result.get("suites", [])
    if [s.get("suite") for s in suites] != list(counts):
        problems.append(f"verify: suites {[s.get('suite') for s in suites]}")
    for suite in suites:
        name = suite.get("suite")
        if suite.get("cases_failed") != 0 or suite.get("failures"):
            problems.append(f"verify {name}: cases_failed {suite.get('cases_failed')}")
        if suite.get("cases_total") != counts.get(name):
            problems.append(
                f"verify {name}: cases_total {suite.get('cases_total')}, expected {counts.get(name)}")
    return problems
