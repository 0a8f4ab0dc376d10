"""Exact denominators of Bernoulli polynomials without constant term.

The denominator of B_n(x) - B_n is squarefree and equals the product of the
primes p whose base-p digit sum of n reaches p; equivalently, p divides it
exactly when the fractional parts of n/p^nu sum to more than 1. This package
computes the denominator both by that digit-sum rule and by brute-force
construction of the polynomial over exact rationals, and ships exhaustive
desk-scale suites that check the two routes and the fractional-part
correspondence against each other.
"""

from . import arith, bernoulli, verify
from .arith import *  # noqa: F403
from .bernoulli import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*arith.__all__, *bernoulli.__all__, *verify.__all__, "__version__"]
