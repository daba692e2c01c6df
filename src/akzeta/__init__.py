"""akzeta: exact poly-Bernoulli polynomials through a symbolic moment
calculus, with numerical evaluation of the Arakawa-Kaneko zeta function.

Layers:
  exact          rationals, polynomials, integer EGF composition and
                 division, Bernoulli / Stirling / binomial generators
  umbral         sparse symbol algebra and the moment-evaluation functional
  polybernoulli  three independent routes to B_n^{(k)}(z) and C_n^{(k)}(z),
                 Bernoulli-Barnes transforms on the cube and the simplex
  quadspec       quadrature settings, result and error types (no numpy)
  zetanum        sech^2 quadrature for negative moments, polylog / Hurwitz /
                 polygamma, Mellin and Barnes zeta routes, multiple zeta sums;
                 it alone imports numpy, and loads on first use: for the
                 `zeta` and `mzv` commands and the zeta checks of `verify`
  verify         the identity suite as executable checks with a report
  cli            `akzeta` command-line interface
"""
from .exact import (
    ZPolynomial,
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_polynomial,
    binomial,
    stirling2,
)
from .umbral import (
    ExpansionCapError,
    Symbol,
    UmbralExpression,
    Z,
    bernoulli_symbol,
    c_symbol,
    expr_power,
    poly_symbol,
    uniform_symbol,
)
from .polybernoulli import (
    BarnesParameters,
    BarnesPolynomial,
    PolyBernoulliTable,
    barnes_transform_cube,
    bc_convert,
    bernoulli_barnes,
    poly_bernoulli_series,
    poly_bernoulli_stirling,
    poly_bernoulli_umbral,
    simplex_transform,
)
from .quadspec import ConvergenceError, QuadratureResult, QuadratureSpec, default_spec
from .verify import VerifyConfig, VerificationReport, run_all

__version__ = "0.1.0"

# The numeric routes load numpy with zetanum, on first use (PEP 562), so
# the exact commands never import it.
_ZETANUM_NAMES = (
    "MzSignature",
    "ak_zeta_mellin",
    "ak_zeta_moment",
    "barnes_zeta_mellin",
    "barnes_zeta_sech",
    "hurwitz_zeta",
    "mz_truncated",
    "negative_moment",
    "polygamma",
    "polylog",
    "telescoping_check",
)


def __getattr__(name):
    if name in _ZETANUM_NAMES:
        from . import zetanum

        return getattr(zetanum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
