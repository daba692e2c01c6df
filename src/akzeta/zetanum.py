"""Double-precision numerical layer.

Realizes symbol expectations of non-polynomial functions (negative moments)
as sech^2-weighted tensor-product quadrature, provides polylogarithm /
Hurwitz-zeta / polygamma evaluation, the Mellin-integral route to the
Arakawa-Kaneko zeta function zeta_k(s), Barnes zeta cross-checks, and
truncated multiple-zeta sums with conservative tail bounds.

Quadrature scheme: each sech^2 axis is truncated to [-w_cutoff, w_cutoff]
(the weight (pi/2) sech^2(pi w) carries mass 2/(1 + e^{2 pi W}) < 2 e^{-2 pi W}
outside, which is reported as an analytic tail bound) and integrated by
composite Gauss-Legendre panels; refinement doubles the panel count per
w-axis, and convergence is declared when successive refinement levels agree
within the target tolerance.  The outermost unit-interval axis of a negative
moment is integrated in closed form; the inner one at k = 3 uses a fixed
Gauss-Legendre rule.  Summation order is fixed (chunks ascending, compensated
combination), so results are bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Union

import numpy as np

from .exact import bernoulli_numbers

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "ConvergenceError",
    "MzSignature",
    "default_spec",
    "negative_moment",
    "negative_moment_batch",
    "bernoulli_moment_quadrature",
    "polygamma",
    "hurwitz_zeta",
    "polylog",
    "ak_zeta_mellin",
    "ak_zeta_moment",
    "barnes_zeta_mellin",
    "barnes_zeta_sech",
    "mz_truncated",
    "telescoping_check",
    "zeta_star_3_1_double",
]

# Reject denominators whose real part at w = 0 can come this close to zero.
_RE_GUARD = 0.1


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the sech^2 tensor quadrature.

    panels/nodes set the starting composite Gauss-Legendre rule per w-axis
    (per t-axis for the Mellin routes); each refinement level doubles the
    panel count, up to `levels` levels.
    u_nodes sets the fixed Gauss-Legendre rule on the inner unit-interval
    axis of the k = 3 negative moment; the outermost u-axis is integrated in
    closed form, so u_nodes is unused for k <= 2.  The inner u-integrand is
    analytic with comfortable margins, so refining it buys nothing and
    multiplies the tensor cost.
    """

    panels: int = 8
    nodes: int = 32
    levels: int = 3
    tolerance: float = 1e-8
    w_cutoff: float = 6.0
    u_nodes: int = 24

    def __post_init__(self):
        if min(self.panels, self.nodes, self.u_nodes) < 1:
            raise ValueError("panels, nodes and u_nodes must be >= 1")
        if self.levels < 2:
            raise ValueError("need at least 2 levels to declare convergence")
        if not (0 < self.tolerance < 1) or self.w_cutoff <= 0:
            raise ValueError("tolerance must be in (0,1) and w_cutoff positive")


def default_spec(k: int) -> QuadratureSpec:
    """Dimension-aware defaults: the tensor grid must shrink as its 2k-2 axes grow."""
    if k <= 1:
        return QuadratureSpec(panels=8, nodes=32, levels=3, tolerance=1e-9, w_cutoff=7.0)
    if k == 2:
        return QuadratureSpec(panels=8, nodes=32, levels=3, tolerance=1e-8, w_cutoff=5.0)
    return QuadratureSpec(
        panels=2, nodes=20, levels=3, tolerance=1e-6, w_cutoff=3.2, u_nodes=16
    )


@dataclass
class QuadratureResult:
    """A quadrature estimate; the imaginary residue is reported, never dropped."""

    value: float
    imag_residue: float
    convergence_delta: float
    levels_used: int
    tail_bound: float | None = None

    def to_json(self) -> dict:
        out = {
            "value": self.value,
            "imag_residue": self.imag_residue,
            "convergence_delta": self.convergence_delta,
        }
        if self.tail_bound is not None:
            out["tail_bound"] = self.tail_bound
        return out


class ConvergenceError(RuntimeError):
    """Quadrature refinement exhausted without meeting the tolerance."""

    def __init__(self, last_delta: float, levels: int):
        super().__init__(
            f"no convergence after {levels} refinement levels (last delta {last_delta:.3e})"
        )
        self.last_delta = last_delta
        self.levels = levels


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    if nodes not in _GL_CACHE:
        _GL_CACHE[nodes] = np.polynomial.legendre.leggauss(nodes)
    return _GL_CACHE[nodes]


def _panel_axis(a: float, b: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl(nodes)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


def _sech_axis(cutoff: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for (pi/2) sech^2(pi w) dw on [-cutoff, cutoff]."""
    x, w = _panel_axis(-cutoff, cutoff, panels, nodes)
    return x, w * (np.pi / 2) / np.cosh(np.pi * x) ** 2


def _sech_tail_mass(cutoff: float) -> float:
    """Mass of the sech^2 law outside [-cutoff, cutoff], 1 - tanh(pi W) =
    2/(1 + e^{2 pi W}), written with e^{-2 pi W} so that it neither rounds
    to 0 nor overflows for large W."""
    e = math.exp(-2.0 * math.pi * cutoff)
    return 2.0 * e / (1.0 + e)


def _weighted_sum(arr: np.ndarray, weights: Sequence[np.ndarray]) -> complex:
    """Contract a tensor against separable per-axis weight vectors (last axis first)."""
    v = arr
    for wv in reversed(weights):
        v = np.tensordot(v, wv, axes=([-1], [0]))
    return complex(v)


def _fsum_complex(parts: Iterable[complex]) -> complex:
    parts = list(parts)
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))


def _recip_powers(z: np.ndarray, ps: Sequence[int]) -> dict[int, np.ndarray]:
    """z^{-p} for every p in ps (ascending, >= 1), by repeated multiplication."""
    r = 1.0 / z
    out = {}
    cur = r
    last = 1
    for p in ps:
        for _ in range(p - last):
            cur = cur * r
        last = p
        out[p] = cur
    return out


def _antiderivative_sums(z: np.ndarray, ms: Sequence[int], weights: np.ndarray) -> dict:
    """Contract g_m(z) over the last axis against `weights` for every m in ms
    (ascending), where g_m' = z^{-m}: g_m(z) = -z^{1-m}/(m-1) for m >= 2, and
    g_1(z) = log(s z) with s the sign of Re z, which must not vanish:
    log|z| + i arctan(Im z / Re z) is that logarithm, off its branch cut.

    The products run in einsum, not BLAS: at this size multithreaded BLAS
    gains nothing, and its spinning threads doubled the CPU time and slowed
    the kernel on a loaded two-core host."""

    def contract(a: np.ndarray):
        return np.einsum("...a,a->...", a, weights)

    out = {}
    if ms[0] == 1:
        x, y = z.real, z.imag
        out[1] = 0.5 * contract(np.log(x * x + y * y)) + 1j * contract(np.arctan(y / x))
    higher = [m for m in ms if m > 1]
    if higher:
        pw = _recip_powers(z, [m - 1 for m in higher])
        for m in higher:
            out[m] = contract(pw[m - 1]) * (-1.0 / (m - 1))
    return out


# Complex elements per (rows, w-nodes) temporary of the moment kernel (128 KB):
# cache-resident, yet large enough that per-chunk Python overhead is
# negligible; the fastest of 2^10..2^16 for the k = 3 default spec.
_CHUNK = 1 << 13


def _moment_level(
    k: int,
    powers: Sequence[int],
    panels: int,
    spec: QuadratureSpec,
    const: float,
    inner_shift: float,
) -> dict[int, complex]:
    """One refinement level of E[(const + V_k + sum_{l<k} p_l V_l)^{-m}] for
    every m in `powers`, where V_l = (i w_l - 1/2) + inner_shift for l < k,
    V_k = i w_k - 1/2 and p_l = prod_{j=l}^{k-1} u_j.

    For k >= 2 the denominator is linear in the outermost unit variable,
    A + u_{k-1} B with A = const + V_k and B = B_{k-1}, where B_1 = V_1 and
    B_l = V_l + u_{l-1} B_{l-1}; that axis is integrated in closed form,

      int_0^1 (A + uB)^{-m} du = (g_m(A + B) - g_m(A)) / B,

    with g_1(z) = log(s z), g_m(z) = -z^{1-m}/(m-1) and s = sign(const - 1/2),
    the constant sign of Re(A + uB) (the negative_moment guard ensures it;
    telescoping_check has Re >= 1/2).  For inner_shift 0 or 1,
    |Re B| >= 1/2, so the division cancels nothing.  That leaves 2k-2 axes:
    the w_k axis is contracted against its weights by one matrix-vector
    product per chunk, and the other axes (w_1..w_{k-1}, u_1..u_{k-2}) form a
    flat grid walked in chunks of about _CHUNK elements.  Chunks run in
    ascending order and their partial sums are combined with fsum, so the
    result is reproducible bit for bit.
    """
    X, WX = _sech_axis(spec.w_cutoff, panels, spec.nodes)
    C = 1j * X - 0.5
    A = const + C
    ms = sorted(powers)
    if k == 1:
        pw = _recip_powers(A, ms)
        return {m: _weighted_sum(pw[m], [WX]) for m in ms}
    if k > 3:
        raise ValueError(
            "moment quadrature is limited to k <= 3: the tensor grid has 2k-1 "
            "axes and is not tractable beyond that"
        )

    U, WU = _panel_axis(0.0, 1.0, 1, spec.u_nodes)
    V = C + inner_shift
    g_a = _antiderivative_sums(A, ms, WX)
    shape = (len(X),) * (k - 1) + (len(U),) * (k - 2)
    size = math.prod(shape)
    rows = max(1, _CHUNK // len(X))
    partials: dict[int, list[complex]] = {m: [] for m in ms}
    for lo in range(0, size, rows):
        idx = np.unravel_index(np.arange(lo, min(lo + rows, size)), shape)
        B = V[idx[0]]
        wgt = WX[idx[0]]
        for l in range(1, k - 1):
            u = idx[k - 2 + l]
            B = V[idx[l]] + U[u] * B
            wgt = wgt * WX[idx[l]] * WU[u]
        g_ab = _antiderivative_sums(A[None, :] + B[:, None], ms, WX)
        for m in ms:
            partials[m].append(complex(np.dot(wgt, (g_ab[m] - g_a[m]) / B)))
    return {m: _fsum_complex(partials[m]) for m in ms}


def _converge(level_fn, spec: QuadratureSpec, relative: bool = False):
    """Run refinement levels until successive values agree within tolerance,
    times the largest |value| of the level when relative is set.

    level_fn(panels) -> dict of values; the delta is the max over keys.
    """
    prev = None
    delta = math.inf
    for lev in range(spec.levels):
        cur = level_fn(spec.panels << lev)
        if prev is not None:
            delta = max(abs(cur[m] - prev[m]) for m in cur)
            scale = max(map(abs, cur.values())) if relative else 1.0
            if delta < spec.tolerance * scale:
                return cur, delta, lev + 1
        prev = cur
    raise ConvergenceError(delta, spec.levels)


def _mellin_quad(integrand, T: float, tol: float, relative: bool = False) -> float:
    """int_0^T integrand(t) dt on 24-node Gauss-Legendre panels, doubling from
    max(8, T/2) panels for up to 4 levels until two agree within tol/2 (times
    the value when relative is set)."""
    spec = QuadratureSpec(panels=max(8, int(T / 2)), nodes=24, levels=4, tolerance=tol / 2)

    def level(panels: int) -> dict[int, float]:
        t, w = _panel_axis(0.0, T, panels, spec.nodes)
        return {0: float(np.dot(w, integrand(t)))}

    vals, _, _ = _converge(level, spec, relative)
    return vals[0]


def _re_interval(k: int, z: float) -> tuple[float, float]:
    """Range of the denominator's real part at w = 0 over the u-cube."""
    return z - k / 2.0, z - 0.5


def negative_moment_batch(
    k: int, ms: Sequence[int], z: float = 0.0, spec: QuadratureSpec | None = None
) -> dict[int, QuadratureResult]:
    """E[(z + C^{(k)}-kernel)^{-m}] for every m in ms, sharing one tensor sweep.

    The kernel is sum_l (i w_l - 1/2) prod_{j=l}^{k-1} u_j; by the symbolic
    representation of the Arakawa-Kaneko zeta, zeta_k(m) = (-1)^m times the
    m-th result at z = 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ms or any(m < 1 for m in ms):
        raise ValueError("moment orders must be >= 1")
    spec = spec or default_spec(k)
    lo, hi = _re_interval(k, z)
    if hi > -_RE_GUARD and lo < _RE_GUARD:
        raise ValueError(
            f"z = {z} puts the denominator's real part within {_RE_GUARD} of zero "
            f"(interval [{lo}, {hi}]); the integrand is singular or near-singular"
        )
    min_abs_re = min(abs(lo), abs(hi))
    vals, delta, levels = _converge(
        lambda panels: _moment_level(k, ms, panels, spec, const=z, inner_shift=0.0),
        spec,
    )
    tail = k * _sech_tail_mass(spec.w_cutoff)
    out = {}
    for m in ms:
        v = vals[m]
        out[m] = QuadratureResult(
            value=v.real,
            imag_residue=abs(v.imag),
            convergence_delta=delta,
            levels_used=levels,
            tail_bound=tail * min_abs_re ** (-m),
        )
    return out


def negative_moment(
    k: int, m: int, z: float = 0.0, spec: QuadratureSpec | None = None
) -> QuadratureResult:
    """Negative moment E[(z + C^{(k)})^{-m}] by sech^2-weighted quadrature."""
    return negative_moment_batch(k, [m], z, spec)[m]


def bernoulli_moment_quadrature(n: int, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """(pi/2) int (i w - 1/2)^n sech^2(pi w) dw, which equals B_n exactly.

    Validates that the quadrature realizes symbol expectations; the cutoff
    default is generous because the integrand grows like w^n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    spec = spec or QuadratureSpec(panels=8, nodes=32, levels=3, tolerance=1e-11, w_cutoff=9.0)

    def level(panels: int) -> dict[int, complex]:
        X, W = _sech_axis(spec.w_cutoff, panels, spec.nodes)
        base = 1j * X - 0.5
        cur = np.ones_like(base)
        for _ in range(n):
            cur = cur * base
        return {0: complex(np.dot(W, cur))}

    vals, delta, levels = _converge(level, spec)
    v = vals[0]
    return QuadratureResult(v.real, abs(v.imag), delta, levels)


def telescoping_check(
    k: int, spec: QuadratureSpec | None = None
) -> tuple[QuadratureResult, QuadratureResult]:
    """Two quadrature evaluations of zeta(k+1).

    First: E[1/(1 + B_k-kernel + sum_l p_l (1 + B_l-kernel))], the telescoped
    sum with every inner symbol shifted by one (a realization of
    zeta(2, {1}^{k-1})).  Second: -E[1/C^{(k)}].  Both must agree with
    zeta(k+1); their coincidence is the duality identity.
    """
    if k < 2:
        raise ValueError("telescoping check requires k >= 2")
    spec = spec or default_spec(k)
    vals, delta, levels = _converge(
        lambda panels: _moment_level(k, [1], panels, spec, const=1.0, inner_shift=1.0),
        spec,
    )
    v = vals[1]
    tail = k * _sech_tail_mass(spec.w_cutoff) * 2.0  # |den| >= 1/2 on the shifted kernel
    first = QuadratureResult(v.real, abs(v.imag), delta, levels, tail_bound=tail)
    base = negative_moment(k, 1, 0.0, spec)
    return first, replace(base, value=-base.value)


def zeta_star_3_1_double(spec: QuadratureSpec | None = None) -> QuadratureResult:
    """The weight-(3,1) starred value as a two-dimensional sech^2 integral.

    Integrating the unit-interval variable of E[(B_2 + U_1 B_1)^{-2}] in
    closed form (int_0^1 (A + uB)^{-2} du = 1/(A(A+B))) collapses the triple
    integral to two w-axes.  The moment kernel applies the same reduction, so
    negative_moment(2, 2) is a second implementation of this integral, not an
    independent quadrature of it.
    """
    spec = spec or default_spec(2)

    def level(panels: int) -> dict[int, complex]:
        X, W = _sech_axis(spec.w_cutoff, panels, spec.nodes)
        C = 1j * X - 0.5
        A = C[None, :]
        B = C[:, None]
        vals = 1.0 / (A * (A + B))
        return {0: _weighted_sum(vals, [W, W])}

    vals, delta, levels = _converge(level, spec)
    v = vals[0]
    tail = 2 * _sech_tail_mass(spec.w_cutoff) * 4.0
    return QuadratureResult(v.real, abs(v.imag), delta, levels, tail_bound=tail)


# ---------------------------------------------------------------------------
# scalar special functions


def hurwitz_zeta(s: float, a: float, tol: float = 1e-12) -> float:
    """Hurwitz zeta sum_{n>=0} (a+n)^{-s} for s > 1, a > 0.

    Direct sum to N plus the Euler-Maclaurin tail correction; N is grown until
    the first omitted correction term is below tol.
    """
    if s <= 1:
        raise ValueError("hurwitz_zeta requires s > 1")
    if a <= 0:
        raise ValueError("hurwitz_zeta requires a > 0")
    B = [float(b) for b in bernoulli_numbers(14)]
    N = 16
    for _ in range(40):
        x = a + N
        tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
        rising = s  # s (s+1) ... (s+2j-2)
        powx = x ** (-s - 1.0)
        err = math.inf
        for j in range(1, 7):
            term = B[2 * j] / math.factorial(2 * j) * rising * powx
            tail += term
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            powx /= x * x
            err = abs(B[2 * j + 2] / math.factorial(2 * j + 2) * rising * powx)
            if err < tol / 4:
                break
        if err < tol / 4:
            head = math.fsum((a + n) ** (-s) for n in range(N))
            return head + tail
        N *= 2
    raise ArithmeticError("hurwitz_zeta failed to meet tolerance")


def polygamma(m: int, x: float, tol: float = 1e-12) -> float:
    """Polygamma psi^{(m)}(x) = (-1)^{m+1} m! zeta(m+1, x) for m >= 1, x > 0."""
    if m < 1:
        raise ValueError("polygamma order must be >= 1")
    if x <= 0:
        raise ValueError("polygamma requires x > 0")
    fact = math.factorial(m)
    return (-1) ** (m + 1) * fact * hurwitz_zeta(m + 1, x, tol / fact)


# Li_k(e^mu) below mu = -ln 2 (x <= 1/2) by the direct series, whose terms
# shrink at least like 2^{-n}, so 53 terms reach double precision; above it by
# the log-series, whose terms beyond n = k shrink like (ln 2 / 2 pi)^{n-k}.
_DIRECT_TERMS = 53
_LOG_SERIES_EXTRA_TERMS = 20


def _li_exp(k: int, mu: np.ndarray) -> np.ndarray:
    """Li_k(e^mu) for k >= 2 on an array of mu <= 0.

    Taking the logarithm of the argument keeps full precision near x = 1,
    where callers pass log1p(-y) for x = 1 - y.  For x > 1/2 it sums the
    log-series (D. C. Wood, The Computation of Polylogarithms, 1992)

      Li_k(e^mu) = mu^{k-1}/(k-1)! (H_{k-1} - ln(-mu)) + sum_{n != k-1} zeta(k-n) mu^n/n!,

    with zeta(2..k) from hurwitz_zeta and zeta(-j) = (-1)^j B_{j+1}/(j+1)
    (B_1 = -1/2) from the exact Bernoulli numbers.
    """
    out = np.empty_like(mu)
    lo = mu <= -math.log(2.0)
    x = np.exp(mu[lo])
    acc = np.zeros_like(x)
    for n in range(_DIRECT_TERMS, 0, -1):
        acc = (acc + float(n) ** -k) * x
    out[lo] = acc

    top = k + _LOG_SERIES_EXTRA_TERMS
    bern = bernoulli_numbers(top - k + 1)
    coeffs = []
    for n in range(top + 1):
        if n < k - 1:
            zeta = hurwitz_zeta(k - n, 1.0, 1e-17)  # below half an ulp of zeta >= 1
        elif n == k - 1:
            zeta = math.fsum(1.0 / j for j in range(1, k))  # H_{k-1}
        else:
            j = n - k
            zeta = (-1) ** j * float(bern[j + 1]) / (j + 1)
        coeffs.append(zeta / math.factorial(n))
    m = mu[~lo]
    acc = np.zeros_like(m)
    for c in reversed(coeffs):
        acc = acc * m + c
    # mu^{k-1} ln(-mu) -> 0 as mu -> 0, so Li_k(1) = zeta(k) is the constant term
    log_neg = np.log(-m, out=np.zeros_like(m), where=m < 0)
    out[~lo] = acc - m ** (k - 1) / math.factorial(k - 1) * log_neg
    return out


def polylog(k: int, x: float) -> float:
    """Polylogarithm Li_k(x) for k >= 2 and 0 <= x < 1, to about 1e-15 absolute."""
    if k < 2:
        raise ValueError("polylog weight must be >= 2")
    if not (0.0 <= x < 1.0):
        raise ValueError("polylog argument must lie in [0, 1)")
    if x == 0.0:
        return 0.0
    return float(_li_exp(k, np.array([math.log(x)]))[0])


def _gamma_q(m: int, x: float) -> float:
    """Regularized upper incomplete gamma for integer shape m and x > 0:
    Q(m, x) = e^{-x} sum_{j<m} x^j/j!, each term formed in log space."""
    lx = math.log(x)
    return math.fsum(math.exp(j * lx - x - math.lgamma(j + 1)) for j in range(m))


def _gamma_weight(m: int, t: np.ndarray, rate: float) -> np.ndarray:
    """t^{m-1} e^{-rate t}/(m-1)! for t > 0, formed in log space so that no
    factor overflows at large m or t."""
    return np.exp((m - 1) * np.log(t) - rate * t - math.lgamma(m))


def ak_zeta_mellin(k: int, m: int, tol: float = 1e-8) -> float:
    """zeta_k(m) = (1/(m-1)!) int_0^inf t^{m-1}/(e^t - 1) Li_k(1-e^{-t}) dt.

    k = 1 reduces in closed form: Li_1(1-e^{-t}) = t, so the integral is
    m zeta(m+1).  For k >= 2 the integral is cut at T with the analytic bound
    Li_k <= zeta(k) <= pi^2/6 on the discarded tail, and paneled
    Gauss-Legendre is refined until two levels agree within tol/2.
    Li_k(1-e^{-t}) is evaluated as Li_k(e^mu) with mu = log1p(-e^{-t}).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return m * hurwitz_zeta(m + 1, 1.0, tol / (2 * m))
    zk_bound = math.pi**2 / 6
    T = 20.0
    while zk_bound * _gamma_q(m, T) > tol / 2:
        T *= 1.5
    return _mellin_quad(
        lambda t: _gamma_weight(m, t, 1.0) / -np.expm1(-t) * _li_exp(k, np.log1p(-np.exp(-t))),
        T,
        tol,
    )


def ak_zeta_moment(k: int, m: int, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """zeta_k(m) through the symbolic route: (-1)^m E[(C^{(k)})^{-m}]."""
    base = negative_moment(k, m, 0.0, spec)
    return replace(base, value=(-1) ** m * base.value)


def barnes_zeta_mellin(m: int, w: float, a: Sequence[float], tol: float = 1e-10) -> float:
    """Barnes zeta zeta_k(m, w | a) = (1/Gamma(m)) int_0^inf prod_j
    (1 - e^{-a_j t})^{-1} t^{m-1} e^{-w t} dt, for integer m > k and w > 0,
    to the relative tolerance tol: the value is at least w^{-m}, its first
    term, so the tail is cut where its bound falls below tol/2 times w^{-m},
    and the refinement stops when two levels agree within tol/2 times the
    value."""
    k = len(a)
    if k == 0:
        raise ValueError("parameter list must be nonempty")
    if m <= k:
        raise ValueError("barnes_zeta_mellin requires m > len(a)")
    if w <= 0 or any(ai <= 0 for ai in a):
        raise ValueError("requires w > 0 and all a_j > 0")
    T = max(20.0, 20.0 / w)
    prod_bound = 1.0
    for ai in a:
        prod_bound /= -math.expm1(-ai * T)
    while prod_bound * _gamma_q(m, w * T) > tol / 2:
        T *= 1.5

    def integrand(t: np.ndarray) -> np.ndarray:
        out = _gamma_weight(m, t, w)
        for ai in a:
            out = out / (-np.expm1(-ai * t))
        return out

    return _mellin_quad(integrand, T, tol, relative=True)


def barnes_zeta_sech(
    m: int, w: float, a: Sequence[float], spec: QuadratureSpec | None = None
) -> QuadratureResult:
    """Barnes zeta at the shifted argument, zeta_k(m, w + (1/2) sum a_i | a),
    as the k-dimensional sech^2 integral

      (pi/2)^k Gamma(m-k)/Gamma(m) int prod (1/a_n^2) sech^2(pi u_n / a_n)
                                        (w - i sum u_n)^{-(m-k)} du.

    Requires m - k >= 1 and w > 0; each axis is rescaled by its a_n.
    """
    k = len(a)
    if k == 0:
        raise ValueError("parameter list must be nonempty")
    if m - k < 1:
        raise ValueError("requires m - len(a) >= 1")
    if w <= 0:
        raise ValueError("requires w > 0")
    spec = spec or default_spec(k)
    power = m - k
    pref = math.factorial(m - k - 1) / math.factorial(m - 1)

    def level(panels: int) -> dict[int, complex]:
        axes = []
        for an in a:
            x, wt = _sech_axis(spec.w_cutoff, panels, spec.nodes)
            axes.append((an * x, wt / an))
        dims = k
        den = w + 0j
        for slot, (vals, _) in enumerate(axes):
            shape = [1] * dims
            shape[slot] = len(vals)
            den = den - 1j * vals.reshape(shape)
        r = 1.0 / den
        cur = r
        for _ in range(power - 1):
            cur = cur * r
        return {0: pref * _weighted_sum(cur, [wt for _, wt in axes])}

    vals, delta, levels = _converge(level, spec)
    v = vals[0]
    tail = k * _sech_tail_mass(spec.w_cutoff) * w ** (-power) * pref
    return QuadratureResult(v.real, abs(v.imag), delta, levels, tail_bound=tail)


# ---------------------------------------------------------------------------
# truncated multiple zeta sums


@dataclass(frozen=True)
class MzSignature:
    """Exponent signature (s_1, ..., s_d) of a multiple zeta (starred) value."""

    exponents: tuple[int, ...]
    starred: bool = False

    def __post_init__(self):
        if not self.exponents:
            raise ValueError("signature must be nonempty")
        if any(int(s) != s or s < 1 for s in self.exponents):
            raise ValueError("exponents must be positive integers")
        if self.exponents[0] < 2:
            raise ValueError("admissibility requires s_1 >= 2")

    @property
    def depth(self) -> int:
        return len(self.exponents)


def mz_truncated(
    sig: Union[MzSignature, Sequence[int]], N: int, starred: bool | None = None
) -> tuple[float, float]:
    """Truncated multiple zeta (starred) value with a conservative tail bound.

    The nested sum is evaluated with outer index n_1 <= N by cumulative prefix
    sums, O(depth * N).  Tail bound: with H = H_N and s = s_1, the inner
    (depth-1)-fold sum is at most H_n^{depth-1}, and with H_n <= H + ln(n/N),

        sum_{n>N} n^{-s} (H + ln(n/N))^j
          <= N^{1-s}/(s-1) * sum_i C(j,i) H^{j-i} i!/(s-1)^i
          <= N^{1-s}/(s-1) * (H + 2)^j        (s >= 2),

    so the returned bound is N^{1-s_1}/(s_1 - 1) * (H_N + 2)^{depth-1}.
    The true value lies within value +- bound.
    """
    if isinstance(sig, MzSignature):
        exps = sig.exponents
        star = sig.starred if starred is None else starred
    else:
        exps = tuple(int(s) for s in sig)
        star = bool(starred)
        sig = MzSignature(exps, star)
    if N < 1:
        raise ValueError("N must be >= 1")
    n = np.arange(0, N + 1, dtype=np.float64)
    n[0] = 1.0  # avoid 0^-s; slot 0 is masked below
    cum = None
    for d in range(len(exps) - 1, -1, -1):
        f = n ** (-float(exps[d]))
        f[0] = 0.0
        if cum is not None:
            inner = np.cumsum(cum)
            if star:
                f = f * inner  # indices n_{d+1} <= n_d
            else:
                f = f * np.concatenate(([0.0], inner[:-1]))  # strict <
        cum = f
    value = float(np.sum(cum))
    s1 = exps[0]
    h_n = float(np.sum(1.0 / np.arange(1, N + 1)))
    bound = N ** (1.0 - s1) / (s1 - 1.0) * (h_n + 2.0) ** (len(exps) - 1)
    return value, bound
