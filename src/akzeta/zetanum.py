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
within the target tolerance.  The unit-interval axes of a negative moment
are integrated in closed form (at k = 3 through a complex dilogarithm), so
only the k sech^2 axes are summed.  Summation order is fixed (chunks
ascending, compensated combination), so results are bit-reproducible.

The settings, result and error types (QuadratureSpec, default_spec,
QuadratureResult, ConvergenceError) live in the numpy-free `quadspec` module
and are re-exported here.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .exact import bernoulli_numbers
from .quadspec import ConvergenceError, QuadratureResult, QuadratureSpec, default_spec

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


def _fsum_complex(parts: Sequence[complex] | np.ndarray) -> complex:
    """Correctly rounded sum, real and imaginary parts apart: it does not
    depend on how the parts are ordered or grouped into chunks."""
    v = np.asarray(parts, dtype=complex)
    return complex(math.fsum(v.real.tolist()), math.fsum(v.imag.tolist()))


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
    a + u_{k-1} p with a = const + V_k, and p = V_1 at k = 2 and
    V_2 + u_1 V_1 at k = 3; that axis is integrated in closed form,

      int_0^1 (a + up)^{-m} du = (g_m(a + p) - g_m(a)) / p,

    with g_1(z) = log(s z), g_m(z) = -z^{1-m}/(m-1) and s = sign(const - 1/2),
    the constant sign of Re(a + up) (the negative_moment guard ensures it;
    telescoping_check has Re >= 1/2).  For inner_shift 0 or 1,
    |Re V_l| >= 1/2, so no division by p cancels anything.  At k = 2 the
    w_2 axis is contracted against its weights by one matrix-vector product
    per chunk of w_1 rows; k = 3 integrates u_1 in closed form too
    (_moment_level_k3).  Chunks run in ascending order and their partial
    sums are combined with fsum, so the result is reproducible bit for bit.
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
            "moment quadrature is limited to k <= 3: beyond that the unit axes "
            "have no closed form here and the tensor grid is not tractable"
        )
    V = C + inner_shift
    if k == 3:
        return _moment_level_k3(ms, A, V, WX)
    g_a = _antiderivative_sums(A, ms, WX)
    rows = max(1, _CHUNK // len(X))
    partials: dict[int, list[complex]] = {m: [] for m in ms}
    for lo in range(0, len(X), rows):
        B = V[lo : lo + rows]
        g_ab = _antiderivative_sums(A[None, :] + B[:, None], ms, WX)
        for m in ms:
            partials[m].append(complex(np.dot(WX[lo : lo + rows], (g_ab[m] - g_a[m]) / B)))
    return {m: _fsum_complex(partials[m]) for m in ms}


def _moment_level_k3(
    ms: Sequence[int], A: np.ndarray, V: np.ndarray, W: np.ndarray
) -> dict[int, complex]:
    """The k = 3 level: sum over (w_1, w_2, w_3) of W_1 W_2 W_3 times the
    double integral over u_1, u_2 of (a + u_2 (V_2 + u_1 V_1))^{-m}, with
    a = A[w_3].  After the u_2 step, the u_1 integral runs over
    p = V_2 + u_1 V_1 from V_2 to V_1 + V_2, with dp = V_1 du_1:

      (1/V_1) [T_m(a, V_1 + V_2) - T_m(a, V_2)],  where
      T_1(a, q) = -Li_2(-q/a)  and, with n = m - 1,
      T_m(a, q) = (1/n) sum_{j=1}^{n} a^{-(n-j+1)} G_j(a + q),
      G_1(q) = log(s q),  G_j(q) = q^{1-j}/(1-j),

    from (a^{-n} - (a+p)^{-n})/p = sum_j a^{-(n-j+1)} (a+p)^{-j}.  Re(s(a+p))
    keeps its sign along the segment, so neither log(s q) nor
    Li_2(-q/a) = -int_0^q log(1 + p/a)/p dp crosses a branch cut.  The
    V_2-endpoint term does not depend on w_1, so it is a (w_2, w_3) sum times
    sum_1 W_1/V_1; the (V_1 + V_2)-endpoint term depends on w_1 + w_2 only,
    so it is summed over unordered pairs {w_1, w_2} with weight
    W_1 W_2 (1/V_1 + 1/V_2) (W_1^2/V_1 on the diagonal).
    """
    n = len(V)
    rv = 1.0 / V
    pair_sum = np.concatenate([V[i] + V[i:] for i in range(n)])
    pair_wgt = np.concatenate([W[i] * W[i:] * (rv[i] + rv[i:]) for i in range(n)])
    diagonal = np.concatenate(([0], np.cumsum(np.arange(n, 1, -1))))  # row starts
    pair_wgt[diagonal] *= 0.5
    pairs = _endpoint_sums(ms, A, W, pair_sum, pair_wgt)
    single = _endpoint_sums(ms, A, W, V, W)
    r = complex(np.dot(W, rv))
    return {m: pairs[m] - r * single[m] for m in ms}


def _endpoint_sums(
    ms: Sequence[int], A: np.ndarray, W: np.ndarray, Q: np.ndarray, wgt: np.ndarray
) -> dict[int, complex]:
    """sum_r wgt_r sum_c W_c T_m(A_c, Q_r) for every m in ms (see
    _moment_level_k3), walked in chunks of Q rows.  The factors a^{-(m-j)}/n
    and 1/(1-j) depend on the w_3 column only, so they are folded into one
    column-weight matrix per j: each chunk makes G_1 and then the powers
    (a+q)^{-1}, (a+q)^{-2}, ... one at a time in place."""
    higher = [m for m in ms if m > 1]
    top = ms[-1] - 1
    pw = _recip_powers(A, range(1, top + 1)) if top else {}
    mats = []
    for j in range(1, top + 1):
        scale = 1.0 if j == 1 else 1.0 / (1 - j)
        cols = [W * pw[m - j] * (scale / (m - 1)) if m > j else 0 * W for m in higher]
        mats.append(np.stack(cols, axis=1))
    rows = max(1, _CHUNK // len(A))
    out = {}
    if ms[0] == 1:
        # _li2 holds three more arrays of its argument's size, so it runs on
        # quarter chunks: the level then peaks no higher than the m >= 2 loop
        step = max(1, rows // 4)
        parts = []
        for lo in range(0, len(Q), step):
            li = _li2(-Q[lo : lo + step, None] / A)
            parts.append(_fsum_complex(wgt[lo : lo + step] * np.einsum("ra,a->r", li, W)))
        out[1] = -_fsum_complex(parts)
    partials: dict[int, list[complex]] = {m: [] for m in higher}
    for lo in range(0, len(Q) if higher else 0, rows):
        q = Q[lo : lo + rows, None]
        d = np.empty((len(q), len(A)), dtype=complex)
        d[...] = A  # a + q in place: a broadcasting add would buffer both operands
        d += q
        g = np.empty_like(d)
        np.multiply(d.real, d.real, out=g.real)
        np.multiply(d.imag, d.imag, out=g.imag)
        g.real += g.imag
        np.log(g.real, out=g.real)
        g.real *= 0.5
        np.divide(d.imag, d.real, out=g.imag)
        np.arctan(g.imag, out=g.imag)  # arg(s d), as Re(s d) > 0
        acc = np.einsum("ra,ak->rk", g, mats[0])
        del g
        if top > 1:
            r = np.reciprocal(d, out=d)
            cur = r.copy() if top > 2 else r
            for j, mat in enumerate(mats[1:], 2):
                if j > 2:
                    cur *= r
                acc += np.einsum("ra,ak->rk", cur, mat)
        acc *= wgt[lo : lo + rows, None]
        for col, m in enumerate(higher):
            partials[m].append(_fsum_complex(acc[:, col]))
    out.update((m, _fsum_complex(partials[m])) for m in higher)
    return out


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


# Li_2 by the Bernoulli series in u = -log(1 - z), after the maps below have
# brought z into |z| <= 1, Re z <= 1/2, where |u| <= pi/3: the terms beyond
# u - u^2/4 fall like (u/2 pi)^2 per step, so 11 reach double precision.
_LI2_TERMS = 11


@functools.cache
def _li2_coefficients() -> tuple[float, ...]:
    """B_{2j}/(2j+1)! for j = 1.._LI2_TERMS."""
    b = bernoulli_numbers(2 * _LI2_TERMS)
    return tuple(float(b[2 * j] / math.factorial(2 * j + 1)) for j in range(1, _LI2_TERMS + 1))


def _clog(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Principal log of a complex array from a real log and arctan2, several
    times faster than numpy's complex log."""
    if out is None:
        out = np.empty_like(z)
    re = z.real * z.real
    re += z.imag * z.imag
    np.arctan2(z.imag, z.real, out=out.imag)
    np.log(re, out=out.real)
    out.real *= 0.5
    return out


def _li2(x: np.ndarray) -> np.ndarray:
    """Principal-branch dilogarithm Li_2(x) of a complex array, x != 1.

    Inversion for |x| > 1, Li_2(x) = -pi^2/6 - log^2(-x)/2 - Li_2(1/x), then
    reflection for Re y > 1/2, Li_2(y) = pi^2/6 - log(y) log(1-y) - Li_2(1-y),
    leave an argument z for the Bernoulli series

      Li_2(z) = sum_{k>=0} B_k u^{k+1}/(k+1)!,   u = -log(1-z)

    ('t Hooft and Veltman, Nucl. Phys. B153 (1979) 365).  Signed zeros pick
    the side of the cut x > 1: Im x = +0 gives the limit from above.  The
    moment and Mellin routes share no polylogarithm: this one serves the
    k = 3 moment kernel only, _li_exp the Mellin routes.  Besides the result
    it holds two arrays of x's size, and the reflection term on its subset.
    """
    x = np.asarray(x, dtype=complex)
    inv = x.real * x.real + x.imag * x.imag > 1.0
    z = np.divide(1.0, x, out=x.copy(), where=inv)
    refl = z.real > 0.5
    np.subtract(1.0, z, out=z, where=refl)
    u = np.empty_like(z)
    zr, zi, ur, ui = z.real, z.imag, u.real, u.imag
    np.subtract(zr, 2.0, out=ur)
    ur *= zr
    ur += zi * zi
    np.log1p(ur, out=ur)  # log|1 - z|, exact for small z
    ur *= -0.5
    np.subtract(1.0, zr, out=ui)
    np.arctan2(zi, ui, out=ui)  # -arg(1 - z)
    zeta2 = math.pi**2 / 6
    refl_term = zeta2 + u[refl] * _clog(z[refl])  # log(y) = -u
    t = np.multiply(u, u, out=z)
    c = _li2_coefficients()
    out = np.full_like(u, c[-1])
    for cj in c[-2::-1]:
        out *= t
        out += cj
    out *= t
    out += 1.0
    out *= u
    t *= 0.25
    out -= t  # u (1 + t P(t)) - u^2/4
    out[refl] = refl_term - out[refl]
    lx = _clog(np.negative(x, out=t), out=u)  # log(-x)
    lx *= lx
    np.multiply(lx, -0.5, out=t)
    t -= zeta2
    t -= out
    np.copyto(out, t, where=inv)
    return out


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
    try:
        first = w ** -m
    except OverflowError:
        first = math.inf
    if not sys.float_info.min <= first < math.inf:
        # a subnormal value has too few bits for a relative stop to hold
        raise ValueError(
            f"w^-m = {w}^-{m}, the first term of the value, is not a finite "
            "nonzero double at full precision (it overflows, underflows or is "
            "subnormal), so the value is out of double range"
        )
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

    Requires m - k >= 1 and w > 0; each axis is rescaled by its a_n.  The
    first axis is walked in blocks of about _CHUNK // N^{k-1} rows, and the
    blocks' sums are combined with fsum, so no level holds its full tensor.
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
        (first, w_first), rest = axes[0], axes[1:]
        rows = max(1, _CHUNK // math.prod(len(vals) for vals, _ in rest))
        parts = []
        for lo in range(0, len(first), rows):
            den = w - 1j * first[lo : lo + rows].reshape([-1] + [1] * (k - 1))
            for slot, (vals, _) in enumerate(rest, 1):
                shape = [1] * k
                shape[slot] = len(vals)
                den = den - 1j * vals.reshape(shape)
            r = 1.0 / den
            cur = r
            for _ in range(power - 1):
                cur = cur * r
            weights = [w_first[lo : lo + rows]] + [wt for _, wt in rest]
            parts.append(_weighted_sum(cur, weights))
        return {0: pref * _fsum_complex(parts)}

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
