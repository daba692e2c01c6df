"""Double-precision numerical layer.

Realizes symbol expectations of non-polynomial functions (negative moments)
as sech^2-weighted tensor-product quadrature, provides polylogarithm /
Hurwitz-zeta / polygamma evaluation, the Mellin-integral route to the
Arakawa-Kaneko zeta function zeta_k(s), Barnes zeta cross-checks, and
truncated multiple-zeta sums with conservative tail bounds.

Quadrature scheme: each sech^2 axis is truncated to [-W, W] and integrated by
composite Gauss-Legendre panels; refinement doubles the panel count per w-axis,
and convergence is declared when successive refinement levels agree within the
target tolerance.  _sech_quadrature is the one place of the cutoff rule: given
the axis count times a bound on the integrand's modulus, it raises W above
w_cutoff so that the bound times the weight's mass outside [-W, W] is at most
half the tolerance, and reports that product as the tail bound.  The
unit-interval axes of a negative moment are integrated in closed form, so only
the k sech^2 axes are summed, and the closed forms are sums of the
antiderivatives G_1(q) = log(s q) and G_j(q) = q^{1-j}/(1-j) at end points
q = A_c + Q_r, with c a node of the last axis.  One kernel (_g_sums) returns,
for each j, the vector over c of sum_r wgt_r G_j(A_c + Q_r), walking the rows
in chunks in O(len(A)) memory; each caller contracts it with its own column
weights.
At k = 3 one end point depends on (w_1, w_2) only through s = w_1 + w_2,
so the square is summed on an s axis with convolution weights, O(n) rows
for n nodes per axis (_moment_level_k3): a level makes O(n^2) evaluations.
Only the k = 3, m = 1 term goes through a complex dilogarithm instead.
The same kernel sums the other multi-axis sech^2 integrals, Barnes zeta
(barnes_zeta_sech) and the weight-(3,1) double integral
(zeta_star_3_1_double).  Results are bit-reproducible, and chunking moves
them by rounding only.

negative_moment_batch and telescoping_check read levels through a memo keyed
by grid (k, panels, nodes, w_cutoff, const, inner_shift): an lru_cache of 128
dicts from power m to value, extended only by the powers a grid lacks.  Each
power is computed apart from the others, so held values are bit-identical to
uncached ones; the memo is thread-safe (racing threads store the same bits).

The settings, result and error types (QuadratureSpec, default_spec,
QuadratureResult, ConvergenceError) live in the numpy-free `quadspec` module
and are re-exported here.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from .exact import bernoulli_numbers
from .quadspec import ConvergenceError, QuadratureResult, QuadratureSpec, default_spec

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "ConvergenceError",
    "default_spec",
    "negative_moment",
    "negative_moment_batch",
    "bernoulli_moment_quadrature",
    "polygamma",
    "hurwitz_zeta",
    "polylog",
    "ak_zeta_mellin",
    "ak_zeta_moment",
    "ZETA_ROUTES",
    "barnes_zeta_mellin",
    "barnes_zeta_sech",
    "mz_truncated",
    "telescoping_check",
    "zeta_star_3_1_double",
]

# Reject denominators whose real part at w = 0 can come this close to zero.
_RE_GUARD = 0.1


# Gauss-Legendre nodes and weights on [-1, 1], made once per node count.
_gl = functools.cache(np.polynomial.legendre.leggauss)


def _panel_axis(a: float, b: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl(nodes)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


def _sech_axis(cutoff: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for (pi/2) sech^2(pi w) dw on [-cutoff, cutoff].
    cosh^2 overflows to inf beyond |w| ~ 113, where the weight is 0 anyway."""
    x, w = _panel_axis(-cutoff, cutoff, panels, nodes)
    with np.errstate(over="ignore"):
        return x, w * (np.pi / 2) / np.cosh(np.pi * x) ** 2


def _fsum_complex(parts: Sequence[complex] | np.ndarray) -> complex:
    """Correctly rounded sum, real and imaginary parts apart: it does not
    depend on how the parts are ordered or grouped into chunks."""
    v = np.asarray(parts, dtype=complex)
    return complex(math.fsum(v.real.tolist()), math.fsum(v.imag.tolist()))


# Complex elements per (rows, columns) temporary of the G-sum kernel (128 KB):
# cache-resident, yet large enough that per-chunk Python overhead is small.
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

    Every level is one call of the G-sum kernel (_g_sums), whose per-column
    sums it contracts with the last axis's weights W.  At k = 1,
    a^{-m} = -m G_{m+1}(a) with a = const + V_1, at the one end point Q = 0.
    For k >= 2 the denominator is linear in the outermost unit variable,
    a + u_{k-1} p with a = const + V_k, and p = V_1 at k = 2 and
    V_2 + u_1 V_1 at k = 3; that axis is integrated in closed form,

      int_0^1 (a + up)^{-m} du = (G_m(a + p) - G_m(a)) / p,

    with G_1(q) = log(s q), G_m(q) = q^{1-m}/(1-m) and s = sign(const - 1/2),
    the constant sign of Re(a + up) (the negative_moment guard ensures it;
    telescoping_check has Re >= 1/2).  For inner_shift 0 or 1,
    |Re V_l| >= 1/2, so no division by p cancels anything.  At k = 2 the
    end points are Q = V_1 with weights W_1/V_1 and Q = 0 with the weight
    -sum_1 W_1/V_1, and the m-th value is sum_c W_c S_m[c].  k = 3
    integrates u_1 in closed form too (_moment_level_k3).
    """
    X, WX = _sech_axis(spec.w_cutoff, panels, spec.nodes)
    C = 1j * X - 0.5
    A = const + C
    ms = sorted(set(powers))
    if k == 1:
        S = _g_sums(A, np.zeros(1), np.ones(1), [m + 1 for m in ms])
        return {m: -m * complex(np.dot(WX, S[m + 1])) for m in ms}
    if k > 3:
        raise ValueError(
            "moment quadrature is limited to k <= 3: beyond that the unit axes "
            "have no closed form here and the tensor grid is not tractable"
        )
    V = C + inner_shift
    if k == 3:
        return _moment_level_k3(ms, A, V, WX, spec, panels, inner_shift)
    wgt = np.append(WX / V, -complex(np.dot(WX, 1.0 / V)))
    S = _g_sums(A, np.append(V, 0.0), wgt, ms)
    return {m: complex(np.dot(WX, S[m])) for m in ms}


def _moment_level_k3(
    ms: Sequence[int], A: np.ndarray, V: np.ndarray, W: np.ndarray,
    spec: QuadratureSpec, panels: int, shift: float,
) -> dict[int, complex]:
    """The k = 3 level: the sum over the w_3 nodes, weighted by W, of the
    integral over (w_1, w_2) in [-c, c]^2 (c = spec.w_cutoff) against
    rho(w_1) rho(w_2), and over u_1, u_2 in [0, 1], of
    (a + u_2 (V_2 + u_1 V_1))^{-m}, with a = A[w_3] and
    rho(w) = (pi/2) sech^2(pi w).  After the u_2 step, the u_1 integral runs
    over p = V_2 + u_1 V_1 from V_2 to V_1 + V_2, with dp = V_1 du_1:

      (1/V_1) [T_m(a, V_1 + V_2) - T_m(a, V_2)],  where
      T_1(a, q) = -Li_2(-q/a)  and, with n = m - 1,
      T_m(a, q) = (1/n) sum_{j=1}^{n} a^{-(n-j+1)} (G_j(a + q) - G_j(a)),

    from (a^{-n} - (a+p)^{-n})/p = sum_j a^{-(n-j+1)} (a+p)^{-j}; both are
    the integral of the u_2 step from p = 0 to q.  Re(a + p) keeps its sign
    on these segments, so neither G_1 nor
    Li_2(-q/a) = -int_0^q log(1 + p/a)/p dp crosses a branch cut.

    The V_2 term does not depend on w_1: it is a sum over the n nodes of
    the w_2 axis, weight -W_2 sum_1 W_1/V_1.  The V_1 + V_2 term depends on
    s = w_1 + w_2 only, through Q = i s - 1 + 2 shift, so the (w_1, w_2)
    square becomes an s axis on [-2c, 2c], with twice the panels of a w axis
    (so s = 0, where the w_1 range turns, is a panel edge), and the weight

      h(s) = int rho(w_1) rho(s - w_1) / V_1 dw_1
             over [max(-c, s - c), min(c, s + c)], with twice the panels too.

    Both end points form one list of O(n) rows Q, so the level makes O(n^2)
    evaluations.  For m = 1 the dilogarithm sums them (T_1(a, 0) = 0); for
    m >= 2 one G-sum kernel call, with a row Q = 0 whose weight makes the
    row weights sum to zero (the G_j(a) terms), gives S_j for every j < max
    m, and the m-th value contracts each S_j with the column weights
    W a^{-(m-j)}/(m-1), summed over j < m.
    """
    n = len(V)
    cutoff, nodes = spec.w_cutoff, spec.nodes
    s, ws = _panel_axis(-2.0 * cutoff, 2.0 * cutoff, 2 * panels, nodes)
    t, wt = _panel_axis(0.0, 1.0, 2 * panels, nodes)
    span = 2.0 * cutoff - np.abs(s)
    start = np.maximum(s, 0.0) - cutoff
    # V_1 = i w_1 + b, and rho rho / V_1 = rho rho (b - i w_1)/(w_1^2 + b^2) in real
    # arithmetic, where an overflowed cosh gives 0 (a complex division gives nan)
    b = shift - 0.5
    h = np.empty(len(s), dtype=complex)
    rows = max(1, _CHUNK // len(t))
    for lo in range(0, len(s), rows):
        w1 = start[lo : lo + rows, None] + span[lo : lo + rows, None] * t
        with np.errstate(over="ignore"):  # rho is 0 where cosh overflows
            g = np.cosh(np.pi * w1) * np.cosh(np.pi * (s[lo : lo + rows, None] - w1))
            g = (np.pi / 2) ** 2 / (g * g * (w1 * w1 + b * b))
        h[lo : lo + rows] = np.einsum("ra,a->r", g, b * wt) - 1j * np.einsum("ra,ra,a->r", g, w1, wt)
    h *= ws * span
    r = complex(np.dot(W, 1.0 / V))
    Q = np.concatenate([1j * s + (2.0 * shift - 1.0), V])
    wgt = np.concatenate([h, -r * W])
    out = {}
    if ms[0] == 1:
        # _li2 holds three more arrays of its argument's size, so it runs on
        # quarter chunks: the level then peaks no higher than the G-sum kernel
        step = max(1, _CHUNK // n // 4)
        parts = []
        for lo in range(0, len(Q), step):
            li = _li2(-Q[lo : lo + step, None] / A)
            parts.append(_fsum_complex(wgt[lo : lo + step] * np.einsum("ra,a->r", li, W)))
        out[1] = -_fsum_complex(parts)
    if ms[-1] > 1:
        S = _g_sums(A, np.append(Q, 0.0), np.append(wgt, -_fsum_complex(wgt)), range(1, ms[-1]))
        ra = 1.0 / A
        for m in ms:
            if m > 1:
                col = sum(ra ** (m - j) * S[j] for j in range(1, m))
                out[m] = complex(np.dot(W, col)) / (m - 1)
    return out


# grid (k, panels, nodes, w_cutoff, const, inner_shift) -> {m: level value}
_level_memo = functools.lru_cache(maxsize=128)(lambda *grid: {})


def _memo_level(k, powers, panels, spec, const, inner_shift) -> dict[int, complex]:
    """_moment_level through the level memo (see the module docstring)."""
    held = _level_memo(k, panels, spec.nodes, spec.w_cutoff, const, inner_shift)
    missing = [m for m in set(powers) if m not in held]
    if missing:
        held.update(_moment_level(k, missing, panels, spec, const, inner_shift))
    return {m: held[m] for m in powers}  # in the caller's order


def _g_sums(
    A: np.ndarray, Q: np.ndarray, wgt: np.ndarray, js: Iterable[int]
) -> dict[int, np.ndarray]:
    """The G-sum kernel: for every j in js, the vector over columns c of

      S_j[c] = sum_r wgt_r G_j(A_c + Q_r),

    G_1(q) = log(s q) = log|q| + i arctan(Im q / Re q), G_j(q) = q^{1-j}/(1-j),
    with s the sign of Re q, which must not vanish.  The rows are walked in
    chunks of about _CHUNK elements; each makes G_1 only if j = 1 is asked
    for, then the powers (a+q)^{-1}, (a+q)^{-2}, ... one at a time in place,
    and adds its weighted row sums to S_j in order.  Memory is O(len(A))
    whatever len(Q) is, and the result is reproducible bit for bit.

    The row sums run in einsum, not BLAS: at this size multithreaded BLAS
    gains nothing, and its spinning threads doubled the CPU time and slowed
    the kernel on a loaded two-core host.  They contract real arrays (a
    complex one through its real view) against Re wgt and Im wgt, and
    log|q| and arg(s q) stay real and contiguous: the log and arctan run
    much slower on the strided parts of a complex array."""
    js = set(js)
    top = max(js)
    cx = np.iscomplexobj(wgt)
    wri = np.ascontiguousarray(wgt).view(float).reshape(-1, 2).T if cx else wgt[None, :]
    # per j, the running row sums of the real view of G_j against Re wgt (and Im wgt)
    acc = {j: np.zeros((len(wri), 2 * len(A))) for j in js}
    rows = max(1, _CHUNK // len(A))
    for lo in range(0, len(Q), rows):
        w = wri[:, lo : lo + rows]
        d = np.empty((w.shape[1], len(A)), dtype=complex)
        d[...] = A  # a + q in place: a broadcasting add would buffer both operands
        d += Q[lo : lo + rows, None]
        if 1 in js:
            x, y = d.real, d.imag
            mag = x * x
            mag += y * y
            np.log(mag, out=mag)  # log |q|^2
            arg = np.divide(y, x)
            np.arctan(arg, out=arg)  # arg(s q), as Re(s q) > 0
            acc[1][:, 0::2] += 0.5 * np.einsum("kr,ra->ka", w, mag)
            acc[1][:, 1::2] += np.einsum("kr,ra->ka", w, arg)
        if top > 1:
            r = np.reciprocal(d, out=d)
            cur = r.copy() if top > 2 else r
            for j in range(2, top + 1):
                if j > 2:
                    cur *= r
                if j in js:
                    acc[j] += np.einsum("kr,ra->ka", w, cur.view(float))
    S = {}
    for j, p in acc.items():
        p = p[:, 0::2] + 1j * p[:, 1::2]  # sum_r Re wgt_r G_j, sum_r Im wgt_r G_j
        S[j] = (p[0] + 1j * p[1] if cx else p[0]) * (1.0 if j == 1 else 1.0 / (1 - j))
    return S


def _converge(
    level_fn, spec: QuadratureSpec, tails: dict | None = None, relative: bool = False
) -> dict:
    """Run refinement levels until successive values agree within tolerance,
    times the largest |value| of the level when relative is set, and return
    the last level's values as QuadratureResults, each with the tail bound
    that `tails` gives for its key (none if tails is None).

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
                tails = tails or {}
                return {
                    m: QuadratureResult(v.real, abs(v.imag), delta, lev + 1, tails.get(m))
                    for m, v in cur.items()
                }
        prev = cur
    raise ConvergenceError(delta, spec.levels)


def _sech_quadrature(level, spec: QuadratureSpec, bounds: dict) -> dict:
    """Refine level(panels, spec) through _converge, W = spec.w_cutoff raised
    to ln(4 max(bounds) / tolerance) / (2 pi) where that is larger.  bounds[key]
    is the axis count times a modulus bound of key's integrand, so its tail bound
    is bounds[key] mass(W), with mass(W) = 2/(1 + e^{2 pi W}) < 2 e^{-2 pi W} the
    sech^2 law's mass outside [-W, W] (written with e^{-2 pi W}: it neither
    overflows nor rounds to 0): at most tolerance / 2 up to log and exp rounding."""
    cutoff = math.log(4.0 * max(bounds.values()) / spec.tolerance) / (2.0 * math.pi)
    if cutoff > spec.w_cutoff:
        spec = replace(spec, w_cutoff=cutoff)
    e = math.exp(-2.0 * math.pi * spec.w_cutoff)
    mass = 2.0 * e / (1.0 + e)
    return _converge(lambda panels: level(panels, spec), spec, {key: b * mass for key, b in bounds.items()})


def _mellin_quad(integrand, T: float, tol: float, tail: float, relative=False) -> QuadratureResult:
    """int_0^T integrand(t) dt on 24-node Gauss-Legendre panels, doubling from
    max(8, T/2) panels for up to 4 levels until two agree within tol/2 (times
    the value when relative is set); `tail` bounds the rest.  The last level's
    N points give N positive terms, so their rounded dot product errs by at
    most N u/(1 - N u) times the value, u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1): N u value is the rounding bound."""
    spec = QuadratureSpec(panels=max(8, int(T / 2)), nodes=24, levels=4, tolerance=tol / 2)

    def level(panels: int) -> dict[int, float]:
        t, w = _panel_axis(0.0, T, panels, spec.nodes)
        return {0: float(np.dot(w, integrand(t)))}

    r = _converge(level, spec, {0: tail}, relative=relative)[0]
    return replace(r, rounding_bound=(spec.panels << (r.levels_used - 1)) * spec.nodes * 2.0**-53 * r.value)


def negative_moment_batch(
    k: int, ms: Sequence[int], z: float = 0.0, spec: QuadratureSpec | None = None
) -> dict[int, QuadratureResult]:
    """E[(z + C^{(k)}-kernel)^{-m}] for every m in ms, sharing one tensor sweep.

    The kernel is sum_l (i w_l - 1/2) prod_{j=l}^{k-1} u_j; by the symbolic
    representation of the Arakawa-Kaneko zeta, zeta_k(m) = (-1)^m times the
    m-th result at z = 0.  Bound: k r^{-m}, r = min |Re denominator|.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ms or any(m < 1 for m in ms):
        raise ValueError("moment orders must be >= 1")
    spec = spec or default_spec(k)
    lo, hi = z - k / 2.0, z - 0.5  # the denominator's real part at w = 0 over the u-cube
    if hi > -_RE_GUARD and lo < _RE_GUARD:
        raise ValueError(
            f"z = {z} puts the denominator's real part within {_RE_GUARD} of zero "
            f"(interval [{lo}, {hi}]); the integrand is singular or near-singular"
        )
    min_abs_re = min(abs(lo), abs(hi))
    return _sech_quadrature(
        lambda panels, spec: _memo_level(k, ms, panels, spec, const=z, inner_shift=0.0),
        spec,
        {m: k * min_abs_re ** (-m) for m in ms},
    )


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

    return _converge(level, spec)[0]


def telescoping_check(
    k: int, spec: QuadratureSpec | None = None
) -> tuple[QuadratureResult, QuadratureResult]:
    """Two quadrature evaluations of zeta(k+1).

    First: E[1/(1 + B_k-kernel + sum_l p_l (1 + B_l-kernel))], the telescoped
    sum with every inner symbol shifted by one (a realization of
    zeta(2, {1}^{k-1})).  Second: -E[1/C^{(k)}], that is ak_zeta_moment(k, 1).  Both must agree with
    zeta(k+1); their coincidence is the duality identity.
    Bound of the first: 2k, as its denominator is at least 1/2 in modulus.
    """
    if k < 2:
        raise ValueError("telescoping check requires k >= 2")
    first = _sech_quadrature(
        lambda panels, spec: _memo_level(k, [1], panels, spec, const=1.0, inner_shift=1.0),
        spec or default_spec(k),
        {1: 2.0 * k},
    )[1]
    return first, ak_zeta_moment(k, 1, spec)


def zeta_star_3_1_double(spec: QuadratureSpec | None = None) -> QuadratureResult:
    """The weight-(3,1) starred value as a two-dimensional sech^2 integral.

    Integrating the unit-interval variable of E[(B_2 + U_1 B_1)^{-2}] in
    closed form (int_0^1 (A + uB)^{-2} du = 1/(A(A+B))) collapses the triple
    integral to two w-axes.  With (A + B)^{-1} = -G_2(A + B), a level is one
    call of the G-sum kernel (_g_sums), with rows B = C_r weighted by W_r and
    columns A = C_c, whose sums S_2 it contracts with -W_c/C_c.  The moment
    kernel applies the same reduction, so negative_moment(2, 2) is a second implementation of
    this integral, not an independent quadrature of it.
    Bound: 2 axes times 4, as the denominator's real part is in [-1, -1/2].
    """

    def level(panels: int, spec: QuadratureSpec) -> dict[int, complex]:
        X, W = _sech_axis(spec.w_cutoff, panels, spec.nodes)
        C = 1j * X - 0.5
        return {0: complex(np.dot(-W / C, _g_sums(C, C, W, [2])[2]))}

    return _sech_quadrature(level, spec or default_spec(2), {0: 8.0})[0]


# ---------------------------------------------------------------------------
# scalar special functions


def hurwitz_zeta(s: float, a: float, tol: float = 1e-12) -> float:
    """Hurwitz zeta sum_{n>=0} (a+n)^{-s} for s > 1, a > 0.

    Direct sum to N plus the Euler-Maclaurin tail correction; N doubles from 16
    until the first omitted correction term is below tol, or past 2^20 raises
    ConvergenceError.
    """
    head, tail, _ = _hurwitz_parts(s, a, tol)
    return head + tail


def _hurwitz_parts(s: float, a: float, tol: float) -> tuple[float, float, float]:
    """hurwitz_zeta's direct sum `head` and Euler-Maclaurin `tail`, and a
    bound on the rounding of head + tail in units u = 2^-53, a pow counting
    2 ulp (4 u): a head term (a+n)^{-s} errs by (s + 4) u and the fsum by u,
    so the head by (s + 5) u head; the j-th tail term errs by at most
    (s + 9 + 8(j-1)) u <= (s + 49) u and the tail's 7 additions by 7 u,
    each times `size`, the sum of the terms' magnitudes; head + tail rounds
    once more."""
    if s <= 1:
        raise ValueError("hurwitz_zeta requires s > 1")
    if a <= 0:
        raise ValueError("hurwitz_zeta requires a > 0")
    B = [float(b) for b in bernoulli_numbers(14)]
    for N in (16 << d for d in range(17)):  # N = 16, 32, ..., 2^20
        x = a + N
        tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
        size = tail
        rising = s  # s (s+1) ... (s+2j-2)
        powx = x ** (-s - 1.0)
        err = math.inf
        for j in range(1, 7):
            term = B[2 * j] / math.factorial(2 * j) * rising * powx
            tail += term
            size += abs(term)
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            powx /= x * x
            err = abs(B[2 * j + 2] / math.factorial(2 * j + 2) * rising * powx)
            if err < tol / 4:
                break
        if err < tol / 4:
            head = math.fsum((a + n) ** (-s) for n in range(N))
            return head, tail, 2.0**-53 * ((s + 5) * head + (s + 56) * size + abs(head + tail))
    raise ConvergenceError(err, 17)


def polygamma(m: int, x: float, tol: float = 1e-12) -> float:
    """Polygamma psi^{(m)}(x) = (-1)^{m+1} m! zeta(m+1, x) for m >= 1, x > 0;
    raises ConvergenceError where hurwitz_zeta does."""
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
    """zeta_k(m) by the Mellin route, as a float: the value of _zeta_mellin."""
    return _zeta_mellin(k, m, tol).value


def _zeta_mellin(k: int, m: int, tol: float) -> QuadratureResult:
    """zeta_k(m) = (1/(m-1)!) int_0^inf t^{m-1}/(e^t - 1) Li_k(1-e^{-t}) dt.

    k = 1 reduces in closed form: Li_1(1-e^{-t}) = t, so the integral is
    m zeta(m+1), with the tol/2 asked of hurwitz_zeta as its tail bound and
    m times the rounding bound of its head and tail, plus u for the product,
    as its rounding bound.  For
    k >= 2 the integral is cut at T, where the tail bound pi^2/6 Q(m, T)
    (Li_k <= zeta(k) <= pi^2/6) is at most tol/2, and _mellin_quad adds its
    rounding bound.  Li_k(1-e^{-t}) is evaluated as Li_k(e^mu) with
    mu = log1p(-e^{-t}).
    """
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    if k == 1:
        head, tail, rounding = _hurwitz_parts(m + 1, 1.0, tol / (2 * m))
        value = m * (head + tail)
        return QuadratureResult(value, 0.0, 0.0, 0, tol / 2, m * rounding + 2.0**-53 * value)
    T = 20.0
    while (tail := math.pi**2 / 6 * _gamma_q(m, T)) > tol / 2:
        T *= 1.5
    return _mellin_quad(
        lambda t: _gamma_weight(m, t, 1.0) / -np.expm1(-t) * _li_exp(k, np.log1p(-np.exp(-t))), T, tol, tail
    )


def ak_zeta_moment(k: int, m: int, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """zeta_k(m) through the symbolic route: (-1)^m E[(C^{(k)})^{-m}]."""
    base = negative_moment(k, m, 0.0, spec)
    return replace(base, value=(-1) ** m * base.value)


# name -> function of (k, m, spec) giving zeta_k(m) as a QuadratureResult
ZETA_ROUTES = {"mellin": lambda k, m, spec: _zeta_mellin(k, m, spec.tolerance), "moment": ak_zeta_moment}


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
    while (tail := prod_bound * _gamma_q(m, w * T)) > tol / 2:
        T *= 1.5

    def integrand(t: np.ndarray) -> np.ndarray:
        out = _gamma_weight(m, t, w)
        for ai in a:
            out = out / (-np.expm1(-ai * t))
        return out

    return _mellin_quad(integrand, T, tol, tail * first, relative=True).value


def barnes_zeta_sech(
    m: int, w: float, a: Sequence[float], spec: QuadratureSpec | None = None
) -> QuadratureResult:
    """Barnes zeta at the shifted argument, zeta_k(m, w + (1/2) sum a_i | a),
    as the k-dimensional sech^2 integral

      (pi/2)^k Gamma(m-k)/Gamma(m) int prod (1/a_n^2) sech^2(pi u_n / a_n)
                                        (w - i sum u_n)^{-(m-k)} du.

    Requires m - k >= 1 and w > 0; each axis is rescaled by its a_n.  With
    q^{-(m-k)} = (1-j) G_j(q) for j = m - k + 1, a level is one call of the
    G-sum kernel (_g_sums): its rows Q are the sums -i sum_{n<k} a_n u_n over
    the first k - 1 axes, weighted by prod W_n/a_n, and its columns
    A = w - i a_k u_k are the last axis, whose sums S_j it contracts with
    -(m-k) W_k/a_k.  Bound: k w^{-(m-k)} Gamma(m-k)/Gamma(m), |w - i sum u_n| >= w.
    """
    k = len(a)
    if k == 0:
        raise ValueError("parameter list must be nonempty")
    if m - k < 1:
        raise ValueError("requires m - len(a) >= 1")
    if w <= 0:
        raise ValueError("requires w > 0")
    power = m - k
    pref = math.factorial(m - k - 1) / math.factorial(m - 1)

    def level(panels: int, spec: QuadratureSpec) -> dict[int, complex]:
        x, wt = _sech_axis(spec.w_cutoff, panels, spec.nodes)
        Q, wgt = np.zeros(1, dtype=complex), np.ones(1)
        for an in a[:-1]:
            Q = (Q[:, None] - 1j * an * x).ravel()
            wgt = (wgt[:, None] * (wt / an)).ravel()
        S = _g_sums(w - 1j * a[-1] * x, Q, wgt, [power + 1])[power + 1]
        return {0: pref * complex(np.dot(-power / a[-1] * wt, S))}

    return _sech_quadrature(level, spec or default_spec(k), {0: k * w ** (-power) * pref})[0]


# ---------------------------------------------------------------------------
# truncated multiple zeta sums


def mz_truncated(exponents: Sequence[int], N: int, starred: bool = False) -> tuple[float, float]:
    """Truncated multiple zeta (starred) value with a conservative tail bound.

    The nested sum is evaluated with outer index n_1 <= N by cumulative prefix
    sums, O(depth * N).  Tail bound: with H = H_N and s = s_1, the inner
    (depth-1)-fold sum is at most H_n^{depth-1}, and with H_n <= H + ln(n/N),

        sum_{n>N} n^{-s} (H + ln(n/N))^j
          <= N^{1-s}/(s-1) * sum_i C(j,i) H^{j-i} i!/(s-1)^i
          <= N^{1-s}/(s-1) * (H + 2)^j        (s >= 2),

    so the tail bound is N^{1-s_1}/(s_1 - 1) * (H_N + 2)^{depth-1}.  Every
    term reaches the value through depth powers (2 ulp, so 4 u, each,
    u = 2^-53), depth - 1 products, and depth - 1 running sums and one final
    sum of at most N additions each: K <= depth (N + 5) units u in all, on
    positive numbers, so the rounding bound is K u/(1 - K u) times the value
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).  The
    returned bound is their sum: the true value lies within value +- bound.
    """
    exps = tuple(exponents)
    if not exps:
        raise ValueError("signature must be nonempty")
    if any(int(s) != s or s < 1 for s in exps):
        raise ValueError("exponents must be positive integers")
    if exps[0] < 2:
        raise ValueError("admissibility requires s_1 >= 2")
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
            if starred:
                f = f * inner  # indices n_{d+1} <= n_d
            else:
                f = f * np.concatenate(([0.0], inner[:-1]))  # strict <
        cum = f
    value = float(np.sum(cum))
    s1 = exps[0]
    h_n = float(np.sum(1.0 / np.arange(1, N + 1)))
    bound = N ** (1.0 - s1) / (s1 - 1.0) * (h_n + 2.0) ** (len(exps) - 1)
    ku = len(exps) * (N + 5) * 2.0**-53
    return value, bound + ku / (1.0 - ku) * value
