"""Numerical layer: special functions, quadrature realization, zeta routes."""
import functools
import math
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from akzeta.exact import bernoulli_number
from akzeta.zetanum import (
    ConvergenceError,
    QuadratureSpec,
    ak_zeta_mellin,
    ak_zeta_moment,
    barnes_zeta_mellin,
    barnes_zeta_sech,
    bernoulli_moment_quadrature,
    default_spec,
    hurwitz_zeta,
    mz_truncated,
    negative_moment,
    negative_moment_batch,
    polygamma,
    polylog,
    telescoping_check,
    zeta_star_3_1_double,
)
from akzeta import zetanum
from akzeta.quadspec import MAX_NODES
from akzeta.zetanum import _li2, _li_exp, _moment_level, _panel_axis, _sech_axis

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854
ZETA4 = math.pi**4 / 90
ZETA5 = 1.0369277551433699263
ZETA6 = math.pi**6 / 945
ZETA_STAR_4_1 = 3 * ZETA5 - ZETA2 * ZETA3  # = zeta_3(2)
ZETA_STAR_4_1_1 = 89 / 48 * ZETA6 - ZETA3**2 / 2  # = zeta_3(3)


# --- scalar special functions --------------------------------------------------


def test_hurwitz_zeta_values():
    # default tolerance is 1e-12
    assert abs(hurwitz_zeta(2, 1) - ZETA2) < 1e-12
    assert abs(hurwitz_zeta(2, 2) - (ZETA2 - 1)) < 1e-12
    assert abs(hurwitz_zeta(4, 1) - ZETA4) < 1e-12
    # non-integer s: compensated direct sum plus an integral tail estimate
    N = 200000
    direct = math.fsum((0.5 + n) ** -2.5 for n in range(N))
    x = 0.5 + N
    direct += x**-1.5 / 1.5 + 0.5 * x**-2.5
    assert abs(hurwitz_zeta(2.5, 0.5) - direct) < 1e-11
    with pytest.raises(ValueError):
        hurwitz_zeta(0.5, 1)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, -1)


def test_hurwitz_doubling_stops_at_its_cap():
    # 1e-150 would need a head of 4.3e9 terms: past N = 2^20 the sum gives up
    # at once instead of summing for hours; 1e-80 at s = 2 fits below the cap
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        hurwitz_zeta(3, 1.0, 1e-150)
    assert time.perf_counter() - start < 1.0
    assert abs(hurwitz_zeta(2, 1.0, 1e-80) - ZETA2) < 1e-15


def test_polygamma_values():
    assert abs(polygamma(1, 1) - ZETA2) < 1e-12
    assert abs(polygamma(2, 1) + 2 * ZETA3) < 1e-12
    with pytest.raises(ValueError):
        polygamma(0, 1)
    with pytest.raises(ValueError):
        polygamma(1, 0)


def test_polylog_values():
    assert polylog(2, 0.0) == 0.0
    assert abs(polylog(2, 0.5) - (ZETA2 / 2 - math.log(2) ** 2 / 2)) < 1e-10
    assert abs(polylog(2, 0.5) - (ZETA2 / 2 - math.log(2) ** 2 / 2)) < 1e-13
    # direct series cross-check of the log-series branch (x > 1/2)
    direct = math.fsum(0.75**n / n**2 for n in range(1, 400))
    assert abs(polylog(2, 0.75) - direct) < 1e-12
    assert abs(polylog(3, 1 - 1e-8) - 1.2020569) < 1e-6
    with pytest.raises(ValueError):
        polylog(1, 0.5)
    with pytest.raises(ValueError):
        polylog(2, 1.0)
    with pytest.raises(ValueError):
        polylog(2, -0.1)


LI2_POINTS = [
    # |x| <= 1, Re x <= 1/2: the Bernoulli series directly
    0.3 + 0.2j, -0.5 + 0.5j, 1e-3j, 1e-8 - 2e-8j, 0.4 - 0.7j, -0.9 + 0.1j, 0.1 + 0.9j,
    # |x| <= 1, Re x > 1/2: reflection
    0.8 + 0.1j, 0.6 - 0.5j, 0.9 + 0j, 0.99 + 0.01j, 0.7 + 0.7j,
    # |x| > 1: inversion, then reflection when Re(1/x) > 1/2
    3 + 4j, -5 + 0j, -2 + 0.5j, 1.5 + 1j, 0.2 + 3j, 1.2 - 0.3j, -30 - 40j,
    # the two sides of the cut x > 1, and named points
    2 + 1e-9j, 2 - 1e-9j, -1 + 0j, 1j, 0.5 + 0.5j,
]


def test_li2_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    got = _li2(np.array(LI2_POINTS))
    with mpmath.workdps(30):
        for x, g in zip(LI2_POINTS, got):
            ref = complex(mpmath.polylog(2, mpmath.mpc(x.real, x.imag)))
            assert abs(g - ref) <= 1e-15 * abs(ref), (x, g, ref)


def test_li2_closed_forms():
    ln2 = math.log(2.0)
    half, minus_one = _li2(np.array([0.5 + 0j, -1 + 0j]))
    assert abs(half - (ZETA2 / 2 - ln2**2 / 2)) <= 1e-15
    assert abs(minus_one + ZETA2 / 2) <= 1e-15
    # the cut x > 1: Im x = +-0 picks the side, Im Li_2 = +-pi ln x
    above, below = _li2(np.array([complex(2.0, 0.0), complex(2.0, -0.0)]))
    assert abs(above - complex(math.pi**2 / 4, math.pi * ln2)) <= 1e-15
    assert below == above.conjugate()
    xs = np.array(LI2_POINTS)
    assert np.array_equal(_li2(xs.conj()), _li2(xs).conj())


def test_polylog_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    xs = [i / 200 for i in range(200)] + [1 - 10.0**-e for e in range(2, 13)]
    with mpmath.workdps(30):
        for k in (2, 3, 4, 6):
            for x in xs:
                assert abs(polylog(k, x) - float(mpmath.polylog(k, x))) <= 1e-15, (k, x)


# --- quadrature realization ------------------------------------------------------


def test_moment_quadrature_realizes_bernoulli():
    for n in range(9):
        r = bernoulli_moment_quadrature(n)
        exact = float(bernoulli_number(n))
        if exact == 0.0:
            assert abs(r.value) < 1e-12
        else:
            assert abs(r.value - exact) / abs(exact) < 1e-10
        assert r.imag_residue < 1e-9


def test_negative_moment_guard():
    with pytest.raises(ValueError):
        negative_moment(1, 1, 0.5)
    with pytest.raises(ValueError):
        negative_moment(1, 1, 0.45)
    with pytest.raises(ValueError):
        negative_moment(2, 1, 0.75)
    with pytest.raises(ValueError):
        negative_moment(1, 0, 1.0)
    with pytest.raises(ValueError):
        negative_moment(0, 1, 1.0)


def test_negative_moment_polygamma_bridge():
    for m in (1, 2, 3):
        for z in (0.75, 1.0, 2.0):
            r = negative_moment(1, m, z)
            closed = (-1) ** (m - 1) / math.factorial(m - 1) * polygamma(m, z)
            assert abs(r.value - closed) < 1e-8
        r = negative_moment(1, m, 0.25)
        closed = -polygamma(m, 0.75) / math.factorial(m - 1)
        assert abs(r.value - closed) < 1e-8


def test_sech_tail_bound_is_positive():
    # 1 - tanh(pi W) rounds to 0.0 at the k = 1 default W = 7
    W = default_spec(1).w_cutoff
    for m in (1, 2):
        bound = negative_moment(1, m).tail_bound
        assert 0.0 < bound <= 2 * math.exp(-2 * math.pi * W) * 2**m  # min |den| = 1/2


def test_sech_weights_do_not_overflow_at_large_cutoffs():
    # cosh(pi w)^2 overflows beyond |w| ~ 113, where the weight is 0; no
    # overflow warning is raised, and where cosh^2 is finite the weights are
    # the formula's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, w = _sech_axis(1000.0, 2, 8)
        for k in (1, 2, 3):
            spec = replace(default_spec(k), w_cutoff=1000.0)
            level = _moment_level(k, [1, 2], 2, spec, 0.0, 0.0)
            assert all(np.isfinite(v) for v in level.values()), (k, level)
    xs, ws = _panel_axis(-1000.0, 1000.0, 2, 8)
    with np.errstate(over="ignore"):
        c2 = np.cosh(np.pi * xs) ** 2
    finite = np.isfinite(c2)
    assert finite.any() and not finite.all()
    assert np.array_equal(w[finite], ws[finite] * (np.pi / 2) / c2[finite])
    assert (w[~finite] == 0.0).all()


def _moments(k):
    return lambda spec: negative_moment_batch(k, [1, 2, 3], 0.0, spec).values()


@pytest.mark.parametrize("k, tol, integral", [
    pytest.param(1, 1e-12, _moments(1), id="1-1e-12"),
    pytest.param(2, 1e-12, _moments(2), id="2-1e-12"),
    pytest.param(3, 1e-8, _moments(3), id="3-1e-08"),
    # at 1e-14 these cutoffs rise above the floor of 5: to 5.57, 5.68 and 5.18
    pytest.param(2, 1e-14, lambda spec: telescoping_check(2, spec), id="telescoping"),
    pytest.param(2, 1e-14, lambda spec: [zeta_star_3_1_double(spec)], id="zeta_star_3_1"),
    pytest.param(2, 1e-14, lambda spec: [barnes_zeta_sech(4, 1.0, [1.0, 1.0], spec)], id="barnes"),
])
def test_moment_cutoff_covers_the_tail(k, tol, integral):
    # the cutoff is raised until every reported tail bound is at most tol/2
    spec = replace(default_spec(k), tolerance=tol)
    assert all(r.tail_bound <= tol / 2 for r in integral(spec))


def test_sech_quadrature_covers_the_largest_bound():
    # a fake level that records the spec it is given and converges at once
    def mass(W):
        return 2 / (1 + math.exp(2 * math.pi * W))

    for tol, floor_enough in ((1e-8, True), (1e-14, False)):
        seen = []

        def level(panels, spec):
            seen.append(spec)
            return {"a": 1.0 + 0j, "b": 2.0 + 0j}

        spec = QuadratureSpec(tolerance=tol, w_cutoff=6.0)
        bounds = {"a": 1.0, "b": 1e3}
        res = zetanum._sech_quadrature(level, spec, bounds)
        W = 6.0 if floor_enough else math.log(4 * 1e3 / tol) / (2 * math.pi)
        assert (W > 6.0) != floor_enough
        assert [s.w_cutoff for s in seen] == pytest.approx([W, W], rel=1e-15)
        assert [replace(s, w_cutoff=6.0) for s in seen] == [spec, spec]
        for key, b in bounds.items():
            assert res[key].tail_bound == pytest.approx(b * mass(W), rel=1e-12)


def test_negative_moment_zeta_ladder():
    # E[(1+B)^{-m}] = m zeta(m+1)
    for m, target in [(1, ZETA2), (2, 2 * ZETA3), (3, 3 * ZETA4), (4, 4 * ZETA5)]:
        r = negative_moment(1, m, 1.0)
        assert abs(r.value - target) < 1e-8


def test_negative_moment_k2_reference_digits():
    res = negative_moment_batch(2, [1, 2, 3], 0.0)
    assert abs(res[1].value - (-1.20206)) < 5e-6
    assert abs(res[2].value - 1.3529) < 5e-5
    assert abs(res[3].value - (-1.45884)) < 5e-6
    for m in (1, 2, 3):
        assert res[m].levels_used <= 3
        assert res[m].imag_residue < 1e-9
        assert res[m].tail_bound is not None


def test_negative_moment_k2_closed_forms():
    res = negative_moment_batch(2, [1, 2], 0.0)
    assert abs(res[1].value + ZETA3) < 1e-9
    assert abs(res[2].value - math.pi**4 / 72) < 1e-9


def test_k_cap():
    with pytest.raises(ValueError):
        negative_moment(4, 1, 0.0)


def test_convergence_error_carries_delta():
    spec = QuadratureSpec(panels=1, nodes=2, levels=2, tolerance=1e-14, w_cutoff=5.0)
    with pytest.raises(ConvergenceError) as exc:
        negative_moment(1, 1, 1.0, spec)
    assert exc.value.last_delta > 0


def _unit_rule(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _composite_rule(a, b, panels, nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    h = (b - a) / panels
    xs = np.concatenate([a + h * (i + 0.5 * (x + 1.0)) for i in range(panels)])
    return xs, np.tile(0.5 * h * w, panels)


def _rho(w):
    return np.pi / 2 / np.cosh(np.pi * w) ** 2


def _k3_end_point_sum(a, Q, wgt, WA, UL, WUL, m):
    # sum over rows Q (weights wgt) and columns a (weights WA) of the u_2
    # step's integral from p = 0 to p = Q, int_0^1 int_0^1 Q (a + u_2 u_1 Q)^{-m},
    # on 40-node rules in u_1 and u_2
    Q, wgt = Q.ravel(), wgt.ravel()
    total = 0
    for u1, wu1 in zip(UL, WUL):
        den = a[None, :, None] + (u1 * UL)[None, None, :] * Q[:, None, None]
        total += wu1 * np.einsum("rac,r,a,c->", den**-m, wgt * Q, WA, WUL)
    return total


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("const, shift", [(0.0, 0.0), (2.5, 0.0), (-0.7, 0.0), (1.0, 1.0)])
def test_moment_kernel_matches_tensor_sum(k, const, shift):
    # brute-force sums with the kernel's nodes and a 40-node Gauss-Legendre
    # rule on each unit axis, which the kernel integrates in closed form
    spec = QuadratureSpec(panels=2, nodes=6, levels=2, w_cutoff=4.0)
    X, WX = _sech_axis(spec.w_cutoff, spec.panels, spec.nodes)
    C = 1j * X - 0.5
    V = C + shift
    UL, WUL = _unit_rule(40)
    got = _moment_level(k, [1, 2, 3], spec.panels, spec, const, shift)
    # each order alone: the kernel then makes only the G_j that order needs
    alone = {m: _moment_level(k, [m], spec.panels, spec, const, shift)[m] for m in (1, 2, 3)}
    if k == 3:  # the (w_1, w_2) square on the s = w_1 + w_2 axis, w_2 = s - w_1
        W = spec.w_cutoff
        S, WS = _composite_rule(-2 * W, 2 * W, 2 * spec.panels, spec.nodes)
        w1, ws1 = np.array([
            _composite_rule(max(-W, s - W), min(W, s + W), 2 * spec.panels, spec.nodes) for s in S
        ]).transpose(1, 0, 2)
        V1 = 1j * w1 - 0.5 + shift
        V2 = 1j * (S[:, None] - w1) - 0.5 + shift
        omega = WS[:, None] * ws1 * _rho(w1) * _rho(S[:, None] - w1) / V1
    for m in (1, 2, 3):
        if k == 2:  # axes (w_1, w_2, u_1): const + C_2 + u_1 V_1
            den = const + C[None, :, None] + UL[None, None, :] * V[:, None, None]
            ref = np.einsum("abc,a,b,c->", den**-m, WX, WX, WUL)
        else:
            # const + C_3 + u_2 (V_2 + u_1 V_1) integrated over u_1 is
            # (F(V_1 + V_2) - F(V_2))/V_1, F(q) the u_2 step's integral from
            # p = 0 to q: the first term on the (s, w_1) nodes, the second on
            # the (w_1, w_2) tensor nodes
            ref = _k3_end_point_sum(const + C, V1 + V2, omega, WX, UL, WUL, m)
            ref -= _k3_end_point_sum(
                const + C, np.broadcast_to(V, (len(V), len(V))),
                np.outer(WX / V, WX), WX, UL, WUL, m,
            )
        assert abs(got[m] - ref) < 1e-12, (m, got[m], ref)
        assert abs(alone[m] - ref) < 1e-12, (m, alone[m], ref)


def _pair_sum_level_k3(ms, A, V, W):
    # the k = 3 level as it was summed before the s = w_1 + w_2 axis: the
    # V_1 + V_2 end points over the unordered pairs {w_1, w_2} of the tensor
    # nodes, with weight W_1 W_2 (1/V_1 + 1/V_2) (W_1^2/V_1 on the diagonal)
    n = len(V)
    rv = 1.0 / V
    Q = np.concatenate([V[i] + V[i:] for i in range(n)] + [V])
    r = complex(np.dot(W, rv))
    wgt = np.concatenate([W[i] * W[i:] * (rv[i] + rv[i:]) for i in range(n)] + [-r * W])
    wgt[np.concatenate(([0], np.cumsum(np.arange(n, 1, -1))))] *= 0.5
    out = {}
    if ms[0] == 1:
        li = np.concatenate([_li2(-Q[lo : lo + 50, None] / A) @ W for lo in range(0, len(Q), 50)])
        out[1] = -complex(np.dot(wgt, li))
    S = zetanum._g_sums(A, Q, wgt, range(1, ms[-1]))
    for m in ms:
        if m > 1:
            col = sum(A ** (j - m) * S[j] for j in range(1, m))
            out[m] = complex(np.dot(W, col)) / (m - 1)
    return out


@pytest.mark.parametrize("const, shift", [(0.0, 0.0), (2.5, 0.0), (-0.7, 0.0), (1.0, 1.0)])
def test_moment_level_k3_matches_the_pair_sum(const, shift):
    # the s-axis rule and the pair sum are two quadratures of the same
    # truncated square [-W, W]^2; at 8 panels both have converged
    spec = default_spec(3)
    X, WX = _sech_axis(spec.w_cutoff, 8, spec.nodes)
    C = 1j * X - 0.5
    ref = _pair_sum_level_k3([1, 2, 3], const + C, C + shift, WX)
    got = _moment_level(3, [1, 2, 3], 8, spec, const, shift)
    for m in (1, 2, 3):
        assert abs(got[m] - ref[m]) < 1e-13, (m, got[m], ref[m])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_moment_level_chunking_is_invisible(monkeypatch, k):
    # one row of end points per chunk moves every chunk boundary
    spec = default_spec(k)
    for const, shift in ((0.0, 0.0), (1.0, 1.0)):
        ref = _moment_level(k, [1, 2, 3], spec.panels, spec, const, shift)
        with monkeypatch.context() as mp:
            mp.setattr(zetanum, "_CHUNK", 1)
            got = _moment_level(k, [1, 2, 3], spec.panels, spec, const, shift)
        for m in (1, 2, 3):
            assert abs(got[m] - ref[m]) <= 1e-15, (const, m, got[m], ref[m])


@pytest.mark.parametrize("k", [2, 3])
def test_moment_level_memory_stays_chunked(k):
    # a full grid needs 16 MB per complex array at k = 2 with 1024 nodes per
    # axis, and 33 MB over all (w_1, w_2) pairs at k = 3 with 160; the
    # chunked kernel holds about 1.5 MB
    spec = default_spec(k)
    panels = {2: 1024, 3: 160}[k] // spec.nodes
    _moment_level(k, [1, 2, 3], panels, spec, 0.0, 0.0)  # caches filled
    tracemalloc.start()
    try:
        _moment_level(k, [1, 2, 3], panels, spec, 0.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def _g_sums_reference(A, Q, wgt, j):
    # dense sum_r wgt_r G_j(A_c + Q_r) over the full rows x columns grid
    q = A[None, :] + Q[:, None]
    g = np.log(np.sign(q.real) * q) if j == 1 else q ** (1 - j) / (1 - j)
    return (wgt[:, None] * g).sum(axis=0)


@pytest.mark.parametrize("chunk", [None, 20, 1])
@pytest.mark.parametrize("js", [[1], [2, 4], [1, 2, 3]])
@pytest.mark.parametrize("complex_weights", [False, True])
def test_g_sums_matches_dense_reference(monkeypatch, chunk, js, complex_weights):
    rng = np.random.default_rng(7)
    # |Re A| in [1, 2] with both signs, |Re Q| <= 1/2: Re q takes both signs
    # across the grid and stays at least 1/2 away from zero
    A = np.resize([1.0, -1.0], 7) * rng.uniform(1.0, 2.0, 7) + 1j * rng.normal(size=7)
    Q = rng.uniform(-0.5, 0.5, 11) + 1j * rng.normal(size=11)
    wgt = rng.normal(size=11)
    if complex_weights:
        wgt = wgt + 1j * rng.normal(size=11)
    q = A[None, :] + Q[:, None]
    assert (q.real > 0).any() and (q.real < 0).any()
    if chunk is not None:  # 20 // 7 = 2 rows per chunk leaves a ragged last chunk
        monkeypatch.setattr(zetanum, "_CHUNK", chunk)
    got = zetanum._g_sums(A, Q, wgt, js)
    assert sorted(got) == sorted(js)
    for j in js:
        ref = _g_sums_reference(A, Q, wgt, j)
        assert got[j].shape == (len(A),)
        assert np.abs(got[j] - ref).max() <= 1e-13 * np.abs(ref).max(), (j, got[j], ref)


def test_g_sums_memory_does_not_grow_with_rows():
    # a per-row result would hold 200,000 complex values, 3 MB, for each j;
    # the kernel keeps one vector over the 64 columns per j and one chunk
    rng = np.random.default_rng(3)
    A = rng.uniform(1.0, 2.0, 64) + 1j * rng.normal(size=64)
    Q = rng.uniform(-0.5, 0.5, 200_000) + 1j * rng.normal(size=200_000)
    wgt = rng.normal(size=200_000) + 1j * rng.normal(size=200_000)
    zetanum._g_sums(A, Q[:100], wgt[:100], [1, 2, 3])  # caches filled
    tracemalloc.start()
    try:
        zetanum._g_sums(A, Q, wgt, [1, 2, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_each_level_is_one_kernel_call(monkeypatch):
    calls = []
    kernel = zetanum._g_sums

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(zetanum, "_g_sums", counted)
    for k, ms in ((1, [1, 2, 3]), (2, [1, 2, 3]), (3, [2, 3]), (3, [1, 2, 3])):
        spec = default_spec(k)
        calls.clear()
        _moment_level(k, ms, spec.panels, spec, 0.0, 0.0)
        assert len(calls) == 1, (k, ms, len(calls))
    for fn, args in ((barnes_zeta_sech, (5, 0.5, [1.0, 2.0])), (zeta_star_3_1_double, ())):
        calls.clear()
        res = fn(*args)
        assert len(calls) == res.levels_used, (fn.__name__, len(calls), res.levels_used)


def test_negative_moment_k3_closed_forms():
    tol = default_spec(3).tolerance
    res = negative_moment_batch(3, [1, 2, 3], 0.0)
    for m, target in ((1, ZETA4), (2, ZETA_STAR_4_1), (3, ZETA_STAR_4_1_1)):
        assert abs((-1) ** m * res[m].value - target) < tol
        assert res[m].imag_residue < 1e-9


def test_refinement_monotonic_delta():
    # deltas across the last two levels must not increase
    for k, const, nodes in ((1, 1.0, 8), (2, 0.0, 8)):
        spec = QuadratureSpec(
            panels=2, nodes=nodes, levels=4, tolerance=1e-30, w_cutoff=5.0
        )
        deltas = []
        prev = None
        for lev in range(3):
            cur = _moment_level(k, [1], spec.panels << lev, spec, const, 0.0)[1]
            if prev is not None:
                deltas.append(abs(cur - prev))
            prev = cur
        assert deltas[-1] <= deltas[-2]


# --- the zeta routes ---------------------------------------------------------------


def test_ak_zeta_mellin_values():
    assert abs(ak_zeta_mellin(2, 1) - ZETA3) < 1e-5  # printed-digit scale
    assert abs(ak_zeta_mellin(2, 1) - 1.20206) < 5e-6
    assert abs(ak_zeta_mellin(2, 2) - 1.3529) < 5e-5
    assert abs(ak_zeta_mellin(3, 1) - ZETA4) < 1e-8
    assert abs(ak_zeta_mellin(3, 1, 1e-10) - ZETA4) < 1e-10
    # k=1 closed reduction
    assert abs(ak_zeta_mellin(1, 2) - 2 * ZETA3) < 1e-8
    assert abs(ak_zeta_mellin(1, 1) - ZETA2) < 1e-8


def test_two_route_agreement_k2():
    for m in (1, 2, 3):
        mellin = ak_zeta_mellin(2, m)
        moment = ak_zeta_moment(2, m)
        assert abs(mellin - moment.value) < 1e-6


def test_mellin_routes_large_m():
    # t^{m-1} overflows a double from m ~ 132 and (m-1)! from m = 172;
    # zeta_2(m) tends to zeta(2) and zeta(m, 1) to 1
    for m in (140, 180):
        assert abs(ak_zeta_mellin(2, m) - ZETA2) < 1e-8
        assert abs(barnes_zeta_mellin(m, 1.0, [1.0]) - hurwitz_zeta(m, 1.0)) < 1e-10


def test_polylog_endpoint_is_zeta():
    # Li_k(e^0) = zeta(k): the log-series term mu^{k-1} ln(-mu) vanishes at mu = 0
    for k, zeta in ((2, ZETA2), (3, ZETA3), (4, ZETA4), (5, ZETA5), (6, ZETA6)):
        got = _li_exp(k, np.array([0.0, -1e-300]))
        assert np.all(np.abs(got - zeta) <= 1e-15)
    # from m ~ 450 the Mellin cutoff passes t ~ 745, where log1p(-e^{-t}) is 0
    for m in (450, 600):
        assert abs(ak_zeta_mellin(2, m) - ZETA2) < 1e-8


def test_barnes_mellin_values():
    assert abs(barnes_zeta_mellin(2, 1.0, [1.0]) - ZETA2) < 1e-9
    assert abs(barnes_zeta_mellin(2, 0.5, [1.0]) - math.pi**2 / 2) < 1e-9
    # sum over the anti-diagonals: sum_{p,q>=0} (1+p+q)^{-3} = zeta(2)
    assert abs(barnes_zeta_mellin(3, 1.0, [1.0, 1.0]) - ZETA2) < 1e-9
    with pytest.raises(ValueError):
        barnes_zeta_mellin(2, 1.0, [1.0, 1.0])  # needs m > k
    with pytest.raises(ValueError):
        barnes_zeta_mellin(2, -1.0, [1.0])


def test_barnes_mellin_relative_tolerance():
    # at w = 0.5, a = [1, 2] the value is about 2^m, so an absolute 1e-10
    # lies below a double's resolution; cutting the direct double sum at 60
    # leaves a relative error far below 1e-30
    for m in list(range(22, 31)) + [60]:
        direct = math.fsum((0.5 + i + 2 * j) ** -m for i in range(60) for j in range(60))
        assert abs(barnes_zeta_mellin(m, 0.5, [1.0, 2.0]) - direct) <= 1e-10 * direct


def test_barnes_mellin_out_of_double_range():
    # the value is at least its first term w^-m: 1e-400 underflows and
    # 1e400 overflows a double, and the error must say so, without warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, w in ((400, 10.0), (200, 0.01)):
            with pytest.raises(ValueError, match="not a finite nonzero double"):
                barnes_zeta_mellin(m, w, [1.0])
    assert abs(barnes_zeta_mellin(300, 10.0, [1.0]) - 1e-300) <= 1e-10 * 1e-300


def test_barnes_mellin_rejects_subnormal_values():
    # 10^-308 and below are subnormal: too few bits for a relative stop, so
    # the range error comes first, not a ConvergenceError after every level
    for m in (308, 310, 320):
        with pytest.raises(ValueError, match="subnormal"):
            barnes_zeta_mellin(m, 10.0, [1.0])
    assert abs(barnes_zeta_mellin(307, 10.0, [1.0]) - 1e-307) <= 1e-10 * 1e-307


def test_barnes_sech_matches_mellin_at_shifted_argument():
    r1 = barnes_zeta_sech(3, 1.0, [1.0])
    assert abs(r1.value - barnes_zeta_mellin(3, 1.5, [1.0])) < 1e-8
    assert r1.imag_residue < 1e-10
    r2 = barnes_zeta_sech(4, 1.0, [1.0, 1.0])
    assert abs(r2.value - barnes_zeta_mellin(4, 2.0, [1.0, 1.0])) < 1e-6
    assert r2.imag_residue < 1e-10
    with pytest.raises(ValueError):
        barnes_zeta_sech(2, 1.0, [1.0, 1.0])  # m - k < 1


def test_barnes_sech_scaled_axes():
    # zeta_1(3, w + a/2 | a) = sum (w + a/2 + a n)^{-3}
    a = 2.0
    r = barnes_zeta_sech(3, 1.0, [a])
    direct = sum((1.0 + a / 2 + a * n) ** -3.0 for n in range(400000))
    assert abs(r.value - direct) < 1e-7


def test_barnes_sech_chunking_is_invisible(monkeypatch):
    # one G-sum row per chunk moves every chunk boundary
    cases = [
        (barnes_zeta_sech, (m, w, a))
        for m, w, a in ((3, 1.0, [1.0]), (5, 0.5, [1.0, 2.0]), (6, 0.75, [1.0, 1.0, 1.0]))
    ] + [(zeta_star_3_1_double, ())]
    for fn, args in cases:
        ref = fn(*args)
        with monkeypatch.context() as mp:
            mp.setattr(zetanum, "_CHUNK", 1)
            got = fn(*args)
        assert abs(got.value - ref.value) <= 1e-15, (fn.__name__, args, got.value, ref.value)
        assert got.levels_used == ref.levels_used


def test_barnes_sech_memory_stays_chunked():
    # a full 512 x 512 tensor of the last level takes 4 MB per complex array
    for fn, args in ((barnes_zeta_sech, (4, 0.5, [1.0, 1.0])), (zeta_star_3_1_double, ())):
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (fn.__name__, peak)


# --- multiple zeta sums -------------------------------------------------------------


def test_mz_signature_validation():
    for bad in ((1, 2), (), (2, 0), (2.5,)):
        with pytest.raises(ValueError):
            mz_truncated(bad, 10)
    mz_truncated((3, 1), 10, True)  # admissible starred signatures pass


def test_mz_truncated_values():
    val, bound = mz_truncated((3, 1), 3000, True)
    assert abs(val - math.pi**4 / 72) <= bound
    assert bound < 1e-5
    val, bound = mz_truncated((2, 1), 50000, True)
    assert abs(val - 2 * ZETA3) <= bound
    val, bound = mz_truncated((2, 1), 100000, False)
    assert abs(val - ZETA3) <= bound
    val, bound = mz_truncated((2,), 100000, False)
    assert abs(val - ZETA2) <= bound
    val, bound = mz_truncated((2, 1, 1), 100000, False)
    assert abs(val - ZETA4) <= bound
    # the tail bound alone is 4.1e-24 here, below the rounding of the sums
    val, bound = mz_truncated((5, 3), 10**6)
    assert abs(val - 0.03770767298484754401) <= bound < 1e-10


def test_mz_bound_is_conservative():
    # compare the returned bound against the observed tail to a much larger N
    for sig, starred in [((3, 1), True), ((2, 1), False), ((2, 1, 1), False)]:
        v_small, bound = mz_truncated(sig, 2000, starred)
        v_large, _ = mz_truncated(sig, 400000, starred)
        assert abs(v_large - v_small) <= bound


# --- telescoping and the reduced double integral ------------------------------------


def test_telescoping_k2():
    a, b = telescoping_check(2)
    assert abs(a.value - ZETA3) < 1e-6
    assert abs(b.value - ZETA3) < 1e-6
    assert abs(a.value - b.value) < 2e-6
    assert a.imag_residue < 1e-9 and b.imag_residue < 1e-9
    with pytest.raises(ValueError):
        telescoping_check(1)


def test_zeta_star_3_1_double_matches_triple():
    two = zeta_star_3_1_double()
    three = negative_moment(2, 2, 0.0)
    assert abs(two.value - three.value) < 1e-6
    assert abs(two.value - math.pi**4 / 72) < 1e-7


def test_quadrature_result_json():
    r = negative_moment(1, 1, 1.0)
    obj = r.to_json()
    assert set(obj) == {
        "value", "imag_residue", "convergence_delta", "levels_used", "tail_bound", "error_estimate"
    }
    assert obj["error_estimate"] == r.convergence_delta + r.tail_bound
    r2 = bernoulli_moment_quadrature(2)
    assert set(r2.to_json()) == {
        "value", "imag_residue", "convergence_delta", "levels_used", "error_estimate"
    }
    assert r2.to_json()["error_estimate"] == r2.convergence_delta


@functools.cache
def _zeta_reference(k: int, m: int) -> float:
    """zeta_k(m) from mpmath: m zeta(m+1) at k = 1, else the Mellin integral
    at 20 digits (its tail beyond t = 120 is below 1e-47)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        if k == 1:
            return float(m * mpmath.zeta(m + 1))
        f = lambda t: t ** (m - 1) / mpmath.expm1(t) * mpmath.polylog(k, -mpmath.expm1(-t))
        return float(mpmath.quad(f, [0, 1, 10, 40, 120]) / mpmath.factorial(m - 1))


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("route", sorted(zetanum.ZETA_ROUTES))
def test_every_zeta_route_meets_its_error_contract(route, tol):
    # each route either bounds its error within the tolerance or raises
    pytest.importorskip("mpmath")
    for k in (1, 2, 3):
        spec = replace(default_spec(k), tolerance=tol)
        for m in (1, 2, 3):
            try:
                r = zetanum.ZETA_ROUTES[route](k, m, spec)
            except ConvergenceError:
                continue
            err = abs(r.value - _zeta_reference(k, m))
            assert err <= r.error_estimate <= tol, (k, m, err, r)


def test_mellin_estimate_covers_the_rounding_of_its_sum():
    # the refinement delta and the tail alone are 5.0e-17 here, and the value
    # is 3.0e-16 from zeta*(3,1,1); the rounding bound covers it
    pytest.importorskip("mpmath")
    r = zetanum.ZETA_ROUTES["mellin"](2, 3, QuadratureSpec(tolerance=1e-10))
    err = abs(r.value - _zeta_reference(2, 3))
    assert r.convergence_delta + r.tail_bound < err <= r.error_estimate


def test_mellin_k1_estimate_covers_its_rounding():
    # the closed form m zeta(m+1) is summed in double precision: below
    # 1e-15 the tail bound alone (5e-17 here) does not cover its error
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for m in range(2, 9):
            r = zetanum._zeta_mellin(1, m, 1e-16)
            err = abs(mpmath.mpf(r.value) - m * mpmath.zeta(m + 1))
            assert err <= r.error_estimate < 1e-13, (m, float(err), r)


def test_default_spec_shapes():
    assert default_spec(1).w_cutoff > default_spec(3).w_cutoff
    # k = 2 starts coarse, and its last level is still the finest grid of the
    # replaced 8-panel, 3-level schedule: 32 panels of 32 nodes
    k2 = default_spec(2)
    assert (k2.panels, k2.nodes, k2.levels) == (2, 32, 5)
    assert k2.panels << (k2.levels - 1) == 32


def test_coarse_k2_start_agrees_with_the_replaced_schedule():
    # wherever the replaced schedule (8 panels, 3 levels) converges or raises,
    # the default does too, and its error estimate bounds its distance from a
    # 64-panel level on the same (covered) cutoff
    replaced = replace(default_spec(2), panels=8, levels=3)
    cases, grids = [], {}
    for z in (0.0, -0.7, 1.6, 2.5, -3.0):
        for m in range(1, 21):
            got = []
            for spec in (default_spec(2), replaced):
                try:
                    got.append(negative_moment(2, m, z, spec))
                except ConvergenceError:
                    got.append(None)
            cases.append((z, m, *got))
            # the documented cutoff max(w_cutoff, ln(4 scale/tol)/(2 pi)), with
            # the scale 2 r^-m of negative_moment_batch
            scale = 2 * min(abs(z - 1.0), abs(z - 0.5)) ** -m
            floor = default_spec(2)
            cutoff = max(floor.w_cutoff, math.log(4 * scale / floor.tolerance) / (2 * math.pi))
            covered = replace(floor, w_cutoff=cutoff)
            grids.setdefault((z, covered), []).append(m)
    ref = {}
    for (z, covered), ms in grids.items():
        level = _moment_level(2, ms, 64, covered, z, 0.0)
        ref.update({(z, m): level[m].real for m in ms})
    for z, m, new, old in cases:
        assert (new is None) == (old is None), (z, m)
        if new is not None:
            assert abs(new.value - ref[z, m]) <= new.error_estimate, (z, m)


def test_bit_reproducible():
    # the level memo is cleared before each second call, so two computations
    # are compared, not a computation and its memo
    a = negative_moment_batch(2, [1, 2], 0.0)
    zetanum._level_memo.cache_clear()
    b = negative_moment_batch(2, [1, 2], 0.0)
    for m in (1, 2):
        assert a[m].value == b[m].value
        assert a[m].imag_residue == b[m].imag_residue
        assert a[m].convergence_delta == b[m].convergence_delta
    # the k = 2 level with its a-only term at Q = 0 in the same kernel call
    first = telescoping_check(2)
    zetanum._level_memo.cache_clear()
    assert first == telescoping_check(2)
    x = ak_zeta_mellin(2, 1)
    y = ak_zeta_mellin(2, 1)
    assert x == y


# --- the level memo ------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("const, shift", [(0.0, 0.0), (1.0, 1.0)])
def test_memo_level_equals_uncached_level(monkeypatch, k, const, shift):
    # a held power equals a fresh uncached level bit for bit, whichever set of
    # powers filled the memo, and a request computes only the powers not held
    spec = default_spec(k)
    asked = []

    def recorded(k, powers, *args):
        asked.append(sorted(powers))
        return _moment_level(k, powers, *args)

    monkeypatch.setattr(zetanum, "_moment_level", recorded)
    zetanum._level_memo.cache_clear()
    zetanum._memo_level(k, [1, 3], spec.panels, spec, const, shift)
    held = zetanum._memo_level(k, [3, 2, 1], spec.panels, spec, const, shift)
    assert zetanum._memo_level(k, [2], spec.panels, spec, const, shift) == {2: held[2]}
    assert asked == [[1, 3], [2]]
    assert list(held) == [3, 2, 1]
    full = _moment_level(k, [1, 2, 3], spec.panels, spec, const, shift)
    for m in (1, 2, 3):
        assert held[m] == _moment_level(k, [m], spec.panels, spec, const, shift)[m] == full[m]


def test_level_memo_serves_threads_identical_results():
    # threads that fill one grid's memo at once, with overlapping power sets,
    # each get the results of a lone run on a cleared memo
    sets = ([1], [2], [3], [1, 2, 3]) * 2
    spec = default_spec(2)
    ref = {}
    for ms in sets[:4]:
        zetanum._level_memo.cache_clear()
        ref[tuple(ms)] = negative_moment_batch(2, ms, 0.0, spec)
    zetanum._level_memo.cache_clear()
    start = threading.Barrier(len(sets))
    got = [None] * len(sets)

    def work(i):
        start.wait(timeout=30)
        got[i] = negative_moment_batch(2, sets[i], 0.0, spec)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for ms, res in zip(sets, got):
        assert res == ref[tuple(ms)], ms


def test_lifts_and_levels_serve_threads_the_sequential_results():
    # four threads read the entries of equal tables and fill the k = 2 level
    # memo at once, from cleared caches, and get what one thread gets alone
    from akzeta import polybernoulli as pb

    def work():
        tables = (pb.poly_bernoulli_series(30, 3), pb.stirling_table(30, 3))
        return [t.entries for t in tables], negative_moment_batch(2, [1, 2, 3])

    pb._lifts.cache_clear()
    zetanum._level_memo.cache_clear()
    ref = work()
    pb._lifts.cache_clear()
    zetanum._level_memo.cache_clear()
    start = threading.Barrier(4)
    got = [None] * 4

    def run(i):
        start.wait(timeout=30)
        got[i] = work()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [ref] * 4


def test_nodes_are_capped():
    assert QuadratureSpec(nodes=MAX_NODES).nodes == MAX_NODES
    with pytest.raises(ValueError, match=f"nodes <= {MAX_NODES}"):
        QuadratureSpec(nodes=MAX_NODES + 1)
