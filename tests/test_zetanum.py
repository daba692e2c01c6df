"""Numerical layer: special functions, quadrature realization, zeta routes."""
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from akzeta.exact import bernoulli_number
from akzeta.zetanum import (
    ConvergenceError,
    MzSignature,
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
from akzeta.zetanum import _li2, _li_exp, _moment_level, _sech_axis

ROOT = Path(__file__).resolve().parents[1]

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


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("const, shift", [(0.0, 0.0), (2.5, 0.0), (-0.7, 0.0), (1.0, 1.0)])
def test_moment_kernel_matches_tensor_sum(k, const, shift):
    # brute-force tensor sum over all 2k-1 axes with the kernel's w-nodes and
    # a 40-node Gauss-Legendre rule on each unit axis, which the kernel
    # integrates in closed form; at k = 3 the u_1 axis is summed one node at
    # a time to keep the tensor small
    spec = QuadratureSpec(panels=2, nodes=6, levels=2, w_cutoff=4.0)
    X, WX = _sech_axis(spec.w_cutoff, spec.panels, spec.nodes)
    C = 1j * X - 0.5
    V = C + shift
    UL, WUL = _unit_rule(40)
    got = _moment_level(k, [1, 2, 3], spec.panels, spec, const, shift)
    for m in (1, 2, 3):
        if k == 2:  # axes (w_1, w_2, u_1): const + C_2 + u_1 V_1
            den = const + C[None, :, None] + UL[None, None, :] * V[:, None, None]
            ref = np.einsum("abc,a,b,c->", den**-m, WX, WX, WUL)
        else:  # axes (w_1, w_2, w_3, u_1, u_2): const + C_3 + u_2 (V_2 + u_1 V_1)
            ref = 0
            for u1, wu1 in zip(UL, WUL):
                p = V[None, :, None, None] + u1 * V[:, None, None, None]
                den = const + C[None, None, :, None] + UL[None, None, None, :] * p
                ref += wu1 * np.einsum("abcd,a,b,c,d->", den**-m, WX, WX, WX, WUL)
        assert abs(got[m] - ref) < 1e-12, (m, got[m], ref)


def test_k3_level_chunking_is_invisible(monkeypatch):
    # one pair of (w_1, w_2) rows per chunk moves every chunk boundary
    spec = default_spec(3)
    for const, shift in ((0.0, 0.0), (1.0, 1.0)):
        ref = _moment_level(3, [1, 2, 3], spec.panels, spec, const, shift)
        with monkeypatch.context() as mp:
            mp.setattr(zetanum, "_CHUNK", 1)
            got = _moment_level(3, [1, 2, 3], spec.panels, spec, const, shift)
        for m in (1, 2, 3):
            assert abs(got[m] - ref[m]) <= 1e-15, (const, m, got[m], ref[m])


def test_k3_level_memory_stays_chunked():
    # 160 nodes per axis: a grid over all pairs would need 33 MB per complex
    # array; the chunked kernel holds about 1 MB
    spec = default_spec(3)
    panels = 160 // spec.nodes
    _moment_level(3, [1, 2, 3], panels, spec, 0.0, 0.0)  # caches filled
    tracemalloc.start()
    try:
        _moment_level(3, [1, 2, 3], panels, spec, 0.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


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
    # one row of the first axis per block moves every block boundary
    for m, w, a in ((3, 1.0, [1.0]), (5, 0.5, [1.0, 2.0])):
        ref = barnes_zeta_sech(m, w, a)
        with monkeypatch.context() as mp:
            mp.setattr(zetanum, "_CHUNK", 1)
            got = barnes_zeta_sech(m, w, a)
        assert abs(got.value - ref.value) <= 1e-15, (m, w, a, got.value, ref.value)
        assert got.levels_used == ref.levels_used


def test_barnes_sech_memory_stays_chunked():
    # a full 512 x 512 tensor of the last level takes 4 MB per complex array
    tracemalloc.start()
    try:
        barnes_zeta_sech(4, 0.5, [1.0, 1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


# --- multiple zeta sums -------------------------------------------------------------


def test_mz_signature_validation():
    with pytest.raises(ValueError):
        MzSignature((1, 2))
    with pytest.raises(ValueError):
        MzSignature(())
    with pytest.raises(ValueError):
        MzSignature((2, 0))
    assert MzSignature((3, 1), True).depth == 2


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


def test_mz_bound_is_conservative():
    # compare the returned bound against the observed tail to a much larger N
    for sig, starred in [((3, 1), True), ((2, 1), False), ((2, 1, 1), False)]:
        v_small, bound = mz_truncated(sig, 2000, starred)
        v_large, _ = mz_truncated(sig, 400000, starred)
        assert abs(v_large - v_small) <= bound


def test_mz_signature_object_roundtrip():
    sig = MzSignature((3, 1), starred=True)
    v1, b1 = mz_truncated(sig, 1000)
    v2, b2 = mz_truncated((3, 1), 1000, True)
    assert v1 == v2 and b1 == b2


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
    assert set(obj) == {"value", "imag_residue", "convergence_delta", "tail_bound"}
    r2 = bernoulli_moment_quadrature(2)
    assert set(r2.to_json()) == {"value", "imag_residue", "convergence_delta"}


def test_default_spec_shapes():
    assert default_spec(1).w_cutoff > default_spec(3).w_cutoff
    assert default_spec(2).panels == 8 and default_spec(2).nodes == 32
    assert default_spec(2).levels == 3


def test_bit_reproducible():
    a = negative_moment_batch(2, [1, 2], 0.0)
    b = negative_moment_batch(2, [1, 2], 0.0)
    for m in (1, 2):
        assert a[m].value == b[m].value
        assert a[m].imag_residue == b[m].imag_residue
        assert a[m].convergence_delta == b[m].convergence_delta
    x = ak_zeta_mellin(2, 1)
    y = ak_zeta_mellin(2, 1)
    assert x == y


# --- scripts --------------------------------------------------------------------------


def test_zeta_values_script_k3():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "scripts" / "zeta_values.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--k-max", "3", "--terms", "20000"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if line.split()[:1] in (["2"], ["3"])]
    assert [(r[0], r[1]) for r in rows] == [(k, m) for k in "23" for m in "123"]
    for r in rows:
        assert float(r[5]) < 1e-6, r  # |mom-mel|
