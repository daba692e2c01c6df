"""The benchmark's workloads: inputs made from a seed, one job per request,
and the correctness gate of each job.

Every job calls public functions of `akzeta.polybernoulli`, `akzeta.verify`
or `akzeta.zetanum` inside a span named after the layer metric it feeds, and
raises `GateError` when an output is wrong.  Exact routes must agree exactly;
a numeric result must lie within its requested tolerance of a closed form
written below as literal constants, or, where there is none, of an
independent route.

There are two workloads.  symbol-routes runs the sparse symbol (umbral)
algebra and no numerics; series-and-zeta runs the numerics and the exact
series routes but no symbol algebra.  So a change to the symbol algebra, or
to the numerics, has a workload on which it must change nothing.

The sizes are smaller than the ROADMAP's baseline cases (n <= 20, k = 5
umbral; the default verify grid; Mellin at 1e-10) so that one pass of each
workload takes 10 to 15 seconds and a run can report the median of several
passes.  BASELINE.md reconciles the two.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from akzeta import polybernoulli as pb
from akzeta import verify, zetanum

from tracing import Tracer

class GateError(Exception):
    """A job's output failed its correctness gate."""


@dataclass
class Job:
    name: str
    run: Callable[[Tracer], None]


# ---------------------------------------------------------------------------
# literal constants for the closed forms

ZETA2 = 1.6449340668482264365  # pi^2/6
ZETA3 = 1.2020569031595942854
ZETA4 = 1.0823232337111381915  # pi^4/90
ZETA5 = 1.0369277551433699263
ZETA6 = 1.0173430619844491397  # pi^6/945

# zeta_k(m) = zeta*(k+1, {1}^{m-1}); zeta_1(m) = m zeta(m+1), zeta_k(1) = zeta(k+1)
AK_ZETA = {
    (1, 1): ZETA2,
    (1, 2): 2 * ZETA3,
    (1, 3): 3 * ZETA4,
    (2, 1): ZETA3,
    (3, 1): ZETA4,
    (2, 2): 1.3529040421389227394,  # zeta*(3,1) = pi^4/72
    (2, 3): ZETA2 * ZETA3 - ZETA5 / 2,  # zeta*(3,1,1)
    (3, 2): 3 * ZETA5 - ZETA2 * ZETA3,  # zeta*(4,1)
    (3, 3): 89 / 48 * ZETA6 - ZETA3**2 / 2,  # zeta*(4,1,1)
}
MZ_STAR = {(3, 1): AK_ZETA[(2, 2)], (4, 1): AK_ZETA[(3, 2)], (3, 1, 1): AK_ZETA[(2, 3)]}

# ---------------------------------------------------------------------------
# sizes

TABLE_N = {1: 16, 2: 16, 3: 16, 4: 16, 5: 12}  # table requests, n <= TABLE_N[k]
POLY_REQUESTS = ((12, 3), (12, 4), (10, 5))  # `num --poly --method umbral`, (n, k)
CUBE_N, SIMPLEX_N, TRANSFORM_K = 12, 10, 4
DEEP_N, DEEP_K = 40, 6
VERIFY_CONFIG = verify.VerifyConfig(n_max=10, k_max=4, m_max=4)
MELLIN_TOL, TIGHT_TOL = 1e-8, 1e-9
TIGHT_PAIR = ((3, 1), (3, 2))
MZ_TERMS = 20_000  # truncation error ~1e-8..1e-13, far above the float rounding of the sum
BRIDGE_POINTS = 4


# ---------------------------------------------------------------------------
# gates


def agree(tr: Tracer, what: str, ref, got) -> None:
    """Exact equality of two route values (rationals or polynomials)."""
    with tr.span("bench.gate"):
        if ref != got:
            raise GateError(f"{what}: {got} != {ref}")
        tr.count("polybernoulli.values_checked", getattr(ref, "degree", 0) + 1)


def agree_tables(
    tr: Tracer, what: str, ref: pb.PolyBernoulliTable, got: pb.PolyBernoulliTable
) -> None:
    if len(got.entries) != len(ref.entries):
        raise GateError(f"{what}: {len(got.entries)} entries, expected {len(ref.entries)}")
    for n, (r, g) in enumerate(zip(ref.entries, got.entries)):
        agree(tr, f"{what} n={n}", r, g)


def within(tr: Tracer, what: str, value: float, ref: float, tol: float) -> float:
    """|value - ref| <= tol; returns the error and tracks error / tolerance."""
    err = abs(value - ref)
    tr.peak("zetanum.err_over_tol_max", err / tol)
    if not err <= tol:
        raise GateError(f"{what}: |{value!r} - {ref!r}| = {err:.3e} > tol {tol:g}")
    return err


def rational_point(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


# ---------------------------------------------------------------------------
# symbol routes: `akzeta table` and `akzeta num --poly --method umbral` requests


def _table_job(k: int, variant: str) -> Job:
    n_max = TABLE_N[k]

    def run(tr: Tracer) -> None:
        with tr.span("polybernoulli.series"):
            series = pb.poly_bernoulli_series(n_max, k, variant)
        with tr.span("polybernoulli.umbral"):
            umbral = pb.umbral_numbers(n_max, k, variant)
        with tr.span("polybernoulli.stirling"):
            stirl = pb.stirling_table(n_max, k)
        if variant == "C":
            with tr.span("polybernoulli.bc_convert"):
                stirl = pb.bc_convert(stirl, "B->C")
        for n in range(n_max + 1):
            agree(tr, f"umbral {variant}({n},{k})", series.number(n), umbral[n])
        agree_tables(tr, f"stirling {variant} k={k}", series, stirl)

    return Job(f"table k={k} {variant}", run)


def _poly_job(n: int, k: int, variant: str) -> Job:
    def run(tr: Tracer) -> None:
        with tr.span("polybernoulli.series"):
            ref = pb.poly_bernoulli_series(n, k, variant).value(n)
        with tr.span("polybernoulli.umbral"):
            got = pb.poly_bernoulli_umbral(n, k, variant)
        agree(tr, f"umbral poly {variant}({n},{k})", ref, got)

    return Job(f"poly n={n} k={k} {variant}", run)


def _transform_job(route: str, k: int, z: Fraction) -> Job:
    n_max = CUBE_N if route == "cube" else SIMPLEX_N
    transform = pb.barnes_transform_cube if route == "cube" else pb.simplex_transform
    span = f"polybernoulli.{route}"

    def run(tr: Tracer) -> None:
        with tr.span("polybernoulli.series"):
            ref = pb.poly_bernoulli_series(n_max, k, "B")
        for n in range(n_max + 1):
            with tr.span(span):
                formal = transform(n, k)
                at_z = transform(n, k, z)
            agree(tr, f"{route} B({n},{k})", ref.value(n), formal)
            agree(tr, f"{route} B({n},{k})({z})", ref.value(n)(z), at_z)

    return Job(f"{route} k={k} z={z}", run)


def table_jobs(rng: random.Random) -> list[Job]:
    jobs = [_table_job(k, v) for k in TABLE_N for v in "BC"]
    jobs += [_poly_job(n, k, v) for n, k in POLY_REQUESTS for v in "BC"]
    jobs += [_transform_job("cube", k, rational_point(rng)) for k in range(1, TRANSFORM_K + 1)]
    jobs += [_transform_job("simplex", k, rational_point(rng)) for k in range(2, TRANSFORM_K + 1)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# deep routes: series, Stirling and both B<->C conversions at large n, no umbral


def _deep_job(k: int, first: str) -> Job:
    def run(tr: Tracer) -> None:
        series = {}
        for variant in (first, "C" if first == "B" else "B"):
            with tr.span("polybernoulli.series"):
                series[variant] = pb.poly_bernoulli_series(DEEP_N, k, variant)
        with tr.span("polybernoulli.stirling"):
            stirl = pb.stirling_table(DEEP_N, k)
        with tr.span("polybernoulli.bc_convert"):
            stirl_c = pb.bc_convert(stirl, "B->C")
            back_b = pb.bc_convert(series["C"], "C->B")
        agree_tables(tr, f"stirling B k={k}", series["B"], stirl)
        agree_tables(tr, f"stirling B->C k={k}", series["C"], stirl_c)
        agree_tables(tr, f"series C->B k={k}", series["B"], back_b)

    return Job(f"deep k={k} {first} first", run)


def deep_jobs(rng: random.Random) -> list[Job]:
    jobs = [_deep_job(k, rng.choice("BC")) for k in range(1, DEEP_K + 1)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# the checks that verify.run_all(VERIFY_CONFIG) makes, one job each


def verify_calls(cfg: verify.VerifyConfig) -> list[tuple[str, Callable[[], verify.IdentityCheck]]]:
    """The (check name, call) pairs of run_all(cfg) for suite "all"."""
    n, k, m = cfg.n_max, cfg.k_max, cfg.m_max
    return [
        ("umbral-cancellation", lambda: verify.check_cancellation(30)),
        ("umbral-periodicity", lambda: verify.check_periodicity(30)),
        ("umbral-independence", lambda: verify.check_independence(10)),
        ("umbral-symbol-recursion", lambda: verify.check_symbol_recursion(6)),
        ("recurrence-order-reduction", lambda: verify.check_order_reduction(n, k)),
        ("recurrence-variant-refuted", lambda: verify.check_refuted_variant(min(n, 6), min(k, 3))),
        ("connection-relation", lambda: verify.check_connection(n, k)),
        ("difference-identity", lambda: verify.check_difference(n, k)),
        ("multistep-difference", lambda: verify.check_multistep_difference(n, k, m)),
        ("divided-difference-extension", lambda: verify.check_divided_difference(n, k)),
        ("route-agreement", lambda: verify.check_route_agreement(n, k, corrupt=cfg.corrupt)),
        ("classical-reduction", lambda: verify.check_classical_reduction(30)),
        ("companion-shift", lambda: verify.check_companion_shift(n, k)),
        ("monic-degree", lambda: verify.check_monic_degree(n, k)),
        ("cube-transform", lambda: verify.check_cube_transform(min(n, 12), k)),
        ("simplex-transform", lambda: verify.check_simplex_transform(min(n, 10), k)),
        ("generating-product", lambda: verify.check_generating_product(k, 8)),
        ("zeta-moment-realization", verify.check_moment_realization),
        ("zeta-polygamma-bridge", verify.check_polygamma_bridge),
        ("zeta-reference-values", verify.check_reference_values),
        ("zeta-two-route", verify.check_two_route_zeta),
        ("zeta-telescoping", verify.check_telescoping),
        ("zeta-double-integral", verify.check_double_integral),
    ]


def _check_job(name: str, call: Callable[[], verify.IdentityCheck]) -> Job:
    def run(tr: Tracer) -> None:
        with tr.span(f"verify.{name}"):
            chk = call()
        with tr.span("bench.gate"):
            if chk.name != name or chk.status != "pass":
                raise GateError(f"verify {name}: got {chk.name} {chk.status} {chk.witness}")
            tr.count("verify.checks_passed")

    return Job(f"verify {name}", run)


# run_all's suites, as index ranges into verify_calls
SUITES = (("umbral", 0, 4), ("recurrence", 4, 10), ("transforms", 10, 17), ("zeta", 17, 23))
EXACT_SUITES = ("umbral", "recurrence", "transforms")


def verify_jobs(
    rng: random.Random, suites: tuple[str, ...], cfg: verify.VerifyConfig = VERIFY_CONFIG
) -> list[Job]:
    """The named suites' checks in run_all's suite order, each suite
    seed-shuffled inside.  Shuffling across suites moves the peak resident
    memory by about 12% (the numeric checks allocate on top of, or below, the
    heap the exact checks grew), so the suites stay in order."""
    calls = verify_calls(cfg)
    jobs = []
    for suite, lo, hi in SUITES:
        if suite in suites:
            chunk = [_check_job(name, call) for name, call in calls[lo:hi]]
            rng.shuffle(chunk)
            jobs += chunk
    return jobs


# ---------------------------------------------------------------------------
# zeta values: sech^2 moments, Mellin, multiple zeta sums, Barnes, bridge


def _moment_job(k: int) -> Job:
    spec = zetanum.default_spec(k)

    def run(tr: Tracer) -> None:
        with tr.span(f"zetanum.moment_k{k}"):
            res = zetanum.negative_moment_batch(k, [1, 2, 3], 0.0, spec)
        with tr.span("bench.gate"):
            levels = max(r.levels_used for r in res.values())
            tr.count("zetanum.moment.levels_used", levels)
            # computed from the spec: k sech axes (panels doubling per level)
            # and k-1 fixed unit-interval axes, summed over the levels run
            tr.count(
                "zetanum.moment.grid_points",
                sum(((spec.panels << lev) * spec.nodes) ** k for lev in range(levels))
                * spec.u_nodes ** (k - 1),
            )
            for m, r in res.items():
                tr.peak("zetanum.moment.imag_residue_max", r.imag_residue)
                err = within(
                    tr, f"moment zeta_{k}({m})", (-1) ** m * r.value, AK_ZETA[(k, m)], spec.tolerance
                )
                estimate = r.convergence_delta + (r.tail_bound or 0.0)
                tr.peak(
                    "zetanum.moment.err_over_estimate_max",
                    err / estimate if estimate > 0 else math.inf,
                )

    return Job(f"moment k={k}", run)


def _mellin_job(k: int, m: int, tol: float, span: str) -> Job:
    def run(tr: Tracer) -> None:
        with tr.span(span):
            value = zetanum.ak_zeta_mellin(k, m, tol)
        with tr.span("bench.gate"):
            within(tr, f"mellin zeta_{k}({m}) at {tol:g}", value, AK_ZETA[(k, m)], tol)

    return Job(f"mellin k={k} m={m} tol={tol:g}", run)


def _mz_job(sig: tuple[int, ...]) -> Job:
    def run(tr: Tracer) -> None:
        with tr.span("zetanum.mz"):
            value, bound = zetanum.mz_truncated(sig, MZ_TERMS, True)
        with tr.span("bench.gate"):
            # positive terms: the truncated sum lies below the value, within the bound
            if value > MZ_STAR[sig] + 1e-15:
                raise GateError(f"mz* {sig}: truncated sum {value!r} exceeds {MZ_STAR[sig]!r}")
            within(tr, f"mz* {sig}", value, MZ_STAR[sig], bound)

    return Job(f"mz* {sig}", run)


def _barnes_job(m: int, a: list[float], w: float) -> Job:
    """Both Barnes routes at w + sum(a)/2, against the Hurwitz form
    zeta_1(m, v | 1) = zeta(m, v) or zeta_2(m, v | 1, 1) = zeta(m-1, v) + (1-v) zeta(m, v)."""
    v = w + sum(a) / 2
    mellin_tol = 1e-10
    sech_tol = zetanum.default_spec(len(a)).tolerance

    def run(tr: Tracer) -> None:
        with tr.span("zetanum.barnes"):
            sech = zetanum.barnes_zeta_sech(m, w, a)
            mellin = zetanum.barnes_zeta_mellin(m, v, a, mellin_tol)
        with tr.span("zetanum.bridge"):
            closed = zetanum.hurwitz_zeta(m, v)
            if len(a) == 2:
                closed = zetanum.hurwitz_zeta(m - 1, v) + (1 - v) * closed
        with tr.span("bench.gate"):
            within(tr, f"barnes sech m={m} a={a} w={w}", sech.value, closed, sech_tol)
            within(tr, f"barnes mellin m={m} a={a} v={v}", mellin, closed, mellin_tol)

    return Job(f"barnes m={m} a={a} w={w}", run)


def _bridge_job(m: int, z: float) -> Job:
    """k = 1 negative moment against the polygamma closed form on both branches."""
    tol = zetanum.default_spec(1).tolerance

    def run(tr: Tracer) -> None:
        with tr.span("zetanum.bridge"):
            r = zetanum.negative_moment(1, m, z)
            if z > 0.5:
                closed = (-1) ** (m - 1) * zetanum.polygamma(m, z) / math.factorial(m - 1)
            else:
                closed = -zetanum.polygamma(m, 1 - z) / math.factorial(m - 1)
        with tr.span("bench.gate"):
            within(tr, f"bridge m={m} z={z}", r.value, closed, tol)

    return Job(f"bridge m={m} z={z}", run)


def zeta_groups(rng: random.Random) -> tuple[list[Job], list[Job], list[Job]]:
    """The moment, Mellin and remaining zeta jobs.  The seed shuffles the
    Mellin group and the last group, and draws the Barnes and bridge points."""
    moments = [_moment_job(k) for k in (1, 2, 3)]
    mellin = [_mellin_job(k, m, MELLIN_TOL, "zetanum.mellin") for k in (1, 2, 3) for m in (1, 2, 3)]
    mellin += [_mellin_job(k, m, TIGHT_TOL, "zetanum.mellin_tight") for k, m in TIGHT_PAIR]
    rest = [_mz_job(sig) for sig in MZ_STAR]
    rest += [_barnes_job(3, [1.0], rng.choice((0.5, 1.0, 1.5, 2.0)))]
    rest += [_barnes_job(4, [1.0, 1.0], rng.choice((0.5, 1.0, 1.5, 2.0)))]
    # z = 1/2 is singular and |z - 1/2| < 0.1 is rejected; draw from both branches
    below = [round(0.05 * i, 2) for i in range(0, 8)]
    above = [round(0.05 * i, 2) for i in range(13, 61)]
    points = rng.sample(below, BRIDGE_POINTS // 2) + rng.sample(above, BRIDGE_POINTS // 2)
    rest += [_bridge_job(m, z) for z in points for m in (1, 2)]
    rng.shuffle(mellin)
    rng.shuffle(rest)
    return moments, mellin, rest


# ---------------------------------------------------------------------------
# the workloads


def symbol_routes(rng: random.Random) -> list[Job]:
    """Table and poly requests, the cube and simplex transforms, then the
    exact suites of run_all: the sparse symbol algebra does most of the work."""
    return table_jobs(rng) + verify_jobs(rng, EXACT_SUITES)


def series_and_zeta(rng: random.Random) -> list[Job]:
    """No symbol algebra: the moment group, the deep exact routes, the other
    zeta jobs, then run_all's zeta suite, groups in this fixed order.

    The moment group runs first, as in a fresh `akzeta zeta` call: the cost
    of the k = 3 sweep depends on what earlier jobs left in the allocator
    (1.5 s to 4 s per call on a 2-core x86-64 box), so it must not move with
    the seed.
    """
    moments, mellin, rest = zeta_groups(rng)
    return moments + deep_jobs(rng) + mellin + rest + verify_jobs(rng, ("zeta",))


BUILDERS = {
    "symbol-routes": symbol_routes,
    "series-and-zeta": series_and_zeta,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return BUILDERS[workload](random.Random(seed))
