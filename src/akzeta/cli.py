"""Command-line front end: exact poly-Bernoulli values and tables, numerical
zeta evaluation along independent routes, truncated multiple zeta sums, and
the identity verification suite, all with machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 internal cross-check or
convergence failure (`zeta` prints its result, then exits 2 when a route's
error estimate exceeds --tolerance or two routes differ by more than the sum
of their estimates), 64 usage error.  Rationals are printed as decimal-string
num/den pairs, never floats, so exactness survives pipelines; --seed-free
documents that every algorithm here is deterministic.

Settings (--format and the quadrature controls) are declared once, as the
shared parser's actions; a --config file of key=value lines may set them too,
and AKZETA_FORMAT sets the format.  Each subcommand can render its result as
a JSON object, CSV rows and plain text, and one emitter builds and prints
only the format asked for.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields, replace
from fractions import Fraction

from .exact import rational_to_json
from .polybernoulli import ROUTES, poly_bernoulli_series, route_disagreement
from .quadspec import ConvergenceError, QuadratureSpec, default_spec
from .umbral import ExpansionCapError
from .verify import SUITES, VerifyConfig, run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CROSSCHECK_FAIL = 2
EXIT_USAGE = 64

FORMATS = ("json", "csv", "plain")

# Largest n and k for `num` and `table` (k also for `zeta`), largest
# `zeta --m`, largest `mzv --terms` (arrays of length terms + 1) and the
# largest `verify` grid: at n = 100 the series route already takes seconds
# per k; both Mellin routes hold beyond m = 100, but for k >= 2 zeta_k(m)
# equals its limit zeta(k) to double precision long before, and the moment
# route's integrand grows like 2^m; the largest verify grid takes about
# twice as long as the default one.
MAX_N = 100
MAX_K = 100
MAX_M = 100
MAX_TERMS = 10**7
MAX_VERIFY_N = 20
MAX_VERIFY_K = 5
MAX_VERIFY_M = 10


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code fixed at 64, reading a
    negative rational such as -1/2 as a value, not as an option."""

    # dest -> (action, default) of each setting; filled by build_parser
    settings: dict

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse up to 3.12 takes -1/2 for an option (3.13's private pattern
        # reads it as a number already): add -p/q, narrowing nothing upstream
        upstream = self._negative_number_matcher.pattern
        self._negative_number_matcher = re.compile(upstream + r"|^-\d+/\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"not a rational: {text!r}") from e


def _load_config_file(path: str) -> dict:
    """simple key=value lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def _resolve_settings(args, settings: dict) -> QuadratureSpec:
    """Store every setting in args, taking defaults < AKZETA_FORMAT < --config
    file < flags, and return the QuadratureSpec the numeric ones describe.

    Config-file text is cast by the setting's parser action and the final
    values are checked against its choices; the spec is built for every
    command, so a value it rejects is a usage error everywhere.
    """
    raw = {}
    if os.environ.get("AKZETA_FORMAT"):
        raw["format"] = os.environ["AKZETA_FORMAT"]
    if getattr(args, "config", None):
        raw.update(_load_config_file(args.config))
    values = {dest: default for dest, (_, default) in settings.items()}
    for key, text in raw.items():
        if key not in settings:
            raise ValueError(f"unknown config key: {key}")
        cast = settings[key][0].type
        values[key] = cast(text) if cast else text
    values.update((dest, v) for dest, v in vars(args).items() if dest in settings)
    for dest, (action, _) in settings.items():
        if action.choices and values[dest] not in action.choices:
            raise ValueError(f"{dest} must be one of {tuple(action.choices)}")
    vars(args).update(values)
    spec_fields = {f.name for f in fields(QuadratureSpec)}
    overrides = {d: v for d, v in values.items() if d in spec_fields and v is not None}
    return replace(default_spec(getattr(args, "k", 1)), **overrides)


def _emit(fmt: str, obj, rows, text) -> None:
    """Print one result in the format asked for, building only that one: obj,
    rows and text are functions of no arguments giving the JSON object (printed
    with sorted keys), the CSV rows (None: print the text) and the plain text."""
    if fmt == "json":
        out = json.dumps(obj(), sort_keys=True, indent=2)
    elif fmt == "csv" and rows is not None:
        out = "\n".join(",".join(map(str, row)) for row in rows())
    else:
        out = text()
    sys.stdout.write(out + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_num(args, spec) -> int:
    n, k, variant, method = args.n, args.k, args.variant, args.method
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n > MAX_N or k > MAX_K:
        raise ValueError(f"need n <= {MAX_N} and k <= {MAX_K}")
    z = _parse_rational(args.z) if args.z is not None else None
    if args.poly and z is not None:
        raise ValueError("--poly and --z are mutually exclusive")
    poly = ROUTES[method](n, k, variant).value(n)

    print(f"method={method} variant={variant} n={n} k={k}", file=sys.stderr)
    if args.poly:
        coeffs = [poly.coefficient(i) for i in range(n + 1)]
        rows = [(i, c.numerator, c.denominator) for i, c in enumerate(coeffs)]
        _emit(args.format, lambda: [rational_to_json(c) for c in coeffs],
              lambda: [("degree", "num", "den")] + rows, lambda: str(poly))
    else:
        value = poly(z if z is not None else Fraction(0))
        _emit(args.format, lambda: rational_to_json(value),
              lambda: [("num", "den"), (value.numerator, value.denominator)], lambda: str(value))
    return EXIT_OK


def _cmd_table(args, spec) -> int:
    n_max, variant = args.n_max, args.variant
    if n_max < 0 or args.k_min < 1 or args.k_max < args.k_min:
        raise ValueError("need n_max >= 0 and 1 <= k_min <= k_max")
    if n_max > MAX_N or args.k_max > MAX_K:
        raise ValueError(f"need n_max <= {MAX_N} and k_max <= {MAX_K}")
    tables = []
    for k in range(args.k_min, args.k_max + 1):
        table = poly_bernoulli_series(n_max, k, variant)
        # every emitted value is re-derived along the other two routes first
        numbers = [table.number(n) for n in range(n_max + 1)]
        bad = route_disagreement(numbers, k, variant)
        if bad is not None:
            print(
                f"route disagreement at n={bad['n']} k={k}: series={bad['series']} "
                f"umbral={bad['umbral']} stirling={bad['stirling']}",
                file=sys.stderr,
            )
            return EXIT_CROSSCHECK_FAIL
        tables.append(table)
    entries = [(t, n, t.number(n)) for t in tables for n in range(n_max + 1)]
    _emit(
        args.format,
        lambda: [t.to_json() for t in tables],
        lambda: [("n", "k", "variant", "num", "den")]
        + [(n, t.k, t.variant, q.numerator, q.denominator) for t, n, q in entries],
        lambda: "\n".join(f"{t.variant}({n},{t.k}) = {q}" for t, n, q in entries),
    )
    return EXIT_OK


def _cmd_zeta(args, spec) -> int:
    from . import zetanum  # numpy loads only for the numeric commands

    k, m, tol = args.k, args.m, spec.tolerance
    if k > MAX_K or m > MAX_M:
        raise ValueError(f"need k <= {MAX_K} and m <= {MAX_M}")
    names = tuple(zetanum.ZETA_ROUTES) if args.route == "both" else (args.route,)
    if not set(names) <= set(zetanum.ZETA_ROUTES):
        raise ValueError(f"route must be one of {(*zetanum.ZETA_ROUTES, 'both')}")
    results = {name: zetanum.ZETA_ROUTES[name](k, m, spec) for name in names}
    # JSON nests each route's to_json(); CSV and plain text flatten it to <route>_<key>
    obj: dict = {"k": k, "m": m, **{name: r.to_json() for name, r in results.items()}}
    row = {"k": k, "m": m, **{f"{n}_{key}": v for n in results for key, v in obj[n].items()}}
    bad = [f"{name} route: error estimate {r.error_estimate:.3e} > tolerance {tol:.3e}"
           for name, r in results.items() if r.error_estimate > tol]
    if len(results) == 2:
        (a, ra), (b, rb) = results.items()
        obj["discrepancy"] = row["discrepancy"] = gap = abs(ra.value - rb.value)
        if gap > (bound := ra.error_estimate + rb.error_estimate):
            bad.append(f"{a} and {b} routes: discrepancy {gap:.3e} > sum of error estimates {bound:.3e}")
    _emit(args.format, lambda: obj, lambda: [list(row), list(row.values())],
          lambda: "\n".join(f"{key} = {v:.12g}" for key, v in row.items()))
    for line in bad:
        print(f"akzeta: {line}", file=sys.stderr)
    return EXIT_CROSSCHECK_FAIL if bad else EXIT_OK


def _cmd_mzv(args, spec) -> int:
    from . import zetanum

    try:
        exponents = tuple(int(s) for s in args.sig.split(","))
    except ValueError as e:
        raise ValueError(f"bad signature {args.sig!r}") from e
    if args.terms > MAX_TERMS:
        raise ValueError(f"need terms <= {MAX_TERMS}")
    value, bound = zetanum.mz_truncated(exponents, args.terms, args.starred)
    star = "*" if args.starred else ""
    _emit(
        args.format,
        lambda: {
            "signature": list(exponents),
            "starred": args.starred,
            "terms": args.terms,
            "value": value,
            "tail_bound": bound,
        },
        lambda: [
            ("signature", "starred", "terms", "value", "tail_bound"),
            (f'"{args.sig}"', args.starred, args.terms, value, bound),
        ],
        lambda: f"zeta{star}({args.sig}) = {value:.12g} +- {bound:.3g}  (N={args.terms})",
    )
    return EXIT_OK


def _cmd_verify(args, spec) -> int:
    if args.max_n > MAX_VERIFY_N or args.max_k > MAX_VERIFY_K or args.max_m > MAX_VERIFY_M:
        raise ValueError(
            f"need max_n <= {MAX_VERIFY_N}, max_k <= {MAX_VERIFY_K} "
            f"and max_m <= {MAX_VERIFY_M}"
        )
    vconf = VerifyConfig(
        n_max=args.max_n,
        k_max=args.max_k,
        m_max=args.max_m,
        suite=args.suite,
        corrupt=args.corrupt,
    )
    report = run_all(vconf)
    # CSV has no rows of its own here: it prints the text report
    _emit(args.format, report.to_json, None, report.to_text)
    return EXIT_VERIFY_FAIL if report.has_failures else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    # shared flags accepted both before and after the subcommand; SUPPRESS
    # defaults keep a subparser from clobbering a value parsed by the parent.
    # The settings among them are the only list of settings: their types and
    # choices also cast and check --config files and AKZETA_FORMAT.
    common = argparse.ArgumentParser(add_help=False)
    settings = {}

    def setting(flag, default=None, **kw):
        action = common.add_argument(flag, default=argparse.SUPPRESS, **kw)
        settings[action.dest] = (action, default)

    setting("--format", "json", choices=FORMATS,
            help="output format (default json; env AKZETA_FORMAT)")
    setting("--tolerance", 1e-8, type=float, help="target tolerance for numerical routes")
    setting("--panels", type=int, help="starting quadrature panels per axis")
    setting("--nodes", type=int, help="Gauss-Legendre nodes per panel")
    setting("--levels", type=int, help="maximum refinement levels (at least 2)")
    setting("--w-cutoff", type=float, help="sech^2 axis truncation floor, raised to cover the tail")
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file of settings; flags take precedence")
    common.add_argument("--seed-free", action="store_true", default=argparse.SUPPRESS,
                        help="no-op; documents that every algorithm here is deterministic")

    p = _Parser(
        prog="akzeta",
        parents=[common],
        description=(
            "Exact poly-Bernoulli numbers and polynomials along independent "
            "routes, numerical Arakawa-Kaneko zeta values, multiple zeta sums, "
            "and an identity verification suite."
        ),
    )
    p.settings = settings
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    num = sub.add_parser("num", parents=[common], help="one poly-Bernoulli number or polynomial")
    num.add_argument("--n", type=int, required=True, help=f"index, at most {MAX_N}")
    num.add_argument("--k", type=int, required=True, help=f"order, at most {MAX_K}")
    num.add_argument("--variant", choices=("B", "C"), default="B")
    num.add_argument("--method", choices=tuple(ROUTES), default="series")
    num.add_argument("--poly", action="store_true", help="print polynomial coefficients, low to high")
    num.add_argument("--z", help="evaluate the polynomial at this rational (e.g. -1/2)")
    num.set_defaults(func=_cmd_num)

    table = sub.add_parser("table", parents=[common], help="tables of values, cross-checked along all three routes")
    table.add_argument("--n-max", dest="n_max", type=int, required=True,
                       help=f"largest index, at most {MAX_N}")
    table.add_argument("--k-min", dest="k_min", type=int, default=1)
    table.add_argument("--k-max", dest="k_max", type=int, required=True,
                       help=f"largest order, at most {MAX_K}")
    table.add_argument("--variant", choices=("B", "C"), default="B")
    table.set_defaults(func=_cmd_table)

    zeta = sub.add_parser("zeta", parents=[common], help="Arakawa-Kaneko zeta at positive integers")
    zeta.add_argument("--k", type=int, required=True, help=f"order, at most {MAX_K}")
    zeta.add_argument("--m", type=int, required=True, help=f"argument, at most {MAX_M}")
    zeta.add_argument("--route", default="both",
                      help="mellin, moment or both (default: every route, cross-checked)")
    zeta.set_defaults(func=_cmd_zeta)

    mzv = sub.add_parser("mzv", parents=[common], help="truncated multiple zeta (starred) value with tail bound")
    mzv.add_argument("--sig", required=True, help="comma-separated exponents, e.g. 3,1")
    mzv.add_argument("--starred", action="store_true")
    mzv.add_argument("--terms", type=int, default=100000,
                     help=f"outer summation cutoff N (at most {MAX_TERMS})")
    mzv.set_defaults(func=_cmd_mzv)

    verify = sub.add_parser("verify", parents=[common], help="run the identity verification suite")
    verify.add_argument("--suite", choices=SUITES, default="all")
    verify.add_argument("--max-n", dest="max_n", type=int, default=15,
                        help=f"largest index, at most {MAX_VERIFY_N}")
    verify.add_argument("--max-k", dest="max_k", type=int, default=4,
                        help=f"largest order, at most {MAX_VERIFY_K}")
    verify.add_argument("--max-m", dest="max_m", type=int, default=5,
                        help=f"largest multistep-difference step m, at most {MAX_VERIFY_M}")
    verify.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _resolve_settings(args, parser.settings)
        return args.func(args, spec)
    except (ValueError, OSError) as e:
        print(f"akzeta: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ExpansionCapError as e:
        print(f"akzeta: expansion cap exceeded: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as e:
        print(f"akzeta: convergence failure: {e}", file=sys.stderr)
        return EXIT_CROSSCHECK_FAIL


if __name__ == "__main__":
    sys.exit(main())
