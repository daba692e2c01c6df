"""Command-line front end: exact poly-Bernoulli values and tables, numerical
zeta evaluation along independent routes, truncated multiple zeta sums, and
the identity verification suite, all with machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 internal cross-check or
convergence failure, 64 usage error.  Rationals are printed as decimal-string
num/den pairs, never floats, so exactness survives pipelines.  There is no
randomized algorithm anywhere; --seed-free exists purely to document that.

Settings (--format and the quadrature controls) are declared once, as the
shared parser's actions; a --config file of key=value lines may set them too,
and AKZETA_FORMAT sets the format.  Each subcommand renders its result as a
JSON object, CSV rows and plain text, and one emitter prints the format asked
for.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from fractions import Fraction

from .exact import rational_to_json
from .polybernoulli import (
    poly_bernoulli_series,
    poly_bernoulli_umbral,
    route_disagreement,
    stirling_table,
)
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
# eleven times as long as the default one.
MAX_N = 100
MAX_K = 100
MAX_M = 100
MAX_TERMS = 10**7
MAX_VERIFY_N = 20
MAX_VERIFY_K = 5
MAX_VERIFY_M = 10


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code fixed at 64."""

    # dest -> (action, default) of each setting; filled by build_parser
    settings: dict

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


def _emit(fmt: str, obj, rows, text: str) -> None:
    """Print one result: obj as JSON with sorted keys, rows as CSV (the text
    when rows is None), or the plain text."""
    if fmt == "json":
        out = json.dumps(obj, sort_keys=True, indent=2)
    elif fmt == "csv" and rows is not None:
        out = "\n".join(",".join(map(str, row)) for row in rows)
    else:
        out = text
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

    if method == "series":
        table = poly_bernoulli_series(n, k, variant)
        poly = table.value(n)
    elif method == "umbral":
        poly = poly_bernoulli_umbral(n, k, variant)
    else:  # stirling
        poly = stirling_table(n, k, variant).value(n)

    print(f"method={method} variant={variant} n={n} k={k}", file=sys.stderr)
    if args.poly:
        coeffs = [poly.coefficient(i) for i in range(n + 1)]
        rows = [(i, c.numerator, c.denominator) for i, c in enumerate(coeffs)]
        _emit(args.format, [rational_to_json(c) for c in coeffs],
              [("degree", "num", "den")] + rows, str(poly))
    else:
        value = poly(z if z is not None else Fraction(0))
        _emit(args.format, rational_to_json(value),
              [("num", "den"), (value.numerator, value.denominator)], str(value))
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
        if args.inject_disagreement:
            numbers[min(1, n_max)] += 1
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
        [t.to_json() for t in tables],
        [("n", "k", "variant", "num", "den")]
        + [(n, t.k, t.variant, q.numerator, q.denominator) for t, n, q in entries],
        "\n".join(f"{t.variant}({n},{t.k}) = {q}" for t, n, q in entries),
    )
    return EXIT_OK


def _cmd_zeta(args, spec) -> int:
    from . import zetanum  # numpy loads only for the numeric commands

    k, m = args.k, args.m
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    if k > MAX_K or m > MAX_M:
        raise ValueError(f"need k <= {MAX_K} and m <= {MAX_M}")
    # the CSV row is flat and leaves out the moment tail bound
    obj: dict = {"k": k, "m": m}
    row = dict(obj)
    lines = [f"zeta_{k}({m}):"]
    if args.route in ("mellin", "both"):
        obj["mellin"] = row["mellin"] = mellin = zetanum.ak_zeta_mellin(k, m, spec.tolerance)
        lines.append(f"  mellin route: {mellin:.12g}")
    if args.route in ("moment", "both"):
        mo = zetanum.ak_zeta_moment(k, m, spec)
        obj["moment"] = mo.to_json()
        for key in ("value", "imag_residue", "convergence_delta"):
            row[f"moment_{key}"] = getattr(mo, key)
        lines.append(
            f"  moment route: {mo.value:.12g}  "
            f"(imag residue {mo.imag_residue:.2e}, delta {mo.convergence_delta:.2e})"
        )
    if args.route == "both":
        obj["discrepancy"] = row["discrepancy"] = gap = abs(mellin - mo.value)
        lines.append(f"  discrepancy:  {gap:.2e}")
    _emit(args.format, obj, [list(row), list(row.values())], "\n".join(lines))
    return EXIT_OK


def _cmd_mzv(args, spec) -> int:
    from . import zetanum

    try:
        exponents = tuple(int(s) for s in args.sig.split(","))
    except ValueError as e:
        raise ValueError(f"bad signature {args.sig!r}") from e
    if args.terms > MAX_TERMS:
        raise ValueError(f"need terms <= {MAX_TERMS}")
    sig = zetanum.MzSignature(exponents, args.starred)
    value, bound = zetanum.mz_truncated(sig, args.terms)
    star = "*" if args.starred else ""
    _emit(
        args.format,
        {
            "signature": list(exponents),
            "starred": args.starred,
            "terms": args.terms,
            "value": value,
            "tail_bound": bound,
        },
        [
            ("signature", "starred", "terms", "value", "tail_bound"),
            (f'"{args.sig}"', args.starred, args.terms, value, bound),
        ],
        f"zeta{star}({args.sig}) = {value:.12g} +- {bound:.3g}  (N={args.terms})",
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
    _emit(args.format, report.to_json(), None, report.to_text())
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
    setting("--w-cutoff", type=float, help="sech^2 axis truncation")
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
    num.add_argument("--method", choices=("series", "umbral", "stirling"), default="series")
    num.add_argument("--poly", action="store_true", help="print polynomial coefficients, low to high")
    num.add_argument("--z", help="evaluate the polynomial at this rational (e.g. 1/2)")
    num.set_defaults(func=_cmd_num)

    table = sub.add_parser("table", parents=[common], help="tables of values, cross-checked along all three routes")
    table.add_argument("--n-max", dest="n_max", type=int, required=True,
                       help=f"largest index, at most {MAX_N}")
    table.add_argument("--k-min", dest="k_min", type=int, default=1)
    table.add_argument("--k-max", dest="k_max", type=int, required=True,
                       help=f"largest order, at most {MAX_K}")
    table.add_argument("--variant", choices=("B", "C"), default="B")
    table.add_argument("--inject-disagreement", action="store_true",
                       help=argparse.SUPPRESS)  # negative-control test hook
    table.set_defaults(func=_cmd_table)

    zeta = sub.add_parser("zeta", parents=[common], help="Arakawa-Kaneko zeta at positive integers")
    zeta.add_argument("--k", type=int, required=True, help=f"order, at most {MAX_K}")
    zeta.add_argument("--m", type=int, required=True, help=f"argument, at most {MAX_M}")
    zeta.add_argument("--route", choices=("mellin", "moment", "both"), default="both")
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
                        help=f"largest zeta argument, at most {MAX_VERIFY_M}")
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
