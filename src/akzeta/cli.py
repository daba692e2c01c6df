"""Command-line front end: exact poly-Bernoulli values and tables, numerical
zeta evaluation along independent routes, truncated multiple zeta sums, and
the identity verification suite, all with machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 internal cross-check or
convergence failure, 64 usage error.  Rationals are printed as decimal-string
num/den pairs, never floats, so exactness survives pipelines.  There is no
randomized algorithm anywhere; --seed-free exists purely to document that.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .exact import rational_to_json
from .polybernoulli import (
    poly_bernoulli_series,
    poly_bernoulli_umbral,
    route_disagreement,
    stirling_table,
)
from .umbral import DEFAULT_EXPANSION_CAP, ExpansionCapError, set_expansion_cap
from .verify import SUITES, VerifyConfig, run_all
from . import zetanum

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CROSSCHECK_FAIL = 2
EXIT_USAGE = 64

FORMATS = ("json", "csv", "plain")

# Largest n and k for `num` and `table` (k also for `zeta`), largest
# `zeta --m`, and largest `mzv --terms` (arrays of length terms + 1): at
# n = 100 the series route already takes seconds per k, and the Mellin route
# divides by (m-1)!, which overflows a double beyond m = 171.
MAX_N = 100
MAX_K = 100
MAX_M = 100
MAX_TERMS = 10**7


@dataclass
class CliConfig:
    """Validated runtime options; flags override config-file values, which
    override these defaults.  AKZETA_FORMAT sets the default output format."""

    tolerance: float = 1e-8
    panels: int | None = None
    nodes: int | None = None
    levels: int | None = None
    u_nodes: int | None = None
    w_cutoff: float | None = None
    expansion_cap: int = DEFAULT_EXPANSION_CAP
    format: str = "json"

    def validate(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if not (0 < self.tolerance < 1):
            raise ValueError("tolerance must be in (0, 1)")
        for name in ("panels", "nodes", "levels", "u_nodes"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.w_cutoff is not None and self.w_cutoff <= 0:
            raise ValueError("w_cutoff must be positive")
        if self.expansion_cap < 1:
            raise ValueError("expansion_cap must be >= 1")

    def quadrature_spec(self, k: int) -> zetanum.QuadratureSpec:
        spec = zetanum.default_spec(k)
        overrides = {}
        if self.panels is not None:
            overrides["panels"] = self.panels
        if self.nodes is not None:
            overrides["nodes"] = self.nodes
        if self.levels is not None:
            overrides["levels"] = self.levels
        if self.u_nodes is not None:
            overrides["u_nodes"] = self.u_nodes
        if self.w_cutoff is not None:
            overrides["w_cutoff"] = self.w_cutoff
        overrides["tolerance"] = self.tolerance
        return replace(spec, **overrides)


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code fixed at 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


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


def _build_config(args) -> CliConfig:
    cfg = CliConfig()
    env_fmt = os.environ.get("AKZETA_FORMAT")
    if env_fmt:
        cfg.format = env_fmt
    config_path = getattr(args, "config", None)
    if config_path:
        raw = _load_config_file(config_path)
        casts = {
            "tolerance": float,
            "panels": int,
            "nodes": int,
            "levels": int,
            "u_nodes": int,
            "w_cutoff": float,
            "expansion_cap": int,
            "format": str,
        }
        for key, val in raw.items():
            if key not in casts:
                raise ValueError(f"unknown config key: {key}")
            setattr(cfg, key, casts[key](val))
    for name in ("tolerance", "panels", "nodes", "levels", "u_nodes", "w_cutoff",
                 "expansion_cap", "format"):
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    cfg.validate()
    return cfg


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_num(args, cfg: CliConfig) -> int:
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
        if cfg.format == "json":
            _emit(_json_text([rational_to_json(c) for c in coeffs]))
        elif cfg.format == "csv":
            lines = ["degree,num,den"] + [
                f"{i},{c.numerator},{c.denominator}" for i, c in enumerate(coeffs)
            ]
            _emit("\n".join(lines))
        else:
            _emit(str(poly))
        return EXIT_OK
    value = poly(z if z is not None else Fraction(0))
    if cfg.format == "json":
        _emit(_json_text(rational_to_json(value)))
    elif cfg.format == "csv":
        _emit(f"num,den\n{value.numerator},{value.denominator}")
    else:
        _emit(str(value))
    return EXIT_OK


def _cmd_table(args, cfg: CliConfig) -> int:
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
    if cfg.format == "json":
        _emit(_json_text([t.to_json() for t in tables]))
    elif cfg.format == "plain":
        lines = []
        for t in tables:
            for n in range(n_max + 1):
                lines.append(f"{t.variant}({n},{t.k}) = {t.number(n)}")
        _emit("\n".join(lines))
    else:
        chunks = ["n,k,variant,num,den"]
        for t in tables:
            chunks.extend(t.to_csv().splitlines()[1:])
        _emit("\n".join(chunks))
    return EXIT_OK


def _cmd_zeta(args, cfg: CliConfig) -> int:
    k, m = args.k, args.m
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    if k > MAX_K or m > MAX_M:
        raise ValueError(f"need k <= {MAX_K} and m <= {MAX_M}")
    spec = cfg.quadrature_spec(k)
    out: dict = {"k": k, "m": m}
    if args.route in ("mellin", "both"):
        out["mellin"] = zetanum.ak_zeta_mellin(k, m, cfg.tolerance)
    if args.route in ("moment", "both"):
        res = zetanum.ak_zeta_moment(k, m, spec)
        out["moment"] = res.to_json()
    if args.route == "both":
        out["discrepancy"] = abs(out["mellin"] - out["moment"]["value"])
    if cfg.format == "json":
        _emit(_json_text(out))
    elif cfg.format == "csv":
        keys = ["k", "m"]
        vals = [str(k), str(m)]
        if "mellin" in out:
            keys.append("mellin")
            vals.append(repr(out["mellin"]))
        if "moment" in out:
            for key in ("value", "imag_residue", "convergence_delta"):
                keys.append(f"moment_{key}")
                vals.append(repr(out["moment"][key]))
        if "discrepancy" in out:
            keys.append("discrepancy")
            vals.append(repr(out["discrepancy"]))
        _emit(",".join(keys) + "\n" + ",".join(vals))
    else:
        lines = [f"zeta_{k}({m}):"]
        if "mellin" in out:
            lines.append(f"  mellin route: {out['mellin']:.12g}")
        if "moment" in out:
            mo = out["moment"]
            lines.append(
                f"  moment route: {mo['value']:.12g}  "
                f"(imag residue {mo['imag_residue']:.2e}, delta {mo['convergence_delta']:.2e})"
            )
        if "discrepancy" in out:
            lines.append(f"  discrepancy:  {out['discrepancy']:.2e}")
        _emit("\n".join(lines))
    return EXIT_OK


def _cmd_mzv(args, cfg: CliConfig) -> int:
    try:
        exponents = tuple(int(s) for s in args.sig.split(","))
    except ValueError as e:
        raise ValueError(f"bad signature {args.sig!r}") from e
    if args.terms > MAX_TERMS:
        raise ValueError(f"need terms <= {MAX_TERMS}")
    sig = zetanum.MzSignature(exponents, args.starred)
    value, bound = zetanum.mz_truncated(sig, args.terms)
    out = {
        "signature": list(exponents),
        "starred": args.starred,
        "terms": args.terms,
        "value": value,
        "tail_bound": bound,
    }
    if cfg.format == "json":
        _emit(_json_text(out))
    elif cfg.format == "csv":
        _emit(
            "signature,starred,terms,value,tail_bound\n"
            f"\"{args.sig}\",{args.starred},{args.terms},{value!r},{bound!r}"
        )
    else:
        star = "*" if args.starred else ""
        _emit(f"zeta{star}({args.sig}) = {value:.12g} +- {bound:.3g}  (N={args.terms})")
    return EXIT_OK


def _cmd_verify(args, cfg: CliConfig) -> int:
    vconf = VerifyConfig(
        n_max=args.max_n,
        k_max=args.max_k,
        m_max=args.max_m,
        suite=args.suite,
        corrupt=args.corrupt,
    )
    report = run_all(vconf)
    if cfg.format == "json":
        _emit(report.to_json_text())
    else:
        _emit(report.to_text())
    return EXIT_VERIFY_FAIL if report.has_failures else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    # shared flags accepted both before and after the subcommand; SUPPRESS
    # defaults keep a subparser from clobbering a value parsed by the parent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS,
                        help="output format (default json; env AKZETA_FORMAT)")
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file; flags take precedence")
    common.add_argument("--tolerance", type=float, default=argparse.SUPPRESS,
                        help="target tolerance for numerical routes")
    common.add_argument("--panels", type=int, default=argparse.SUPPRESS,
                        help="starting quadrature panels per axis")
    common.add_argument("--nodes", type=int, default=argparse.SUPPRESS,
                        help="Gauss-Legendre nodes per panel")
    common.add_argument("--levels", type=int, default=argparse.SUPPRESS,
                        help="maximum refinement levels")
    common.add_argument("--u-nodes", dest="u_nodes", type=int, default=argparse.SUPPRESS,
                        help="nodes on the inner unit-interval axis of the k = 3 "
                             "moment (the outermost one is integrated exactly)")
    common.add_argument("--w-cutoff", dest="w_cutoff", type=float, default=argparse.SUPPRESS,
                        help="sech^2 axis truncation")
    common.add_argument("--expansion-cap", dest="expansion_cap", type=int,
                        default=argparse.SUPPRESS,
                        help="monomial cap for the sparse symbolic expansion used "
                             "by the cube/simplex transforms and verify")
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
    verify.add_argument("--max-n", dest="max_n", type=int, default=15)
    verify.add_argument("--max-k", dest="max_k", type=int, default=4)
    verify.add_argument("--max-m", dest="max_m", type=int, default=5)
    verify.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        set_expansion_cap(cfg.expansion_cap)
        return args.func(args, cfg)
    except (ValueError, OSError) as e:
        print(f"akzeta: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ExpansionCapError as e:
        print(f"akzeta: expansion cap exceeded: {e}", file=sys.stderr)
        return EXIT_USAGE
    except zetanum.ConvergenceError as e:
        print(f"akzeta: convergence failure: {e}", file=sys.stderr)
        return EXIT_CROSSCHECK_FAIL


if __name__ == "__main__":
    sys.exit(main())
