"""Command line front end.

Subcommands cover semigroup inspection, curve construction, graded-basis
tables, exact divisor identities, interpolation determinants, period
matrices, theta evaluation, the Riemann constant, and the full verification
battery.  All heavy numeric state lives in PeriodEngine; the CLI is a thin
orchestration layer that maps package exceptions onto exit codes:

    0  success
    2  validation error (bad inputs, invalid family member)
    3  verification failure (an identity check missed its tolerance)
    4  precision failure (a result could not be certified at the working
       precision; only the periods are retried at an escalated one)

JSON output is byte-deterministic for fixed inputs and configuration: keys
are sorted, numbers are printed through mp.nstr at the configured precision,
and no timing data is included unless --timings is passed (it then lives
under the "meta" key, which comparisons should ignore).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

import mpmath as mp

from .config import RunConfig
from .curve import TrigonalCurve, roots_of_poly
from .divisor import (
    canonical_divisor,
    frak_B,
    frak_B1,
    semicanonical_D0,
    verify_semicanonical,
)
from .errors import (
    DegenerateBranching,
    PrecisionError,
    TrigjacError,
    ValidationError,
    VerificationError,
)
from .fsdet import mu_coefficients, mu_divisor_check, psi
from .periods import PeriodEngine
from .polyutil import Poly, gcd, to_mp
from .rconst import (
    match_published,
    random_effective_points,
    riemann_constant,
    shifted_constant,
    verify_shifted,
)
from .semigroup import conjugate_partition, from_generators, gap_profile
from .tables_ref import MAX_WEIGHT, PAIRS, R_ROWS, RB_ROWS
from .theta import ThetaChar, classify_vanishing, theta_value

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_PRECISION = 4


# -- output plumbing ---------------------------------------------------------


def _normalize(obj, digits: int):
    if isinstance(obj, dict):
        return {str(k): _normalize(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v, digits) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (mp.mpf, mp.mpc)):
        return mp.nstr(obj, digits)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return repr(obj)
    return str(obj)


def _emit(report: dict, args) -> None:
    digits = args.precision
    data = _normalize(report, digits)
    if args.format == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    elif args.format == "csv":
        _emit_csv(data)
    else:
        _emit_text(data)


def _emit_csv(data) -> None:
    for k, v in _flatten(data):
        print(f"{k},{v}")


def _flatten(data, prefix: str = ""):
    rows = []
    if isinstance(data, dict):
        for k in sorted(data):
            rows.extend(_flatten(data[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(data, list):
        for i, v in enumerate(data):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], data))
    return rows


def _emit_text(data, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k} = {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
                print()
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{data}")


# -- input parsing -----------------------------------------------------------


def _parse_number(tok: str, what: str, exact: bool = False):
    """One numeric token: a Fraction, or an mpc for a decimal or complex token.

    A token without any of the characters ".jJeE()" is a rational such as
    -3/2; any other is read by complex(), with i or j as the imaginary unit.
    With exact=True every token is read as a rational (1.5 is 3/2).  A
    malformed or non-finite token raises ValidationError.
    """
    t = tok.strip()
    try:
        if exact or not any(c in t for c in ".jJeE()"):
            return Fraction(t)
        z = mp.mpc(complex(t.replace("i", "j")))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {what} {tok!r}") from exc
    if not mp.isfinite(z):
        raise ValidationError(f"{what} {tok!r} is not finite")
    return z


def _parse_complex(tok: str, what: str):
    """A token of _parse_number as an mpc at the ambient precision."""
    return mp.mpc(to_mp(_parse_number(tok, what)))


def _branch_points(args):
    n_needed = args.r + args.s
    if getattr(args, "roots_of", None):
        coeffs = [
            _parse_number(t, "--roots-of coefficient", exact=True)
            for t in args.roots_of.split(",")
        ]
        if len(coeffs) != n_needed + 1 or coeffs[-1] == 0:
            raise ValidationError(
                f"--roots-of needs a degree-{n_needed} polynomial, got {args.roots_of!r}"
            )
        f = Poly(coeffs)
        if gcd(f, f.derivative()).degree > 0:
            raise DegenerateBranching("--roots-of polynomial has a repeated root")
        try:
            return roots_of_poly(coeffs)
        except mp.mp.NoConvergence as exc:
            raise ValidationError(f"--roots-of roots did not converge: {exc}") from exc
    toks = list(args.branch or [])
    if len(toks) != n_needed:
        raise ValidationError(
            f"expected {n_needed} branch points for (r, s) = ({args.r}, {args.s}), got {len(toks)}"
        )
    vals = [_parse_number(t, "branch point") for t in toks]
    if any(not isinstance(v, Fraction) for v in vals):
        vals = [mp.mpc(to_mp(v)) for v in vals]
    return vals


def _make_curve(args) -> TrigonalCurve:
    return TrigonalCurve(args.r, args.s, _branch_points(args))


def _make_config(args) -> RunConfig:
    return RunConfig(
        precision=args.precision,
        cache_dir=args.cache_dir,
        seed=args.seed,
    )


# -- subcommands -------------------------------------------------------------


def cmd_semigroup(args, config: RunConfig) -> tuple[dict, int]:
    H = from_generators([int(x) for x in args.generators])
    prof = gap_profile(H)
    report = {
        "generators": list(H.generators),
        "genus": H.genus,
        "conductor": H.conductor,
        "gaps": list(H.gaps),
        "symmetric": H.is_symmetric(),
        "alphas": list(prof.alphas),
        "partition": list(prof.young_rows),
        "partition_conjugate": list(conjugate_partition(prof.young_rows)),
        "young_diagram": ["#" * row for row in prof.young_rows],
        "elements_upto_conductor": H.elements_upto(H.conductor + 2),
    }
    return report, EXIT_OK


def cmd_curve(args, config: RunConfig) -> tuple[dict, int]:
    curve = _make_curve(args)
    H = from_generators([3, curve.wt_w, curve.wt_y])
    forms = [
        (f"x^{a} dx / {kind}" if a else f"dx / {kind}")
        for a, kind in curve.holomorphic_form_codes()
    ]
    report = {
        "r": curve.r,
        "s": curve.s,
        "genus": curve.genus,
        "generators": [3, curve.wt_w, curve.wt_y],
        "gaps": list(H.gaps),
        "symmetric": H.is_symmetric(),
        "exact": curve.exact,
        "fingerprint": curve.fingerprint(),
        "holomorphic_forms": forms,
        "branch_points": [
            {
                "x": b,
                "type": "A" if i < curve.s else "B",
                "monodromy_exponent": curve.branch_exponent(i),
                "ord_w": curve.ord_w_at(i),
                "ord_y": curve.ord_y_at(i),
            }
            for i, b in enumerate(curve.branch_points)
        ],
    }
    return report, EXIT_OK


def _monomial_str(mon) -> str:
    a, b, c = mon
    parts = []
    if a == 1:
        parts.append("x")
    elif a > 1:
        parts.append(f"x^{a}")
    if b:
        parts.append("w")
    if c:
        parts.append("y")
    return " ".join(parts) if parts else "1"


def cmd_tables(args, config: RunConfig) -> tuple[dict, int]:
    curve = TrigonalCurve(args.r, args.s, _default_branch(args.r, args.s))
    mw = args.max_weight
    tr = curve.basis_R(mw)
    trb = curve.basis_RB(mw)
    report = {
        "r": args.r,
        "s": args.s,
        "max_weight": mw,
        "R": [{"weight": wt, "monomial": _monomial_str(mon)} for wt, mon in tr.rows],
        "RB": [{"weight": wt, "monomial": _monomial_str(mon)} for wt, mon in trb.rows],
    }
    code = EXIT_OK
    if args.check_published:
        key = (args.r, args.s)
        if key not in PAIRS:
            raise ValidationError(
                f"no published table row for (r, s) = {key}; available: {PAIRS}"
            )
        bound = min(mw, MAX_WEIGHT)
        got_r = tuple(w for w in tr.occupied_weights if w <= bound)
        got_rb = tuple(w for w in trb.occupied_weights if w <= bound)
        want_r = tuple(w for w in R_ROWS[key] if w <= bound)
        want_rb = tuple(w for w in RB_ROWS[key] if w <= bound)
        report["check"] = {
            "R_ok": got_r == want_r,
            "RB_ok": got_rb == want_rb,
            "R_expected": list(want_r),
            "RB_expected": list(want_rb),
        }
        if not (got_r == want_r and got_rb == want_rb):
            code = EXIT_VERIFICATION
    return report, code


def _default_branch(r: int, s: int):
    # tables depend only on the weights, not on branch values
    return [Fraction(k + 1) for k in range(r + s)]


def cmd_divisor(args, config: RunConfig) -> tuple[dict, int]:
    curve = _make_curve(args)
    report = verify_semicanonical(curve)
    report["canonical"] = canonical_divisor(curve).to_json()
    report["semicanonical_D0"] = semicanonical_D0(curve).to_json()
    report["frak_B"] = frak_B(curve).to_json()
    report["frak_B1"] = frak_B1(curve).to_json()
    return report, EXIT_OK if report["ok"] else EXIT_VERIFICATION


def cmd_periods(args, config: RunConfig) -> tuple[dict, int]:
    curve = _make_curve(args)
    engine = PeriodEngine(curve, config)
    data = engine.compute()
    g = curve.genus
    report = {
        "fingerprint": curve.fingerprint(),
        "precision": config.precision,
        "cache_key": engine.cache_key(),
        "genus": g,
        "swapped_pairs": data.swapped,
        "tau": [[data.tau[i, j] for j in range(g)] for i in range(g)],
        "diagnostics": dict(data.diagnostics),
    }
    return report, EXIT_OK


def _parse_char(text: str, g: int) -> ThetaChar:
    try:
        top_s, bot_s = text.split(";")
        top = tuple(Fraction(t) for t in top_s.split(","))
        bottom = tuple(Fraction(t) for t in bot_s.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse characteristic {text!r}") from exc
    if len(top) != g or len(bottom) != g:
        raise ValidationError(f"characteristic needs {g} entries per row")
    char = ThetaChar(top=top, bottom=bottom)
    if not char.is_half_integer():
        raise ValidationError(f"characteristic {text!r} is not half-integer")
    return char


def cmd_theta(args, config: RunConfig) -> tuple[dict, int]:
    curve = _make_curve(args)
    g = curve.genus
    char = _parse_char(args.char, g) if args.char else None
    if args.z:
        zs = [_parse_complex(t, "--z component") for t in args.z.split(",")]
        if len(zs) != g:
            raise ValidationError(f"z needs {g} components")
    else:
        zs = [mp.mpc(0)] * g
    data = PeriodEngine(curve, config).compute()
    value, scale = theta_value(zs, data.tau, char)
    band = classify_vanishing(abs(value), scale, config)
    report = {
        "genus": g,
        "characteristic": char.to_json() if char else None,
        "parity": char.parity() if char else 1,
        "z": zs,
        "value": value,
        "scale": scale,
        "vanishing": band,
    }
    return report, EXIT_OK


def _shifted_fields(sc) -> dict:
    """The report fields of a shifted constant that rc and verify share."""
    return {
        "characteristic": sc.char.to_json(),
        "parity": sc.char.parity(),
        "char_residual": sc.char_residual,
        "two_delta_s_lattice_dist": sc.lattice_dist_2delta_s,
        "unshifted_is_half_period": sc.unshifted_is_half_period,
    }


def cmd_rc(args, config: RunConfig) -> tuple[dict, int]:
    curve = _make_curve(args)
    engine = PeriodEngine(curve, config)
    rc = riemann_constant(engine)
    sc = shifted_constant(engine)
    report = {
        "delta": list(rc.delta),
        "offset_bits": [list(b) for b in rc.offset_bits],
        "decisive_rounds": rc.decisive_rounds,
        "delta_s": list(sc.delta_s),
        **_shifted_fields(sc),
    }
    code = EXIT_OK
    if args.check_published:
        pub = match_published(engine)
        report["published"] = pub
        if pub["applicable"] and not pub["ok"]:
            code = EXIT_VERIFICATION
    return report, code


def _parse_point(curve: TrigonalCurve, tok: str):
    xs, comma, ss = tok.rpartition(",")
    if not comma:
        raise ValidationError(f"--points entry {tok!r} is not X,SHEET")
    sheet = _parse_number(ss, "--points sheet", exact=True)
    if sheet.denominator != 1:
        raise ValidationError(f"--points sheet {ss!r} is not an integer")
    return curve.point(_parse_complex(xs, "--points x"), sheet=int(sheet))


def _seeded_points(curve: TrigonalCurve, config: RunConfig, n: int):
    """The n interpolation points that fs and verify draw when none are given."""
    return random_effective_points(curve, n, random.Random(config.seed + 9))


def cmd_fs(args, config: RunConfig) -> tuple[dict, int]:
    curve = _make_curve(args)
    engine = PeriodEngine(curve, config)
    n = args.n if args.n is not None else max(curve.genus - 1, 1)
    if args.points:
        pts = [_parse_point(curve, tok) for tok in args.points.split(";")]
        if args.n is not None and len(pts) != n:
            raise ValidationError(f"--points gave {len(pts)} points, --n asked {n}")
        n = len(pts)
    else:
        pts = _seeded_points(curve, config, n)
    psi_val = psi(curve, pts)
    mufn = mu_coefficients(curve, pts)
    report = mu_divisor_check(engine, pts)
    report["psi"] = psi_val
    report["mu_coefficients"] = list(mufn.coefficients)
    report["points"] = [{"x": pt.x, "sheet": pt.sheet} for pt in pts]
    return report, EXIT_OK if report["ok"] else EXIT_VERIFICATION


def cmd_verify(args, config: RunConfig) -> tuple[dict, int]:
    curve = _make_curve(args)
    stages: dict[str, object] = {}
    failed = None

    semi = verify_semicanonical(curve)
    stages["semicanonical"] = {"ok": semi["ok"], "report": semi}
    if not semi["ok"]:
        failed = "semicanonical"

    engine = PeriodEngine(curve, config)
    data = engine.compute()
    stages["periods"] = {
        "ok": True,
        "diagnostics": dict(data.diagnostics),
        "cache_key": engine.cache_key(),
    }

    rc = riemann_constant(engine)
    stages["riemann_constant"] = {
        "ok": True,
        "decisive_rounds": rc.decisive_rounds,
        "offset_bits": [list(b) for b in rc.offset_bits],
    }

    # shifted_constant raises NotHalfPeriod unless 2*delta_s is on the lattice
    sc = shifted_constant(engine)
    stages["shifted_constant"] = {"ok": True, **_shifted_fields(sc)}

    shifted = verify_shifted(engine)
    stages["shifted_theorems"] = {"ok": shifted["ok"], "report": shifted}
    if failed is None and not shifted["ok"]:
        failed = "shifted_theorems"

    pub = match_published(engine)
    if pub["applicable"]:
        stages["published_characteristic"] = pub
        if failed is None and not pub["ok"]:
            failed = "published_characteristic"

    pts = _seeded_points(curve, config, max(curve.genus - 1, 1))
    fs_report = mu_divisor_check(engine, pts)
    stages["jacobi_inversion"] = {"ok": fs_report["ok"], "report": fs_report}
    if failed is None and not fs_report["ok"]:
        failed = "jacobi_inversion"

    report = {
        "fingerprint": curve.fingerprint(),
        "precision": config.precision,
        "stages": stages,
        "failed_stage": failed,
        "ok": failed is None,
    }
    return report, EXIT_OK if failed is None else EXIT_VERIFICATION


# -- argument wiring ----------------------------------------------------------


def _add_curve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("branch", nargs="*", help="branch points: rationals like 3/2 route the exact layer, decimals/complex force numerics")
    p.add_argument("--roots-of", default=None, metavar="C0,C1,...",
                   help="use the roots of the polynomial with these low-to-high rational coefficients as branch points")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trigjac",
        description="Pointed cyclic trigonal curves: semigroups, periods, theta, Riemann constants.",
    )
    ap.add_argument("--precision", type=int, default=40, help="working decimal digits (default 40)")
    ap.add_argument("--format", choices=("json", "csv", "text"), default="json")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--seed", type=int, default=20260814)
    ap.add_argument("--timings", action="store_true", help="include wall-clock metadata under 'meta'")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", help="gaps, genus, symmetry, partition data")
    p.add_argument("generators", nargs="+", type=int)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("curve", help="validate a family member and print its invariants")
    _add_curve_args(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("tables", help="graded monomial tables for R and R^B")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--max-weight", type=int, default=MAX_WEIGHT)
    p.add_argument("--check-published", action="store_true",
                   help="compare occupied weights against the embedded reference rows")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("divisor", help="exact canonical/semicanonical divisor identities")
    _add_curve_args(p)
    p.set_defaults(func=cmd_divisor)

    p = sub.add_parser("periods", help="period matrices and the Riemann matrix tau")
    _add_curve_args(p)
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("theta", help="theta value with optional half-integer characteristic")
    _add_curve_args(p)
    p.add_argument("--char", default=None, metavar="T1,..;B1,..")
    p.add_argument("--z", default=None, metavar="Z1,Z2,...")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("rc", help="Riemann constant, shifted constant, characteristic")
    _add_curve_args(p)
    p.add_argument("--check-published", action="store_true")
    p.set_defaults(func=cmd_rc)

    p = sub.add_parser("fs", help="interpolation determinants and the divisor class check")
    _add_curve_args(p)
    p.add_argument("--n", type=int, default=None, help="number of interpolation points (default g-1)")
    p.add_argument("--points", default=None, metavar="X,SHEET;X,SHEET;...")
    p.set_defaults(func=cmd_fs)

    p = sub.add_parser("verify", help="full verification battery; exit 0 iff every stage passes")
    _add_curve_args(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        config = _make_config(args)
        # every command, numeric branch points and A, B included, runs at the
        # working precision; _emit prints at the requested one
        with mp.workdps(config.working_dps):
            report, code = args.func(args, config)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except TrigjacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    if args.timings:
        report["meta"] = {"seconds": round(time.time() - t0, 3)}
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
