"""Command-line surface: exit codes, formats, and byte-determinism of reports."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import trigjac
from trigjac import PeriodEngine, RunConfig, TrigonalCurve
from trigjac.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFICATION,
    main,
)
from trigjac.curve import roots_of_poly

CURVE12 = ["1", "2", "0", "1", "--", "-1"]
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("clicache"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_semigroup_json(capsys):
    code, out, _ = run(capsys, "semigroup", "3", "4", "5")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["gaps"] == [1, 2]
    assert data["genus"] == 2
    assert data["symmetric"] is False
    assert data["partition"] == sorted(data["partition"], reverse=True)


def test_semigroup_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "semigroup", "4", "6")
    assert code == EXIT_VALIDATION
    assert "validation error" in err


def test_curve_invariants(capsys):
    # option-style negatives go after a lone --; flags must precede positionals
    code, out, _ = run(capsys, "curve", *CURVE12)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["genus"] == 2
    assert data["generators"] == [3, 4, 5]
    assert data["exact"] is True
    types = [b["type"] for b in data["branch_points"]]
    assert types == ["A", "A", "B"]
    assert len(data["holomorphic_forms"]) == 2


def test_curve_wrong_branch_count(capsys):
    code, _, err = run(capsys, "curve", "1", "2", "0", "1")
    assert code == EXIT_VALIDATION
    assert "expected 3 branch points" in err


def test_curve_invalid_family(capsys):
    # s + 2r = 3 makes w^3 = A B^2 reducible over the weight grading
    code, _, err = run(capsys, "curve", "1", "1", "0", "1")
    assert code == EXIT_VALIDATION


def test_curve_unparsable_branch_token(capsys):
    code, _, err = run(capsys, "curve", "1", "2", "0", "1", "zzz")
    assert code == EXIT_VALIDATION
    assert "cannot parse" in err


def test_curve_roots_of_polynomial(capsys):
    code, out, _ = run(capsys, "curve", "0", "4", "--roots-of", "1,0,0,0,1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["genus"] == 3
    assert data["exact"] is False
    assert all(b["type"] == "A" for b in data["branch_points"])


@pytest.mark.parametrize("rs, coeffs, want", [
    # x^2 + x + 1e300 and 1e-300 x^2 + 1: roots near +-1e150 i
    ("0 2", "1e300,1,1", [-1e150j, 1e150j]),
    ("0 2", "1,0,1e-300", [-1e150j, 1e150j]),
    # roots from 1e-300 to 1e300: the scaled solve fails, the unscaled one succeeds
    ("0 4", "1,1e300,1e-300,1e300,1", [-1j, -1e300, 0, 1j]),
], ids=["big-constant", "tiny-leading", "wide-spread"])
def test_curve_roots_of_badly_scaled_polynomial(capsys, rs, coeffs, want):
    code, out, err = run(capsys, "curve", *rs.split(), "--roots-of", coeffs)
    assert code == EXIT_OK, err
    xs = [complex(b["x"].replace(" ", "")) for b in json.loads(out)["branch_points"]]
    for z, w in zip(sorted(xs, key=lambda z: (z.imag, z.real)), want):
        assert abs(z - w) < 1e-10 * max(1, abs(w)), (z, w)


def test_tables_check_published_ok(capsys):
    code, out, _ = run(capsys, "tables", "1", "3", "--check-published")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["check"]["R_ok"] is True
    assert data["check"]["RB_ok"] is True


def test_tables_check_published_unknown_pair(capsys):
    code, _, err = run(capsys, "tables", "1", "2", "--check-published")
    assert code == EXIT_VALIDATION
    assert "no published table row" in err


def test_format_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "semigroup", "3", "4", "5")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "genus,2" in lines
    assert "gaps.0,1" in lines and "gaps.1,2" in lines


def test_format_text(capsys):
    code, out, _ = run(capsys, "--format", "text", "semigroup", "3", "4", "5")
    assert code == EXIT_OK
    assert "genus = 2" in out.splitlines()


def test_timings_meta(capsys):
    code, out, _ = run(capsys, "--timings", "semigroup", "3", "4", "5")
    assert code == EXIT_OK
    data = json.loads(out)
    assert float(data["meta"]["seconds"]) >= 0.0


def test_periods_json_byte_deterministic(capsys, cache_dir, tmp_path):
    base = ["--precision", "20", "periods", *CURVE12]
    _, cold, _ = run(capsys, "--cache-dir", cache_dir, *base)
    _, warm, _ = run(capsys, "--cache-dir", cache_dir, *base)
    _, fresh, _ = run(capsys, "--cache-dir", str(tmp_path / "never"), *base)
    assert cold == warm == fresh
    data = json.loads(cold)
    assert data["genus"] == 2
    assert len(data["tau"]) == 2
    # one cache entry per curve; reruns reuse it instead of appending
    import os

    assert len(os.listdir(cache_dir)) == 1


def test_theta_with_characteristic(capsys, cache_dir):
    # subcommand flags must precede the positionals once -- is in play
    code, out, _ = run(
        capsys, "--precision", "20", "--cache-dir", cache_dir,
        "theta", "--char", "1/2,0;0,1/2", *CURVE12,
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["parity"] == 1
    assert data["vanishing"] in (True, False, None)
    assert "value" in data and "scale" in data


def test_theta_bad_characteristic(capsys, cache_dir):
    code, _, err = run(
        capsys, "--precision", "20", "--cache-dir", cache_dir,
        "theta", "--char", "1/2;0", *CURVE12,
    )
    assert code == EXIT_VALIDATION
    assert "2 entries" in err


def test_theta_non_half_integer_characteristic(capsys, cache_dir):
    code, _, err = run(
        capsys, "--precision", "20", "--cache-dir", cache_dir,
        "theta", "--char", "1/3,0;0,0", *CURVE12,
    )
    assert code == EXIT_VALIDATION
    assert "not half-integer" in err and "Traceback" not in err


def test_precision_below_floor_is_a_validation_error(capsys):
    code, out, err = run(capsys, "--precision", "10", "semigroup", "3", "4", "5")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "at least 20" in err


@pytest.mark.parametrize("argv, message", [
    (["curve", "1", "2", "0", "1", "--roots-of", "x"], "cannot parse"),
    (["curve", "1", "2", "0", "1", "1e400"], "not finite"),
    (["curve", "1", "2", "0", "1", "1/0"], "cannot parse"),
    (["curve", "1", "2", "--roots-of", "1,2,1,0"], "degree-3 polynomial"),
    (["curve", "0", "2", "--roots-of", "1,2,1"], "repeated root"),
    # roots spread over 150 decades defeat the solve, scaled or not
    (["curve", "0", "4", "--roots-of", "1e200,1e150,1e200,1e150,1"], "did not converge"),
    (["theta", "--z", "abc", "1", "2", "0", "1", "--", "-1"], "cannot parse"),
    (["theta", "--z", "0,nanj", "1", "2", "0", "1", "--", "-1"], "not finite"),
    (["fs", "--points", "bad", "1", "2", "0", "1", "--", "-1"], "X,SHEET"),
    (["fs", "--points", "0.3,x", "1", "2", "0", "1", "--", "-1"], "cannot parse"),
    (["fs", "--points", "0.3,1/2", "1", "2", "0", "1", "--", "-1"], "not an integer"),
])
def test_malformed_numbers_are_validation_errors(capsys, monkeypatch, argv, message):
    # every input is rejected before any period is computed
    def no_compute(self):
        raise AssertionError("periods computed before the input was checked")

    monkeypatch.setattr(PeriodEngine, "compute", no_compute)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VALIDATION, err
    assert out == "" and message in err and "Traceback" not in err


number_tokens = st.one_of(
    st.fractions(max_denominator=50).map(str),
    st.floats().map(repr),
    st.complex_numbers().map(str),
    st.text(alphabet="0123456789/.+-eEjJi()x ", max_size=8),
).filter(lambda t: t != "--")


@given(
    st.sampled_from([(1, 2), (0, 2), (2, 1), (1, 1), (0, 4)]),
    st.lists(number_tokens, max_size=5),
    st.none() | st.text(alphabet="0123456789/.,-e ", max_size=12),
)
@settings(max_examples=80, deadline=None)
def test_property_curve_argv_exits_0_or_2(rs, tokens, roots_of):
    # curve computes no periods, so arbitrary argv stays cheap
    argv = ["curve"]
    if roots_of is not None:
        argv.append(f"--roots-of={roots_of}")
    argv += [str(rs[0]), str(rs[1]), "--", *tokens]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION), (argv, err.getvalue())
    if code == EXIT_VALIDATION:
        assert out.getvalue() == "" and "validation error" in err.getvalue()
    else:
        assert json.loads(out.getvalue())["genus"] == rs[0] + rs[1] - 1


def test_rc_shifted_constant(capsys, cache_dir):
    code, out, _ = run(
        capsys, "--precision", "20", "--cache-dir", cache_dir, "rc", *CURVE12
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["unshifted_is_half_period"] is False
    assert float(data["two_delta_s_lattice_dist"]) < 1e-8
    assert float(data["char_residual"]) < 1e-8
    # Fraction reprs; the characteristic must be half-integer
    halves = data["characteristic"]["top"] + data["characteristic"]["bottom"]
    assert all(v in ("0", "1/2") for v in halves)


def test_fs_explicit_points(capsys, cache_dir):
    code, out, _ = run(
        capsys, "--precision", "20", "--cache-dir", cache_dir,
        "fs", "--points", "1.25,0", *CURVE12,
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["points"]) == 1


def test_fs_points_count_mismatch(capsys, cache_dir):
    code, _, err = run(
        capsys, "--precision", "20", "--cache-dir", cache_dir,
        "fs", "--n", "2", "--points", "1.25,0", *CURVE12,
    )
    assert code == EXIT_VALIDATION


def test_verify_battery_passes(capsys, cache_dir):
    code, out, _ = run(
        capsys, "--precision", "20", "--cache-dir", cache_dir, "verify", *CURVE12
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] is True
    assert data["failed_stage"] is None
    assert set(data["stages"]) == {
        "semicanonical", "periods", "riemann_constant",
        "shifted_constant", "shifted_theorems", "jacobi_inversion",
    }


def test_periods_roots_at_working_precision(capsys):
    # the roots of x^3 + x + 1 are not dyadic: an engine that held them at
    # double precision moved tau by 1.6e-17
    code, out, err = run(
        capsys, "--precision", "30", "periods", "--roots-of", "1,1,0,1", "1", "2"
    )
    assert code == EXIT_OK, err
    cfg = RunConfig(precision=30)
    with mp.workdps(cfg.working_dps):
        roots = roots_of_poly([Fraction(1), Fraction(1), Fraction(0), Fraction(1)])
        tau = PeriodEngine(TrigonalCurve(1, 2, roots), cfg).compute().tau
    want = [[mp.nstr(tau[i, j], 30) for j in range(2)] for i in range(2)]
    assert json.loads(out)["tau"] == want


# Residuals at rounding level may move with the order of floating-point
# operations; each stays under the tolerance its ok flag uses.
def _residual_tolerances(precision: int) -> dict:
    cfg = RunConfig(precision=precision)
    return {
        "char_residual": cfg.lattice_tol,
        "abel_residual": cfg.lattice_tol,
        "class_residual": cfg.lattice_tol,
        "vanishing_worst_rel": cfg.vanish_tol,
        "plain_shift_worst_rel": cfg.vanish_tol,
        "symmetric_divisor_rel": cfg.vanish_tol,
        "parity_numeric_err": mp.mpf(10) ** -(precision // 2),
    }


def _assert_matches_golden(got, want, tols, path="report"):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            if k in tols:
                assert mp.mpf(got[k]) <= tols[k], (f"{path}.{k}", got[k])
            else:
                _assert_matches_golden(got[k], want[k], tols, f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_matches_golden(a, b, tols, f"{path}[{i}]")
    else:
        assert got == want, (path, got, want)


@pytest.mark.parametrize("golden, precision, argv", [
    ("verify_1_2_p20.json", 20, ["verify", *CURVE12]),
    ("fs_1_3_p40.json", 40, ["fs", "1", "3", "0", "1", "-1", "2"]),
    ("fs_1_2_third_p40.json", 40, ["fs", "1", "2", "0", "1/3", "--", "-1"]),
    ("fs_1_2_confluent_p40.json", 40, ["fs", "--points", "1.25,0;1.25,0", *CURVE12]),
    ("fs_1_2_decimal_p30.json", 30, ["fs", "1", "2", "0.5", "1", "--", "-1"]),
    ("rc_1_2_p20.json", 20, ["rc", *CURVE12]),
    ("rc_1_3_p20.json", 20, ["rc", "1", "3", "0", "1", "-1", "2"]),
], ids=["verify", "fs", "fs-non-dyadic", "fs-confluent", "fs-decimal", "rc", "rc-genus-3"])
def test_report_matches_golden_output(capsys, golden, precision, argv):
    code, out, err = run(capsys, "--precision", str(precision), *argv)
    assert code == EXIT_OK, err
    with open(os.path.join(DATA, golden)) as fh:
        want = json.load(fh)
    _assert_matches_golden(json.loads(out), want, _residual_tolerances(precision))


@pytest.mark.parametrize("golden, argv", [
    ("divisor_roots_quartic_p30.json", ["divisor", "0", "4", "--roots-of", "1,0,0,0,1"]),
    ("curve_1_2_numeric_p30.json", ["curve", "1", "2", "0.5", "1", "--", "-1"]),
], ids=["divisor-roots-of", "curve-decimal"])
def test_numeric_curve_report_matches_golden_bytes(capsys, golden, argv):
    code, out, err = run(capsys, "--precision", "30", *argv)
    assert code == EXIT_OK, err
    with open(os.path.join(DATA, golden)) as fh:
        assert out == fh.read()


def test_cache_entry_at_another_precision_is_not_reused(capsys, tmp_path):
    # a 40-digit entry carries 40-digit quadrature diagnostics and tau; a
    # 20-digit run that reused it would report them instead of its own
    argv = ["--precision", "20", "verify", *CURVE12]
    code, cold, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    cache = ["--cache-dir", str(tmp_path)]
    assert run(capsys, *cache, "--precision", "40", "periods", *CURVE12)[0] == EXIT_OK
    code, warm, err = run(capsys, *cache, *argv)
    assert code == EXIT_OK, err
    assert warm == cold


def test_periods_matches_golden_bytes_cold_and_warm(capsys, tmp_path):
    # the warm runs re-derive tau and the diagnostics from the cached chord
    # integrals; every run must print the same bytes as the cold one
    argv = ["--precision", "40", "periods", "--roots-of", "1,0,0,0,1", "0", "4"]
    with open(os.path.join(DATA, "periods_quartic_p40.json")) as fh:
        want = fh.read()
    for cache in ([], ["--cache-dir", str(tmp_path)], ["--cache-dir", str(tmp_path)]):
        code, out, err = run(capsys, *cache, *argv)
        assert code == EXIT_OK, err
        assert out == want
    assert len(list(tmp_path.iterdir())) == 1


def _check_semigroup_378(cmd, env=None):
    proc = subprocess.run(
        [*cmd, "semigroup", "3", "7", "8"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["gaps"] == [1, 2, 4, 5]


def test_console_entry_point():
    # Start the declared entry point the way an installer's wrapper does: in a
    # fresh interpreter, arguments on sys.argv, sys.exit(main()).
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["trigjac"]
    module, _, attr = target.partition(":")
    src = os.path.dirname(os.path.dirname(os.path.abspath(trigjac.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    wrapper = (
        "import sys, importlib; "
        f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())"
    )
    _check_semigroup_378([sys.executable, "-c", wrapper], env=env)

    # Where an installer has put the script on PATH, it must behave the same.
    exe = shutil.which("trigjac")
    if exe:
        _check_semigroup_378([exe])
