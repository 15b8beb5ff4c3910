"""CLI contract: tables, formats, config override, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ncgrav import cli
from ncgrav import dispersion as D
from ncgrav import effective as E
from ncgrav import geometry as G
from ncgrav import spectrum as S
from ncgrav import timeops as T
from ncgrav import verify


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestFigure1:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "figure1", "--xmax", "10", "--n", "500")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "mI_over_mp", "mG_over_mp", "V0_over_mpc2"]
        assert len(rows) == 500

    def test_x1_row_values(self, capsys):
        _, out, _ = run_cli(capsys, "figure1", "--xmax", "10", "--n", "500")
        _, rows = parse_csv(out)
        row = min(rows, key=lambda r: abs(float(r[0]) - 1.0))
        assert abs(float(row[1]) - 0.43233) < 1e-3
        assert abs(float(row[3]) + 0.03590) < 1e-3

    def test_json_format_same_data(self, capsys):
        _, out_csv, _ = run_cli(capsys, "figure1", "--n", "50")
        _, out_json, _ = run_cli(capsys, "figure1", "--n", "50",
                                 "--format", "json")
        _, rows = parse_csv(out_csv)
        data = json.loads(out_json)
        assert len(data) == len(rows) == 50
        for row, obj in zip(rows, data):
            assert abs(float(row[1]) - obj["mI_over_mp"]) < 1e-12

    def test_deterministic_bytes(self, capsys):
        _, a, _ = run_cli(capsys, "figure1", "--n", "100")
        _, b, _ = run_cli(capsys, "figure1", "--n", "100")
        assert a == b

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "fig.csv"
        code, _, _ = run_cli(capsys, "figure1", "--n", "10", "-o", str(path))
        assert code == 0
        assert len(path.read_text().splitlines()) == 11

    def test_unwritable_path_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "figure1", "-o",
                               str(tmp_path / "no" / "dir" / "f.csv"))
        assert code == 2
        assert "cannot write" in err

    def test_bad_n_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "figure1", "--n", "1")
        assert code == 2

    def test_xmax_beyond_sinh_range_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "figure1", "--xmax", "1000")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "710.47" in err
        code, out, _ = run_cli(capsys, "figure1", "--xmax", "710", "--n", "3")
        assert code == 0 and len(parse_csv(out)[1]) == 3

    def test_mg_at_sinh_limit_does_not_underflow(self, capsys):
        # x sinh(x) / 2 overflows for x above about 704.6, below X_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "figure1", "--xmax",
                                     repr(E.X_MAX), "--n", "3")
        assert code == 0 and err == ""
        x, _mi, mg, _v0 = map(float, parse_csv(out)[1][-1])
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            want = xm * (xm + mpmath.exp(-xm) - 1) / (xm / 2 * mpmath.sinh(xm))
        assert abs(mg - float(want)) <= 1e-10 * float(want)


class TestDispersion:
    def test_omega_zero_massless_row(self, capsys):
        _, out, _ = run_cli(capsys, "dispersion", "--omega-max", "1",
                            "--n", "3", "--m", "0")
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 0.0          # k = 0 at omega = 0
        assert abs(float(rows[0][2]) - 1.0) < 1e-12  # vg -> c
        assert rows[0][4] == "0"

    def test_massless_endpoint_matches_closed_form(self, capsys):
        _, out, _ = run_cli(capsys, "dispersion", "--omega-max", "2",
                            "--n", "5", "--lam", "0.1")
        _, rows = parse_csv(out)
        omega, k = float(rows[-1][0]), float(rows[-1][1])
        want = -math.expm1(-omega * 0.1) / 0.1
        assert abs(k - want) < 1e-10
        assert abs(float(rows[-1][2]) - math.exp(omega * 0.1)) < 1e-8

    @pytest.mark.parametrize("argv, msg", [
        (("--m", "1e200"), "(m c / hbar)^2 overflows at m = 1e+200, c = 1, "
                           "hbar = 1"),
        (("--c", "1e200"), "(c lam)^2 overflows at c = 1e+200, lam = 1"),
    ])
    def test_square_overflow_exit_2(self, capsys, argv, msg):
        # a float ** 2 that raises OverflowError is refused by name
        code, out, err = run_cli(capsys, "dispersion", *argv, "--n", "3")
        assert (code, out, err) == (2, "", "error: %s\n" % msg)

    def test_evanescent_rows_flagged(self, capsys):
        _, out, _ = run_cli(capsys, "dispersion", "--omega-max", "1",
                            "--n", "4", "--m", "0.5", "--lam", "0.1")
        _, rows = parse_csv(out)
        flags = [r[4] for r in rows]
        assert "1" in flags and "0" in flags
        for r in rows:
            if r[4] == "1":
                assert r[1] == "nan"

    def test_evanescent_null_in_json(self, capsys):
        _, out, _ = run_cli(capsys, "dispersion", "--omega-max", "1",
                            "--n", "4", "--m", "0.5", "--lam", "0.1",
                            "--format", "json")
        data = json.loads(out)
        assert any(obj["k"] is None for obj in data)

    @pytest.mark.parametrize("m, lam", [("0", "1"), ("0.5", "0.1")])
    def test_rows_are_sweep_points(self, capsys, m, lam):
        argv = ["dispersion", "--omega-min", "0", "--omega-max", "1",
                "--n", "6", "--m", m, "--lam", lam]
        pts = D.sweep(np.linspace(0.0, 1.0, 6), float(m), float(lam), 1.0, 1.0)
        if m != "0":  # an evanescent band below the propagating one
            assert {math.isnan(p.k) for p in pts} == {True, False}
        cols = [(p.omega, p.k, p.vg, p.residual) for p in pts]
        flags = [int(math.isnan(p.k)) for p in pts]
        _, out, _ = run_cli(capsys, *argv)
        _, rows = parse_csv(out)
        assert rows == [[cli.FMT % v for v in c] + [str(f)]
                        for c, f in zip(cols, flags)]
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert json.loads(out) == [
            dict(zip(("omega", "k", "vg", "residual", "evanescent"),
                     [None if math.isnan(v) else v for v in c] + [f]))
            for c, f in zip(cols, flags)]

    def test_bad_range_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "dispersion", "--omega-min", "2",
                             "--omega-max", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, words", [
        (("--omega-max", "1e4"), "exp(omega lam) overflows"),
        (("--lam", "1e-300"), "(c lam)^2 underflows"),
        (("--omega-max", "354.8", "--lam", "2", "--c", "0.7", "--n", "3"),
         "dispersion column vg is inf at omega = 354.8"),
        (("--lam", "1e-160", "--n", "3"),
         "omega = 1, lam = 1e-160 is not finite (a term is nan or beyond the "
         "float limit"),
        (("--c", "1e200", "--lam", "1e-200", "--n", "3"),
         "the shell prefactor 2/(c^2 lam^2) is beyond the float range at "
         "c = 1e+200, lam = 1e-200"),
        (("--m", "-20", "--omega-min", "99", "--omega-max", "100", "--n", "2",
          "--lam", "0.1"), "m must be >= 0 (a negative mass is not treated)"),
    ])
    def test_out_of_domain_exit_2(self, capsys, argv, words):
        code, out, err = run_cli(capsys, "dispersion", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and words in err

    def test_bracket_end_overflow_exits_0(self, capsys):
        # -k_hi^2 e^{omega lam} overflows at omega lam = 709.7; that lane's
        # bracket ends where the term is finite, and k is solved
        code, out, _ = run_cli(capsys, "dispersion", "--omega-max", "709.7",
                               "--n", "3")
        assert code == 0
        _, rows = parse_csv(out)
        omega, k = float(rows[-1][0]), float(rows[-1][1])
        assert omega == 709.7 and rows[-1][4] == "0"
        assert abs(k - math.sqrt(D.k_squared_closed(omega, 0.0, 1.0, 1.0,
                                                    1.0))) <= 1e-12


class TestSpectrum:
    def test_classical_small_x_accuracy(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--x", "1e-8",
                               "--G", "1e-3", "--n-states", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row[4]) < 5e-3   # rel_err column

    def test_five_states_reach_the_oracle(self, capsys):
        # the default box grows with n_max^2: n = 4 and 5 are not cut off
        code, out, _ = run_cli(capsys, "spectrum", "--x", "1e-8",
                               "--n-states", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["1", "2", "3", "4", "5"]
        assert all(float(row[4]) < 1e-3 for row in rows)

    def test_v0_column_matches_effective(self, capsys):
        from ncgrav import effective as E
        _, out, _ = run_cli(capsys, "spectrum", "--x", "0.5",
                            "--G", "1e-3", "--n-states", "1")
        _, rows = parse_csv(out)
        pars = E.effective_params(0.5, E.PlanckUnits())
        assert abs(float(rows[0][5]) - pars.V0) < 1e-15

    def test_nonpositive_x_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--x", "0")
        assert code == 2

    @pytest.mark.parametrize("argv, words", [
        (("--l", "-1"), "l must be"),
        (("--n-states", "0"), "n_states must be"),
        (("--x", "1000"), "710.47"),
        # m_G cancels to 0.0 in effective's 30-digit branch at this x
        (("--x", "7.7e-20"), "m_G must be positive, got 0.0"),
    ])
    def test_out_of_domain_exit_2(self, capsys, argv, words):
        code, out, err = run_cli(capsys, "spectrum", "--x", "1e-8", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and words in err

    @pytest.mark.parametrize("argv, h", [
        (("--x", "700"), "h = 7.25488e+298"),     # h^2 overflows: kin = 0
        (("--x", "1e-8", "--G", "1e300"), "h = 1e-286"),   # kin = inf
        (("--x", "1e-8", "--M", "1e200"), "h = 1e-186"),
    ])
    def test_hamiltonian_out_of_range_exit_2(self, capsys, argv, h):
        # refused by name before the eigensolve, with no numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "spectrum", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: solve_radial: ") and h in err
        assert err.count("\n") == 1
        assert not [w for w in caught if w.category is RuntimeWarning]


class TestMuNu:
    def test_power_law_residuals_small(self, capsys):
        _, out, _ = run_cli(capsys, "mu-nu", "--n", "3", "--nodes", "20")
        _, rows = parse_csv(out)
        assert len(rows) == 20
        for row in rows:
            assert abs(float(row[4])) < 1e-10
            assert abs(float(row[5])) < 1e-10

    def test_newton_profile(self, capsys):
        code, out, _ = run_cli(capsys, "mu-nu", "--gamma", "1e-3",
                               "--nodes", "10")
        assert code == 0
        _, rows = parse_csv(out)
        r0, beta0 = float(rows[0][0]), float(rows[0][1])
        assert abs(beta0 + (1 + 1e-3 / r0)) < 1e-12

    @pytest.mark.parametrize("n0", [1.0, 2.0])
    @pytest.mark.parametrize("eps", [1e-10, -1e-10])
    def test_special_case_window_shared(self, capsys, n0, eps):
        # mu_nu_closed and delta0_power take the closed family at the same n
        n = n0 + eps
        assert G.mu_nu_closed(n)[1].tag == G.mu_nu_closed(n0)[1].tag
        f = T.TimeFunction.mode(0.7)
        assert (T.delta0_power(f, 0.3, n).terms
                == T.delta0_power(f, 0.3, n0).terms)
        _, out, _ = run_cli(capsys, "mu-nu", "--n", repr(n))
        _, rows = parse_csv(out)
        assert max(abs(float(row[3])) for row in rows) < 10

    def test_c_squared_underflow_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "mu-nu", "--gamma", "1e-3",
                                 "--c", "1e-200")
        assert (code, out) == (2, "")
        assert err == "error: c^2 underflows to 0 at c = 1e-200\n"
        with pytest.raises(ValueError, match="underflows"):
            G.mu_nu_newton(1e-3, 1e-200)

    def test_c_squared_overflow_exit_2(self, capsys):
        # c ** 2 raises OverflowError; it is refused by name, not by errno
        code, out, err = run_cli(capsys, "mu-nu", "--gamma", "1e-3",
                                 "--c", "1e200")
        assert (code, out) == (2, "")
        assert err == "error: c^2 overflows at c = 1e+200\n"

    def test_requires_profile_choice(self, capsys):
        code, _, err = run_cli(capsys, "mu-nu")
        assert code == 2
        assert "--n" in err or "--gamma" in err

    def test_refuses_both_profiles(self, capsys):
        code, out, err = run_cli(capsys, "mu-nu", "--n", "3", "--gamma", "1")
        assert (code, out) == (2, "")
        assert "--n" in err and "--gamma" in err
        with pytest.raises(ValueError, match="exactly one"):
            G.mu_nu_table(0.5, 50.0, 10, n=3, gamma=1.0)

    @pytest.mark.parametrize("n, words", [
        ("1023", "column res_mu is inf at r = 0.5"),
        ("1e4", "column beta is inf at r = 0.5"),
    ])
    def test_non_finite_column_exit_2(self, capsys, n, words):
        # r^-n passes the float range at rmin = 0.5: refused, no numpy warning
        code, out, err = run_cli(capsys, "mu-nu", "--n", n)
        assert (code, out) == (2, "")
        assert err.startswith("error: mu-nu ") and words in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("profile", [("--n", "3"), ("--gamma", "1e-3")])
    def test_profile_calls_independent_of_nodes(self, capsys, monkeypatch,
                                                profile):
        # each profile is evaluated on the whole grid, not once per row
        calls = [0]
        call = G.RadialProfile.__call__

        def counted(self, r):
            calls[0] += 1
            return call(self, r)
        monkeypatch.setattr(G.RadialProfile, "__call__", counted)
        counts = []
        for nodes in ("20", "2000"):
            calls[0] = 0
            code, _, _ = run_cli(capsys, "mu-nu", *profile, "--nodes", nodes)
            assert code == 0
            counts.append(calls[0])
        assert counts[0] == counts[1] <= 9


class TestDarkEnergy:
    def test_headline_density(self, capsys):
        _, out, _ = run_cli(capsys, "dark-energy", "--format", "json")
        rep = json.loads(out)
        g_cm3 = rep["mass_density"] * 1e3 / 1e6
        assert abs(g_cm3 - 1.1e-29) < 0.05e-29

    def test_csv_key_value(self, capsys):
        _, out, _ = run_cli(capsys, "dark-energy")
        header, rows = parse_csv(out)
        assert header == ["key", "value"]
        assert any(r[0] == "mass_density" for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_density_exit_2(self, capsys, fmt):
        code, out, err = run_cli(capsys, "dark-energy", "--m-universe=1e308",
                                 "--r-universe=0.5", "--c=1e4",
                                 "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: dark-energy column energy_density is "
                              "-inf at m-universe = 1e+308")

    def test_runs_as_module_from_checkout(self, capsys):
        # python -m ncgrav with only the checkout's src/ on the path
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-m", "ncgrav", "dark-energy"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        _, want, _ = run_cli(capsys, "dark-energy")
        assert (proc.returncode, proc.stdout) == (0, want)


def _poison(monkeypatch, module, name, poison):
    """Make module.name put a non-finite value into its own result."""
    real = getattr(module, name)

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        poison(out)
        return out
    monkeypatch.setattr(module, name, poisoned)


def _set(column, row, value):
    def poison(table):
        table[column][row] = value
    return poison


class TestOneRefusalRule:
    """Every table subcommand refuses its first non-finite cell outside the
    rows the library allows, as "<subcommand> column <C> is <V> at <key> =
    <value>"."""

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    @pytest.mark.parametrize("argv, producer, poison, words", [
        (["figure1", "--n", "5"], (E, "figure1_data"),
         lambda v: _set((slice(None), 3), 2, v),
         "figure1 column V0_over_mpc2 is %r at x = 6"),
        (["dispersion", "--n", "5"], (D, "sweep"), lambda v: _set("vg", 1, v),
         "dispersion column vg is %r at omega = 0.5"),
        (["spectrum", "--x", "1e-8"], (S, "spectrum_table"),
         lambda v: _set("E_oracle", 1, v),
         "spectrum column E_oracle is %r at n = 2"),
        (["mu-nu", "--n", "3", "--nodes", "5"], (G, "ode_residuals"),
         lambda v: _set(1, 3, v), "mu-nu column res_nu is %r at r = 15.8114"),
        (["dark-energy"], (E, "dark_energy_estimate"),
         lambda v: lambda rep: rep.update(mass_density=v),
         "dark-energy column mass_density is %r at m-universe = 1e+53"),
    ], ids=["figure1", "dispersion", "spectrum", "mu-nu", "dark-energy"])
    def test_first_non_finite_cell_named(self, capsys, monkeypatch, argv,
                                         producer, poison, words, value):
        _poison(monkeypatch, *producer, poison(value))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: %s\n" % (words % value))

    def test_first_cell_row_by_row(self, capsys, monkeypatch):
        def poison(table):
            table[2, 3] = math.inf
            table[3, 1] = math.nan
            table[1, 2] = math.nan
        _poison(monkeypatch, E, "figure1_data", poison)
        code, _, err = run_cli(capsys, "figure1", "--n", "5")
        assert (code, err) == (2, "error: figure1 column mG_over_mp is nan "
                                  "at x = 4\n")

    @pytest.mark.parametrize("flag", [0, 1])
    def test_evanescent_rows_may_hold_nan(self, capsys, monkeypatch, flag):
        def poison(table):
            table.vg[1] = math.nan
            table.evanescent[1] = flag
        _poison(monkeypatch, D, "sweep", poison)
        code, out, err = run_cli(capsys, "dispersion", "--n", "5")
        if flag:
            assert (code, err) == (0, "")
            row = parse_csv(out)[1][1]
            assert (row[2], row[4]) == ("nan", "1")
        else:
            assert (code, out) == (2, "")
            assert err == "error: dispersion column vg is nan at omega = 0.5\n"


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xmax = 2.0\nn = 7\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "figure1")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 7
        assert abs(float(rows[-1][0]) - 2.0) < 1e-12

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 7\n")
        _, out, _ = run_cli(capsys, "--config", str(cfg), "figure1",
                            "--n", "3")
        _, rows = parse_csv(out)
        assert len(rows) == 3

    def test_comments_and_blank_lines(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# table size\n\nn = 4  # small\n")
        _, out, _ = run_cli(capsys, "--config", str(cfg), "figure1")
        _, rows = parse_csv(out)
        assert len(rows) == 4

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, _ = run_cli(capsys, "--config", str(cfg), "figure1")
        assert code == 2

    def test_non_finite_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = nan\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "dark-energy")
        assert (code, out) == (2, "")
        assert "error: argument --c: expected a finite number" in err

    def test_file_named_as_the_subcommand(self, capsys, tmp_path,
                                          monkeypatch):
        # the flags go after the token argparse took as the subcommand, not
        # after the first token spelled like it (here the --config value)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "figure1").write_text("n = 3\n")
        code, out, _ = run_cli(capsys, "--config", "figure1", "figure1")
        assert code == 0
        assert len(parse_csv(out)[1]) == 3
        code, out, _ = run_cli(capsys, "--config=figure1", "figure1",
                               "--n", "4")
        assert len(parse_csv(out)[1]) == 4

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "--config", "/nope.cfg", "figure1")
        assert code == 2


class TestVerifyCommand:
    def test_fast_passes_with_named_lines(self, capsys, tmp_path):
        report = tmp_path / "rep.json"
        code, out, _ = run_cli(capsys, "verify", "--report", str(report))
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
        assert len(lines) >= 25
        rep = json.loads(report.read_text())
        assert rep["n_failed"] == 0
        assert all("measured" in c for c in rep["checks"])

    def test_failure_named_and_exit_1(self, capsys, monkeypatch):
        # tamper with one registered check to simulate a broken invariant,
        # next to one real check (test_fast_passes_with_named_lines runs all)
        broken = ("dispersion.momentum-bounded",
                  lambda level: (False, "tampered"))
        real = next((name, fn) for name, fn in verify.CHECKS
                    if name == "timeops.symbol-consistency")
        monkeypatch.setattr(verify, "CHECKS", [broken, real])
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL dispersion.momentum-bounded" in out
        assert "PASS timeops.symbol-consistency" in out


class TestRegistryDirect:
    def test_check_count(self):
        assert len(verify.CHECKS) >= 25

    def test_exception_is_failure_not_abort(self, monkeypatch):
        def boom(level):
            raise RuntimeError("boom")
        monkeypatch.setattr(verify, "CHECKS", [("synthetic.boom", boom)])
        rep = verify.run("fast")
        assert rep["n_failed"] == 1
        assert "boom" in rep["checks"][0]["measured"]


def render_csv_oracle(header, rows):
    """Per-cell csv.writer rendering: each float as %.12e, any other cell as
    str(v).  The oracle of `cli._render_csv`'s column rendering."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([cli.FMT % v if isinstance(v, float) else str(v)
                    for v in row])
    return buf.getvalue()


FLOAT = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                         1e-310, -2.5e-320, 1e308, -1e308,
                         1.7976931348623157e308]) | st.floats()
# table text: names, prose and the characters csv quotes; a bare carriage
# return is left out, no table holds one
TEXT = st.text(alphabet=st.sampled_from(list('aZ_^/.()0 ,"\n')))


@st.composite
def table_rows(draw):
    """(header, rows) in the shapes the table subcommands produce."""
    shape = draw(st.sampled_from(["floats", "dispersion", "spectrum",
                                  "key-value"]))
    if shape == "floats":  # figure1, mu-nu; numpy scalars print alike
        width = draw(st.integers(1, 6))
        cell = st.lists(FLOAT | FLOAT.map(np.float64), min_size=width,
                        max_size=width)
    elif shape == "dispersion":  # omega, k, vg, residual, evanescent flag
        cell = st.tuples(FLOAT, FLOAT, FLOAT, FLOAT, st.integers(0, 1))
    elif shape == "spectrum":  # n, l, then floats
        cell = st.tuples(st.integers(1, 60), st.integers(0, 5), FLOAT, FLOAT,
                         FLOAT, FLOAT)
    else:  # dark-energy: text keys, float or text values
        cell = st.tuples(TEXT, FLOAT | TEXT)
    rows = draw(st.lists(cell, max_size=8))
    width = len(rows[0]) if rows else draw(st.integers(2, 6))
    header = draw(st.lists(TEXT.filter(bool), min_size=width,
                           max_size=width))
    return header, rows


def as_columns(rows, width):
    """The columns of a row table as the subcommands hand them to the
    renderer: float64 and int arrays, text arrays, and an object array where
    floats and text mix."""
    columns = []
    for j in range(width):
        cells = [row[j] for row in rows]
        if all(isinstance(v, float) for v in cells):
            columns.append(np.array(cells, dtype=float))
        elif all(isinstance(v, int) for v in cells):
            columns.append(np.array(cells, dtype=int))
        elif all(isinstance(v, str) for v in cells):
            columns.append(np.array(cells, dtype=str))
        else:
            columns.append(np.array(cells, dtype=object))
    return columns


def kernel_cells(values):
    """`cli._float_cells`'s text of each value of a float64 column."""
    words = np.zeros((len(values), cli._CELL_WORDS), np.uint32)
    cli._float_cells(np.array(values, dtype=float), words)
    return [w.tobytes().translate(None, b"\0").decode() for w in words]


def _ulp_neighbours(x):
    """x one ulp down, x, and x one ulp up."""
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


BIG = 1.7976931348623157e308
EDGES = [0.0, math.nan, math.inf, 5e-324, BIG, *_ulp_neighbours(1e280),
         *_ulp_neighbours(1e-280),
         # log10 rounds up to the next power of ten: y falls below 1e12
         # while m = rint(y) may still reach it
         9.999999999999347e-280, 9.999999999999346e+278,
         9.999999999999347e+279, 9.9999999999995e-280,
         # near-ties of the 13th digit; the last six round the wrong way
         # without the tie margin
         999999999999.5, 9.9999999999995e-1, 1.0000000000005, 2.5e-13,
         1.9248250419145e-238, 7.7516273578045e-175, 7.0107862920595e-63,
         4.3927571651665e+21, 8.3113355476855e+105, 2.1309694339825e+210,
         *(v for k in range(-300, 301)
           for v in _ulp_neighbours(float("1e%d" % k)))]
EDGES += [-v for v in EDGES]
DOUBLE = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


class TestFloatKernel:
    @given(st.lists(DOUBLE, min_size=1, max_size=40))
    @example(EDGES)
    @example([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf])
    def test_cells_match_fmt(self, values):
        assert kernel_cells(values) == [cli.FMT % v for v in values]

    def test_zeros_and_nan_on_the_array_path(self):
        values = np.array([0.0, -0.0, math.nan, -math.nan, 1.5])
        words = np.zeros((len(values), cli._CELL_WORDS), np.uint32)
        assert cli._float_cells(values, words) == 0

    def test_certifies_most_figure1_cells(self, monkeypatch):
        # FMT % runs only on the cells the kernel does not certify, and a
        # widened fallback would undo the kernel's gain unseen by the bytes
        calls = []

        class CountedFormat(str):
            def __mod__(self, v):
                calls.append(v)
                return str.__mod__(self, v)
        monkeypatch.setattr(cli, "FMT", CountedFormat(cli.FMT))
        table = E.figure1_data(9.5, 20000)
        words = np.zeros(table.shape + (cli._CELL_WORDS,), np.uint32)
        took = sum(cli._float_cells(table[:, j], words[:, j])
                   for j in range(table.shape[1]))
        assert took == len(calls) <= 0.05 * table.size
        assert words.tobytes().translate(None, b"\0").decode() == "".join(
            str.__mod__(cli.FMT, v) for v in table.ravel())


class TestRenderer:
    @given(table_rows())
    @example((["x", "y"], [[math.nan, -0.0], [math.inf, -math.inf],
                           [5e-324, 1e308]]))
    @example((["v"], [[0.0], [-0.0], [math.nan], [-math.nan], [math.inf],
                      [-math.inf]]))
    @example((["omega", "k", "vg", "residual", "evanescent"],
              [(0.5, math.nan, math.nan, math.nan, 1), (1.0, 0.9, 1.1, 0.0, 0)]))
    @example((["key", "value"], [("mass_density", 1.2e-27),
                                 ("sign", 'a "quoted", two-line\ntext')]))
    def test_matches_csv_writer_oracle(self, table):
        header, rows = table
        assert cli._render_csv(header, as_columns(rows, len(header))) \
            == render_csv_oracle(header, rows)

    def test_nul_in_text_refused(self):
        with pytest.raises(ValueError, match="NUL"):
            cli._render_csv(["key"], [np.array(["a\0b"], dtype=object)])


# SHA-256 of the CSV and JSON output of the table subcommands: any change to
# a printed number or to the text format shows here.
TABLE_DIGESTS = {
    "figure1": ("83d948b58b95813e107904f3eff0c72afebae60851653f9d17bc773ea930af28",
                "313806af7221187208d53ad551f87acd950f91387b064444d1a2b5cce394ccd0"),
    "dispersion": ("8fb43d20ce660564e003062d6d31028d1e87e62de0e7c5642e9b18e961c552a1",
                   "505334e2d315c4ea10b35527396b79f511fb611527486dd67f573aeba3895e40"),
    "dispersion --m 0.5": ("e616b4517bf8e80fbcfe834669dc8d08856b32e4702796458a21d6f9382a94d7",
                           "b4112afb2434d3daa1d219a1e12ba8396719cf144e129d21db082608b051b566"),
    "mu-nu --n 1": ("d59969116edadb56aa43a49e1f20e3d510bdab4736a925a47113463e2f755852",
                    "1ff2ab9441d1909f6e07d91745b577168e86b211ccc7371965945e6fe838d921"),
    "mu-nu --n 2": ("d1127313af008f484a2dedf502cdc9e9593b8115937a4706a22f389371b823cf",
                    "65027e14ae2a075a0a42746db0792255e685a04098b143fe0e259b298d3c241a"),
    "mu-nu --n 3": ("9698983f1cdfc88b9eebf5b1ba64866a27335e3b6db1bf98ca7e9286e5210444",
                    "faa41dfb30ca33973316fe1babe515fb5f85423e43653c1b8c7e3c705fcd598a"),
    "mu-nu --gamma 1e-3": ("38f05eb2c3ca43bd03a4d9833341be25eef2c9f3d2ad5e2b053c26e540ad4339",
                           "440787e24e358476c2bcd33925204d160f2fd13761a3c848b1f3da512c910b86"),
    "spectrum --x 1e-8": ("517b0985350b8ceec4ef60eb55c3f72e1145e0e10d8e5d7736e3f1d4bb484b7b",
                          "80705538493068e46edf1b699e123d04d6081dc5f8c42f1cc538d5d07e020e2e"),
    "dark-energy": ("4c1f33daf4fff64477477b1bd62b0d67749fed79aeb9a10902f0f32ced6fe0ad",
                    "0aa3dd83a4422eea78d6baffbf42247fa182c357035464cebc367c0ffe72f5b7"),
}


@pytest.mark.parametrize("command", sorted(TABLE_DIGESTS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_bytes_pinned(capsys, command, fmt):
    code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == 0
    want = TABLE_DIGESTS[command][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == want


# edge values for every float flag of the table subcommands, plus any float
EDGE = st.sampled_from(["0", "-1", "1e-300", "1e-160", "0.5", "3", "709.7",
                        "1e4", "1e308", "nan", "inf", "-inf"]) \
    | st.floats().map(repr)
SIZE = st.integers(-1, 50).map(str)
CONSTANTS = {"lam": EDGE, "c": EDGE, "hbar": EDGE, "G": EDGE}
TABLE_FLAGS = {
    "figure1": {"xmax": EDGE, "n": SIZE},
    "dispersion": {"omega-min": EDGE, "omega-max": EDGE, "n": SIZE, "m": EDGE,
                   **CONSTANTS},
    "spectrum": {"x": EDGE, "M": EDGE, "l": st.integers(0, 3).map(str),
                 "n-states": st.integers(1, 5).map(str), **CONSTANTS},
    "mu-nu": {"n": EDGE, "gamma": EDGE, "rmin": EDGE, "rmax": EDGE,
              "nodes": SIZE, **CONSTANTS},
    "dark-energy": {"m-universe": EDGE, "r-universe": EDGE, **CONSTANTS},
}


@st.composite
def table_argv(draw):
    cmd = draw(st.sampled_from(sorted(TABLE_FLAGS)))
    flags = TABLE_FLAGS[cmd]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True,
                           max_size=4))
    argv = [cmd] + ["--%s=%s" % (f, draw(flags[f])) for f in chosen]
    if cmd == "spectrum" and "x" not in chosen:
        argv.append("--x=1e-8")
    return argv


class TestErrorPolicy:
    def test_bare_message_names_the_class(self, capsys, monkeypatch):
        def overflow(*args):
            raise OverflowError
        monkeypatch.setattr(E, "dark_energy_estimate", overflow)
        code, out, err = run_cli(capsys, "dark-energy")
        assert (code, out, err) == (2, "", "error: OverflowError\n")

    def test_grid_convergence_exit_1(self, capsys, monkeypatch):
        def unconverged(*args, **kwargs):
            raise S.GridConvergenceError("drift 1e-2 above 5e-3")
        monkeypatch.setattr(S, "solve_radial", unconverged)
        code, out, err = run_cli(capsys, "spectrum", "--x", "1e-8")
        assert (code, out, err) == (1, "", "error: drift 1e-2 above 5e-3\n")

    @given(table_argv())
    @example(["dark-energy", "--r-universe=1e-300"])
    @example(["dispersion", "--n=3", "--lam=1e308"])
    @example(["spectrum", "--x=1e-8", "--hbar=1e-300"])
    @example(["figure1", "--xmax=nan", "--n=3"])
    @example(["dark-energy", "--c=nan"])
    @example(["mu-nu", "--n=1023"])
    @example(["mu-nu", "--n=1e4"])
    @example(["dark-energy", "--m-universe=1e308", "--r-universe=0.5",
              "--c=1e4"])
    @example(["dispersion", "--lam=1e-30", "--n=3"])
    @example(["dispersion", "--lam=5e-31", "--m=5e-31", "--n=3"])
    @example(["dispersion", "--omega-max=709.7", "--n=3"])
    @example(["dispersion", "--omega-max=354.8", "--lam=2", "--c=0.7",
              "--n=3"])
    @example(["dispersion", "--c=1e-160", "--omega-max=1e-300", "--n=5"])
    def test_exit_0_or_named_error(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        if code:
            assert "error:" in err.getvalue()
        assert "Traceback" not in err.getvalue()
        # a non-finite flag value is refused before any table is made
        if any(a.split("=", 1)[1] in ("nan", "inf", "-inf") for a in argv[1:]):
            assert code == 2
        # an exit-0 table is finite, but for the nan cells of evanescent
        # dispersion rows
        if code == 0:
            header, rows = parse_csv(out.getvalue())
            for row in rows:
                if argv[0] == "dispersion" and row[-1] == "1":
                    continue
                for cell in row:
                    with contextlib.suppress(ValueError):  # text cells
                        assert math.isfinite(float(cell)), (header, row)
