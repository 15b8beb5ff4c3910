"""Deformed mass shell through `sweep`, the one entry point: closed forms vs
root-finder, group velocity, bounds, the evanescent row flag, and the
lockstep solver bit for bit against scipy's brentq."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from ncgrav import cli
from ncgrav import dispersion as D

LAM, C, HBAR = 0.1, 1.0, 1.0


def _row(omega, m, lam=LAM, c=C, hbar=HBAR):
    """The sweep row of one omega."""
    return D.sweep([omega], m, lam, c, hbar)[0]


# -- oracle: the scalar residual and scipy's brentq, one omega at a time -----

class _Evanescent(Exception):
    """The oracle's outcome at an omega with no propagating mode."""


def _oracle_shell(omega, m, lam, c, hbar):
    D._check_domain(omega, m, lam, c, hbar)
    u = omega * lam
    eu = math.exp(u)
    try:
        scale = (2.0 / (c ** 2 * lam ** 2)) * 2.0
    except ArithmeticError:  # named, as `sweep` names it
        raise ValueError("shell prefactor beyond the float range") from None
    t2 = scale * math.sinh(u / 2) ** 2
    t3 = (m * c / hbar) ** 2

    def residual(k):
        t1 = -k ** 2 * eu
        scale = max(abs(t1), abs(t2), abs(t3))
        if scale == 0:
            return 0.0
        res = (t1 + t2 - t3) / scale
        if math.isnan(res):
            raise ValueError("shell residual at omega = %g is not finite"
                             % omega)
        return res
    return residual


def _oracle_k_squared(omega, m, lam, c, hbar):
    k2 = D.k_squared_closed(omega, m, lam, c, hbar)
    if k2 < 0:
        raise _Evanescent("no propagating mode")
    return k2


def _oracle_point(omega, m, lam, c, hbar):
    """(k, vg, residual) at one omega, as brentq and the scalar residual
    give them."""
    _oracle_k_squared(omega, m, lam, c, hbar)
    k_hi = 1.0 / (c * lam) + m * c / hbar + 1.0
    f = _oracle_shell(omega, m, lam, c, hbar)
    if f(0.0) <= 0:
        k = 0.0
    else:
        k = brentq(f, 0.0, k_hi, xtol=1e-12, rtol=8.9e-16,
                   maxiter=100 + math.ceil(math.log2(k_hi / 1e-12)))
    kc = math.sqrt(_oracle_k_squared(omega, m, lam, c, hbar))
    u = omega * lam
    eu = math.exp(u)
    denom = -kc ** 2 * lam * eu + (2.0 / (c ** 2 * lam)) * math.sinh(u)
    if denom == 0:
        if m != 0:
            raise _Evanescent("stationary shell")
        vg = c
    else:
        vg = 2 * kc * eu / denom
    return k, vg, _oracle_shell(omega, m, lam, c, hbar)(k)


def _oracle_outcome(omega, m, lam, c, hbar):
    """Bits of (k, vg, residual), "evanescent", or the error type."""
    try:
        return _bits(_oracle_point(omega, m, lam, c, hbar))
    except _Evanescent:
        return "evanescent"
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _bits(values):
    return tuple(float(v).hex() for v in values)


def _bracket_end_overflows(omega, m, lam, c, hbar):
    """-k_hi^2 e^{omega lam} is not finite: the lanes whose bracket shrinks."""
    k_hi = 1.0 / (c * lam) + m * c / hbar + 1.0
    try:
        return math.isinf(k_hi ** 2 * math.exp(omega * lam))
    except (OverflowError, ValueError):
        return True


class TestSurface:
    def test_sweep_is_the_one_entry_point(self):
        for name in ("shell_residual", "solve_k", "group_velocity",
                     "time_of_flight_delta", "EvanescentModeError"):
            assert not hasattr(D, name), name


def _residual(omegas, k, m):
    """The residual `sweep` evaluates on each row, here at a given k per
    omega instead of the solved one (finite: it raises otherwise)."""
    shell = D._Shell(list(omegas), m, LAM, C, HBAR)
    return shell.residual(np.arange(len(omegas)), np.asarray(k, float))


class TestShellResidual:
    def test_origin(self):
        p = _row(0.0, 0.0)
        assert (p.k, p.residual) == (0.0, 0.0)
        assert _residual([0.0], [0.0], 0.0)[0] == 0.0

    def test_massless_shell_identity(self):
        omegas = [0.1, 0.7, 2.0]
        k = [-math.expm1(-omega * LAM) / (C * LAM) for omega in omegas]
        assert np.all(np.abs(_residual(omegas, k, 0.0)) < 1e-12)

    def test_classical_shell_off_by_order_lam(self):
        omega, m = 1.0, 0.3
        k = math.sqrt(omega ** 2 / C ** 2 - (m * C / HBAR) ** 2)
        res = abs(_residual([omega], [k], m)[0])
        assert 1e-3 < res < 0.5

    def test_negative_branch_gated(self):
        with pytest.raises(ValueError):
            D.sweep([-0.5], 0.0, LAM, C, HBAR)


class TestSolveK:
    def test_massless_closed_form(self):
        for p in D.sweep(np.linspace(0.05, 3.0, 50), 0.0, LAM, C, HBAR):
            want = -math.expm1(-p.omega * LAM) / (C * LAM)
            assert abs(p.k - want) <= 1e-10 * want

    def test_massive_matches_closed_form(self):
        for m in np.linspace(0.0, 0.4, 10):
            for p in D.sweep(np.linspace(0.5, 3.0, 50), m, LAM, C, HBAR):
                k2 = D.k_squared_closed(p.omega, m, LAM, C, HBAR)
                if k2 <= 1e-6:
                    continue
                assert abs(p.k - math.sqrt(k2)) <= 1e-10 * math.sqrt(k2)

    def test_classical_limit(self):
        omega, m = 1.0, 0.3
        want = math.sqrt(omega ** 2 / C ** 2 - (m * C / HBAR) ** 2)
        ks = [_row(omega, m, lam=lam).k for lam in (1e-4, 1e-5)]
        assert abs(ks[1] - want) < abs(ks[0] - want)
        assert abs(ks[1] - want) < 1e-4

    def test_momentum_bounded(self):
        # massless k -> 1/(c lam) as omega -> infinity
        assert abs(_row(400.0, 0.0).k - 1.0 / (C * LAM)) < 1e-8
        for m in (0.0, 0.2):
            for p in D.sweep(np.linspace(0.1, 50, 40), m, LAM, C, HBAR):
                if p.evanescent:
                    continue
                assert p.k < 1.0 / (C * LAM) + m * C / HBAR

    def test_evanescent_reported(self):
        p = _row(0.01, 5.0)
        assert p.evanescent == 1
        assert all(map(math.isnan, (p.k, p.vg, p.residual)))

    @pytest.mark.parametrize("lam", [1e-30, 1e-100, 1e-150])
    def test_tiny_lam_converges(self, lam):
        # the bracket is about 1/(c lam) wide, yet the root sits near k = 1:
        # brentq needs more than 100 iterations to reach xtol = 1e-12
        for m in (0.0, 0.3):
            for p in D.sweep((0.5, 1.0, 2.0), m, lam, C, HBAR):
                want = math.sqrt(D.k_squared_closed(p.omega, m, lam, C, HBAR))
                assert abs(p.k - want) <= 1e-12

    @pytest.mark.parametrize("lam", [1e-154, 1e-157, 1e-160])
    def test_subnormal_cl2_refused(self, lam):
        # (c lam)^2 is subnormal, so 4/(c^2 lam^2) would overflow: refused by
        # name at omega = 0 (where the sinh^2 term would be inf * 0 = nan), at
        # omega > 0, and where every row is evanescent
        msg = ("(c lam)^2 leaves the normal float range at c = 1.0, lam = %r"
               % lam)
        for omegas, m in (([0.0], 0.0), ([0.5, 1.0], 0.0), ([0.0, 1e-3], 0.3)):
            with pytest.raises(ValueError) as info:
                D.sweep(omegas, m, lam, C, HBAR)
            assert str(info.value) == msg

    @pytest.mark.parametrize("omega, lam, c, msg", [
        (1e-154, 1e154, 3e-160,
         "c^2 leaves the normal float range at c = 3e-160"),
        (1e158, 3e-160, 1e154,
         "lam^2 leaves the normal float range at lam = 3e-160")])
    def test_subnormal_c2_or_lam2_refused(self, omega, lam, c, msg):
        # (c lam)^2 and the prefactors 4/(c^2 lam^2) and 2/(c^2 lam) are
        # normal, but c^2 (or lam^2) is subnormal, so the prefactors, made
        # from c ** 2 and lam ** 2 apart, lost bits: the sweep gave k =
        # 210708.0258 (9851.5437) with residual 0.0 (1.5e-16) where the
        # closed form is 210706.8529 (9851.4888).  Refused alike by the
        # sweep, the closed form and the oracle
        for call in (lambda: D.sweep([omega], 0.0, lam, c, HBAR),
                     lambda: D.k_squared_closed(omega, 0.0, lam, c, HBAR),
                     lambda: _oracle_shell(omega, 0.0, lam, c, HBAR)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == msg

    def test_normal_cl2_keeps_its_bits(self):
        # (c lam)^2 = 2.25e-308 is normal: solved, bit for bit as when the
        # residual's scale was Python's max of its terms
        table = D.sweep([0.0, 0.5, 1.0, 2.0], 0.3, 1.5e-154, C, HBAR)
        assert [_bits(row[1:4]) for row in table.tolist()] == [
            _bits([math.nan] * 3),
            ("0x1.99999999999a1p-2", "0x1.999999999999ap-1", "0x0.0p+0"),
            ("0x1.e86ab810ea624p-1", "0x1.e86ab810ea912p-1",
             "0x1.64b0000000003p-43"),
            ("0x1.fa350d0b5f102p+0", "0x1.fa350d0b5f505p-1",
             "0x1.fb6c000000000p-43")]

    @pytest.mark.parametrize("omega", [708.5, 709.0, 709.7, 709.78])
    def test_bracket_end_overflow_solved(self, omega):
        # -k_hi^2 e^{omega lam} overflows at k_hi = 2; the bracket ends at
        # the largest k where it is finite, and the root k ~ 1 lies inside
        assert _bracket_end_overflows(omega, 0.0, 1.0, C, HBAR)
        want = math.sqrt(D.k_squared_closed(omega, 0.0, 1.0, C, HBAR))
        assert abs(_row(omega, 0.0, lam=1.0).k - want) <= 1e-12


class TestGroupVelocity:
    def test_massless_closed_form(self):
        for p in D.sweep(np.linspace(0.01, 2.0, 30), 0.0, LAM, C, HBAR):
            assert abs(p.vg - C * math.exp(p.omega * LAM)) < 1e-8

    def test_massless_low_frequency_limit(self):
        assert abs(_row(1e-8, 0.0).vg - C) < 1e-6

    def test_superluminal_value(self):
        vg = _row(0.1, 0.0, lam=0.1).vg  # omega lam = 0.01
        assert abs(vg / C - math.exp(0.01)) < 1e-10

    def test_monotone_in_omega(self):
        vgs = D.sweep(np.linspace(0.1, 3.0, 40), 0.0, LAM, C, HBAR).vg
        assert all(b > a for a, b in zip(vgs, vgs[1:]))

    def test_massless_omega_zero_limit(self):
        for c in (C, 2.0):
            assert _row(0.0, 0.0, c=c).vg == c
        p = D.sweep([0.0, 0.5], 0.0, LAM, C, HBAR)[0]
        assert p.k == 0.0 and p.vg == C

    def test_time_of_flight(self):
        # arrival-time difference over a common distance, L (1/v1 - 1/v2)
        L = 100.0
        v1, v2 = D.sweep([0.5, 1.5], 0.0, LAM, C, HBAR).vg
        dt = L * (1.0 / v1 - 1.0 / v2)
        want1 = C * math.exp(0.5 * LAM)
        want2 = C * math.exp(1.5 * LAM)
        assert abs(dt - L * (1 / want1 - 1 / want2)) < 1e-10
        assert dt > 0  # higher frequency arrives first here


class TestSweep:
    def test_rows_and_flags(self):
        pts = D.sweep(np.linspace(0.0, 2.0, 11), 0.1, LAM, C, HBAR)
        assert len(pts) == 11
        assert math.isnan(pts[0].k)  # omega=0 with m>0 is evanescent
        good = [p for p in pts if not math.isnan(p.k)]
        assert good and all(abs(p.residual) < 1e-10 for p in good)

    def test_table_is_a_record_array(self):
        omegas = np.linspace(0.0, 2.0, 11)
        table = D.sweep(omegas, 0.1, LAM, C, HBAR)
        assert table.dtype.names == ("omega", "k", "vg", "residual",
                                     "evanescent")
        assert table.omega.tolist() == omegas.tolist()
        assert table.evanescent.tolist() == np.isnan(table.k).astype(int).tolist()
        assert [p.k for p in table][3] == table.k[3]
        # true when it has rows, as a list is
        assert table and not D.sweep([], 0.1, LAM, C, HBAR)

    def test_domain_checked_once_per_sweep_not_per_evaluation(
            self, monkeypatch):
        # the domain check runs a fixed number of times per sweep, whatever
        # the number of omegas, and every lane shares each array evaluation
        # of the residual: their number is that of the Brent steps, not of
        # the omegas
        checks, evaluations = [0], [0]
        check, residual = D._check_domain, D._Shell.residual

        def counted_check(*args):
            checks[0] += 1
            return check(*args)

        def counted_residual(*args):
            evaluations[0] += 1
            return residual(*args)
        monkeypatch.setattr(D, "_check_domain", counted_check)
        monkeypatch.setattr(D._Shell, "residual", counted_residual)
        counts = []
        for n in (4, 400):
            checks[0] = evaluations[0] = 0
            omegas = np.repeat(np.linspace(1.0, 2.0, 4), n // 4)
            pts = D.sweep(omegas, 0.3, LAM, C, HBAR)
            assert not any(math.isnan(p.k) for p in pts)
            counts.append((checks[0], evaluations[0]))
        assert counts[0][0] == counts[1][0] == 1
        assert 5 <= counts[0][1] == counts[1][1] <= 30


class TestClosedFormLanes:
    """`_Shell` computes k^2 on the whole omega array, bit for bit as the
    scalar `k_squared_closed`, and refuses a bad omega as it does."""

    @given(st.lists(st.floats(0.0, 700.0), max_size=40),
           st.floats(0.0, 2.0), st.floats(1e-3, 1.0))
    def test_k2_is_the_scalar_closed_form(self, omegas, m, lam):
        shell = D._Shell(omegas, m, lam, C, HBAR)  # it raises on a bad omega
        assert [v.hex() for v in shell.k2.tolist()] == [
            D.k_squared_closed(w, m, lam, C, HBAR).hex() for w in omegas]

    @given(st.lists(st.floats(0.0, 100.0), max_size=20), st.data())
    def test_bad_omega_fails_its_lane(self, omegas, data):
        # omega < 0 or nan, e^{omega lam} overflows, or lam < 0 (named)
        lam, bad = data.draw(st.sampled_from(
            [(LAM, -0.5), (LAM, -math.inf), (LAM, 1e4), (LAM, math.inf),
             (LAM, math.nan), (-LAM, 1e4)]))
        i = data.draw(st.integers(0, len(omegas)))
        omegas = omegas[:i] + [bad] + omegas[i:]
        with pytest.raises(ValueError) as info:
            D.k_squared_closed(bad, 0.3, lam, C, HBAR)
        with pytest.raises(ValueError) as got:
            D.sweep(omegas, 0.3, lam, C, HBAR)
        assert (type(got.value), str(got.value)) == (type(info.value),
                                                     str(info.value))

    def test_empty_sweep_checks_the_domain(self):
        # the domain is refused up front, whether or not there is an omega
        for args in ((0.3, -LAM, C, HBAR), (0.3, LAM, 1e200, HBAR),
                     (-1.0, LAM, C, HBAR)):
            with pytest.raises(ValueError) as info:
                D.sweep([], *args)
            with pytest.raises(ValueError) as want:
                D.k_squared_closed(0.0, *args)
            assert str(info.value) == str(want.value)

    @pytest.mark.parametrize("lam, c", [(-0.1, 1.0), (0.1, -1.0), (0.0, 1.0),
                                        (math.nan, 1.0), (0.1, math.nan),
                                        (math.inf, 1.0), (0.1, math.inf)])
    def test_non_positive_lam_or_c_named(self, lam, c):
        name, value = ("c", c) if lam == 0.1 else ("lam", lam)
        msg = "dispersion: %s must be positive and finite, got %r" % (name,
                                                                      value)
        for call in (lambda: D.sweep([0.5], 0.3, lam, c, HBAR),
                     lambda: D.k_squared_closed(0.5, 0.3, lam, c, HBAR)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == msg

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_hbar_named(self, hbar):
        # named before m c / hbar divides by it
        msg = "dispersion: hbar must be positive and finite, got %r" % hbar
        for call in (lambda: D.sweep([0.5], 0.3, LAM, C, hbar),
                     lambda: D.k_squared_closed(0.5, 0.3, LAM, C, hbar)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == msg

    def test_overflowing_m_c_over_hbar_named(self, capsys):
        # m c / hbar overflows to inf without raising an OverflowError;
        # its square is refused by name, not swept as evanescent nan rows
        for m, c, hbar in ((0.3, 0.3, 1e-310), (1e308, 10.0, 1.0)):
            msg = ("(m c / hbar)^2 overflows at m = %g, c = %g, hbar = %g"
                   % (m, c, hbar))
            for call in (lambda: D.sweep([0.5, 1.0], m, LAM, c, hbar),
                         lambda: D.k_squared_closed(0.5, m, LAM, c, hbar)):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == msg
        with pytest.raises(SystemExit) as info:
            cli.main(["dispersion", "--m", "0.3", "--c", "0.3",
                      "--hbar", "1e-310", "--n", "3"])
        out = capsys.readouterr()
        assert (info.value.code, out.out, out.err) == (
            2, "", "error: (m c / hbar)^2 overflows at m = 0.3, c = 0.3, "
                   "hbar = 1e-310\n")


# the omega grids of the cli-tables benchmark: 4,000 points, m = 0 and 0.5
CLI_GRIDS = [(lo, lo + 2.0, m) for lo in (0.0, 0.01, 0.02, 0.03)
             for m in (0.0, 0.5)]

# edge values: subnormal and tiny lam (the brentq iteration cap), Python's
# max with a nan term, omega lam near U_MAX (the bracket end overflows),
# huge m, and c far from 1
EDGE_LAM = [1e-320, 1e-160, 1e-155, 1e-154, 1e-150, 5e-31, 1e-30, 1e-3, 0.1,
            1.0, 1e3, 1e300]
EDGE_M = [0.0, 5e-31, 0.3, 1.0, 1e100, 1.3e154]
EDGE_C = [1.0, 0.5, 1e100]
EDGE_OMEGA = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 2.0, 100.0, 354.85, 708.0,
              709.0, 709.5, 709.7, 709.78, 1e4]


class TestBrentqOracle:
    """The lockstep solver against scipy's brentq on the scalar residual:
    k, vg and the residual agree bit for bit, and a failing omega fails
    with the same exception type."""

    @pytest.mark.parametrize("lo, hi, m", CLI_GRIDS)
    def test_cli_grid_bits(self, lo, hi, m):
        omegas = np.linspace(lo, hi, 4000)
        table = D.sweep(omegas, m, 1.0, 1.0, 1.0)
        got = [_bits((p.k, p.vg, p.residual)) for p in table]
        want = [_oracle_outcome(float(w), m, 1.0, 1.0, 1.0) for w in omegas]
        nan = _bits([math.nan] * 3)
        assert got == [nan if w == "evanescent" else w for w in want]
        assert table.evanescent.tolist() == [int(w == "evanescent")
                                             for w in want]

    def test_edge_sweep(self):
        for lam, m, c in itertools.product(EDGE_LAM, EDGE_M, EDGE_C):
            args = (m, lam, c, 1.0)
            want = [_oracle_outcome(w, *args) for w in EDGE_OMEGA]
            # each run of omegas the oracle solves is one sweep, and each
            # omega it fails on is a sweep of its own
            sweeps = []
            for fails, run in itertools.groupby(
                    zip(EDGE_OMEGA, want), lambda p: isinstance(p[1], type)):
                run = list(run)
                sweeps += [[p] for p in run] if fails else [run]
            for run in sweeps:
                try:
                    rows = D.sweep([w for w, _ in run], *args).tolist()
                except Exception as exc:  # noqa: BLE001 - the type is the row
                    rows = [type(exc)]
                for (omega, w), row in zip(run, rows):
                    got = row if isinstance(row, type) else "evanescent" \
                        if row[4] else _bits(row[1:4])
                    if got != w:  # only where the old bracket end overflowed
                        assert w is ValueError, (omega, args, got, w)
                        assert _bracket_end_overflows(omega, *args)
                        if isinstance(got, tuple):
                            kc = math.sqrt(D.k_squared_closed(omega, *args))
                            assert abs(row[1] - kc) <= 1e-12, (omega, args)
            # a whole sweep raises the error of its first failing omega
            first = next((w for w in want if isinstance(w, type)), None)
            if first is None:
                continue
            with pytest.raises(Exception) as info:
                D.sweep(EDGE_OMEGA, *args)
            assert type(info.value) is first, (args, info.value)

    @pytest.mark.parametrize("m", [-0.5, -20.0, math.nan, math.inf])
    def test_edge_negative_m_refused(self, m):
        # a negative (or nan or inf) m is refused by name on every edge lam, c and
        # omega, before any omega is looked at: at m = -20 the bracket end
        # 1/(c lam) + m c/hbar + 1 of a propagating lane is negative
        msg = "dispersion: m must be >= 0 and finite, got %r" % m
        for lam, c in itertools.product(EDGE_LAM, EDGE_C):
            for omegas in ([w] for w in EDGE_OMEGA):
                with pytest.raises(ValueError) as info:
                    D.sweep(omegas, m, lam, c, 1.0)
                assert str(info.value) == msg, (lam, c, omegas)
            with pytest.raises(ValueError) as info:
                D.k_squared_closed(0.5, m, lam, c, 1.0)
            assert str(info.value) == msg
        with pytest.raises(ValueError) as info:
            D.sweep([99.0, 100.0], m, 0.1, 1.0, 1.0)
        assert str(info.value) == msg
