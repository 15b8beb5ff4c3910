"""Deformed mass shell: closed forms vs root-finder, group velocity, bounds."""

import math

import numpy as np
import pytest

from ncgrav import dispersion as D

LAM, C, HBAR = 0.1, 1.0, 1.0


class TestShellResidual:
    def test_origin(self):
        assert D.shell_residual(0.0, 0.0, 0.0, LAM, C, HBAR) == 0.0

    def test_massless_shell_identity(self):
        for omega in (0.1, 0.7, 2.0):
            k = -math.expm1(-omega * LAM) / (C * LAM)
            assert abs(D.shell_residual(omega, k, 0.0, LAM, C, HBAR)) < 1e-12

    def test_classical_shell_off_by_order_lam(self):
        omega, m = 1.0, 0.3
        k = math.sqrt(omega ** 2 / C ** 2 - (m * C / HBAR) ** 2)
        res = abs(D.shell_residual(omega, k, m, LAM, C, HBAR))
        assert 1e-3 < res < 0.5

    def test_negative_branch_gated(self):
        with pytest.raises(ValueError):
            D.shell_residual(-0.5, 0.1, 0.0, LAM, C, HBAR)


class TestSolveK:
    def test_massless_closed_form(self):
        for omega in np.linspace(0.05, 3.0, 50):
            k = D.solve_k(omega, 0.0, LAM, C, HBAR)
            want = -math.expm1(-omega * LAM) / (C * LAM)
            assert abs(k - want) <= 1e-10 * want

    def test_massive_matches_closed_form(self):
        for omega in np.linspace(0.5, 3.0, 50):
            for m in np.linspace(0.0, 0.4, 10):
                k2 = D.k_squared_closed(omega, m, LAM, C, HBAR)
                if k2 <= 1e-6:
                    continue
                k = D.solve_k(omega, m, LAM, C, HBAR)
                assert abs(k - math.sqrt(k2)) <= 1e-10 * math.sqrt(k2)

    def test_classical_limit(self):
        omega, m = 1.0, 0.3
        want = math.sqrt(omega ** 2 / C ** 2 - (m * C / HBAR) ** 2)
        ks = [D.solve_k(omega, m, lam, C, HBAR) for lam in (1e-4, 1e-5)]
        assert abs(ks[1] - want) < abs(ks[0] - want)
        assert abs(ks[1] - want) < 1e-4

    def test_momentum_bounded(self):
        # massless k -> 1/(c lam) as omega -> infinity
        k = D.solve_k(400.0, 0.0, LAM, C, HBAR)
        assert abs(k - 1.0 / (C * LAM)) < 1e-8
        for omega in np.linspace(0.1, 50, 40):
            for m in (0.0, 0.2):
                try:
                    k = D.solve_k(omega, m, LAM, C, HBAR)
                except D.EvanescentModeError:
                    continue
                assert k < 1.0 / (C * LAM) + m * C / HBAR

    def test_evanescent_reported(self):
        with pytest.raises(D.EvanescentModeError):
            D.solve_k(0.01, 5.0, LAM, C, HBAR)

    @pytest.mark.parametrize("lam", [1e-30, 1e-100, 1e-150])
    def test_tiny_lam_converges(self, lam):
        # the bracket is about 1/(c lam) wide, yet the root sits near k = 1:
        # brentq needs more than 100 iterations to reach xtol = 1e-12
        for omega in (0.5, 1.0, 2.0):
            for m in (0.0, 0.3):
                k = D.solve_k(omega, m, lam, C, HBAR)
                want = math.sqrt(D.k_squared_closed(omega, m, lam, C, HBAR))
                assert abs(k - want) <= 1e-12


class TestGroupVelocity:
    def test_massless_closed_form(self):
        for omega in np.linspace(0.01, 2.0, 30):
            vg = D.group_velocity(omega, 0.0, LAM, C, HBAR)
            assert abs(vg - C * math.exp(omega * LAM)) < 1e-8

    def test_massless_low_frequency_limit(self):
        vg = D.group_velocity(1e-8, 0.0, LAM, C, HBAR)
        assert abs(vg - C) < 1e-6

    def test_superluminal_value(self):
        vg = D.group_velocity(0.1, 0.0, 0.1, C, HBAR)  # omega lam = 0.01
        assert abs(vg / C - math.exp(0.01)) < 1e-10

    def test_monotone_in_omega(self):
        vgs = [D.group_velocity(w, 0.0, LAM, C, HBAR)
               for w in np.linspace(0.1, 3.0, 40)]
        assert all(b > a for a, b in zip(vgs, vgs[1:]))

    def test_massless_omega_zero_limit(self):
        for c in (C, 2.0):
            assert D.group_velocity(0.0, 0.0, LAM, c, HBAR) == c
        p = D.sweep([0.0, 0.5], 0.0, LAM, C, HBAR)[0]
        assert p.k == 0.0 and p.vg == C

    def test_time_of_flight(self):
        L = 100.0
        dt = D.time_of_flight_delta(0.5, 1.5, L, 0.0, LAM, C, HBAR)
        v1 = C * math.exp(0.5 * LAM)
        v2 = C * math.exp(1.5 * LAM)
        assert abs(dt - L * (1 / v1 - 1 / v2)) < 1e-10
        assert dt > 0  # higher frequency arrives first here


class TestSweep:
    def test_rows_and_flags(self):
        pts = D.sweep(np.linspace(0.0, 2.0, 11), 0.1, LAM, C, HBAR)
        assert len(pts) == 11
        assert math.isnan(pts[0].k)  # omega=0 with m>0 is evanescent
        good = [p for p in pts if not math.isnan(p.k)]
        assert good and all(abs(p.residual) < 1e-10 for p in good)

    def test_domain_checked_per_omega_not_per_evaluation(self, monkeypatch):
        # the shell's domain check and k-free terms are done once per omega
        # and shared by every brentq evaluation of the residual
        checks, evaluations = [0], [0]
        check, shell = D._check_domain, D._shell

        def counted_check(*args):
            checks[0] += 1
            return check(*args)

        def counted_shell(*args):
            residual = shell(*args)

            def f(k):
                evaluations[0] += 1
                return residual(k)
            return f
        monkeypatch.setattr(D, "_check_domain", counted_check)
        monkeypatch.setattr(D, "_shell", counted_shell)
        per_omega = []
        for n in (1, 40):
            checks[0] = evaluations[0] = 0
            pts = D.sweep(np.linspace(1.0, 2.0, n), 0.3, LAM, C, HBAR)
            assert not any(math.isnan(p.k) for p in pts)
            per_omega.append(checks[0] / n)
        assert evaluations[0] >= 10 * 40
        assert per_omega[0] == per_omega[1] <= 4
