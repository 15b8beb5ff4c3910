"""Acceptance gate: one printed pass/fail line per criterion.

Lines are printed immediately (visible with -s) and echoed in the terminal
summary via conftest, so they appear under default capture too.  Each
criterion asserts its stated tolerance and (where bounded) its runtime.
"""

import math
import random
import time

import conftest

import mpmath
import numpy as np

from ncgrav import dispersion as D
from ncgrav import effective as E
from ncgrav import geometry as G
from ncgrav import spectrum as S
from ncgrav import timeops as T
from ncgrav import verify as V
from ncgrav import waveops as W
from ncgrav.exactalg import commutator_d, exterior_d
from ncgrav.timeops import TimeFunction as TF


def report(num, label, ok):
    line = "criterion %2d [%s] %s" % (num, "PASS" if ok else "FAIL", label)
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, "criterion %d failed: %s" % (num, label)


def test_criterion_01_figure1_x1_row():
    t0 = time.perf_counter()
    # x_max/n spacing puts x = 1 exactly on the grid
    data = E.figure1_data(x_max=10.0, n_points=1000)
    i = int(np.argmin(np.abs(data[:, 0] - 1.0)))
    mi, mg, v0 = data[i, 1], data[i, 2], data[i, 3]
    ok = (abs(mi - (1 - math.exp(-2)) / 2) < 1e-4
          and abs(mg - 2 * math.exp(-1) / math.sinh(1)) < 1e-4
          and abs(v0 + 0.0359) < 1e-3
          and time.perf_counter() - t0 < 1.0)
    report(1, "figure table row at x=1 (closed-form values)", ok)


def test_criterion_02_extrema():
    t0 = time.perf_counter()
    rep = V.extrema_report()
    xs = np.linspace(1e-3, 10, 300)
    mono = np.all(np.diff(E.mI_over_mp(xs)) > 0)
    ok = (rep["mI_sup_over_mp"] == 0.5 and mono
          and abs(rep["mI_at_x10_over_mp"] - 0.5) < 1e-6
          and abs(rep["V0_argmin"] - 4.5) < 0.2
          and abs(rep["V0_min_over_mpc2"] + 0.49) < 0.01
          and 1.0 <= rep["mG_over_mI_argmax"] <= 1.6
          and abs(rep["mG_over_mI_peak"] - 1.46) < 0.02
          and time.perf_counter() - t0 < 1.0)
    report(2, "extrema and bounds of the effective parameters", ok)


def test_criterion_03_series():
    rep = V.series_check()
    ok = (abs(rep["m_I_linear"] + 1.0) < 1e-4
          and abs(rep["m_G_linear"] + 1.0 / 3.0) < 1e-4
          and abs(rep["V0_quadratic"] + 1.0 / 24.0) < 1e-4)
    report(3, "leading small-x series coefficients (-1, -1/3, -1/24)", ok)


def test_criterion_04_dispersion_oracle():
    t0 = time.perf_counter()
    lam, c, hbar = 0.1, 1.0, 1.0
    worst_k, worst_v = 0.0, 0.0
    omegas = np.linspace(0.05, 3.0, 50)
    for p0, pm in zip(D.sweep(omegas, 0.0, lam, c, hbar),
                      D.sweep(omegas, 0.02, lam, c, hbar)):
        omega = p0.omega
        k0 = -math.expm1(-omega * lam) / (c * lam)
        worst_k = max(worst_k, abs(p0.k - k0) / k0)
        km = math.sqrt(D.k_squared_closed(omega, 0.02, lam, c, hbar))
        worst_k = max(worst_k, abs(pm.k - km) / km)
        worst_v = max(worst_v, abs(p0.vg / c - math.exp(omega * lam)))
    ok = worst_k < 1e-10 and worst_v < 1e-8 \
        and time.perf_counter() - t0 < 1.0
    report(4, "momentum solver vs closed forms on a 50-point sweep", ok)


def test_criterion_05_exact_calculus():
    t0 = time.perf_counter()
    ok = True
    for psi in V.monomials():
        ok = ok and V.exterior_d_leibniz(V.realization_symbol(psi), 3) \
            == V.form_symbol(exterior_d(psi))
        ok = ok and exterior_d(psi) == commutator_d(psi)
    rng = random.Random(20260824)
    for _ in range(200):
        f, g = V.random_element(rng), V.random_element(rng)
        ok = ok and exterior_d(f * g) == \
            exterior_d(f).mul_elem(g) + exterior_d(g).lmul(f)
    ok = ok and time.perf_counter() - t0 < 30.0
    report(5, "exact calculus identities (rational arithmetic)", ok)


def _general_symbol_mp(omega, lam, mu, nu, beta):
    a2 = -(beta / mu - 1)
    a3 = 1 - beta / (nu + mu)
    num = (nu * mpmath.exp(omega * lam)
           + mu * mpmath.exp(omega * lam * a2)
           - (nu + mu) * mpmath.exp(omega * lam * a3))
    return num / (mpmath.mpc(0, 1) * lam) ** 2


def _display_symbol_mp(omega, lam, n):
    i = mpmath.mpc(0, 1)
    zeta = mpmath.exp(omega * lam)
    p0 = (1 - 1 / zeta) / (i * lam)
    if n == 1:
        return (1 / (i * lam)) * (-i * omega - p0) * zeta
    if n == 2:
        return (p0 * zeta ** 2 + i * omega * zeta) / (i * lam)
    num = (zeta + (1 - n) * zeta ** -(1 - n) - (2 - n) * zeta ** n)
    return num / ((i * lam) ** 2 * (2 - n) * (1 - n))


def test_criterion_06_operator_identities():
    lam, beta = 0.3, 1.0
    rng = random.Random(60)
    ok = True
    for _ in range(100):
        f, g = V.random_tf(rng), V.random_tf(rng)
        lhs = T.delta0_const(f * g, lam, beta)
        rhs = (T.delta0_const(f, lam, beta) * g.shift(1, lam)
               + f.shift(-1, lam) * T.delta0_const(g, lam, beta)
               + T.d0(f, lam) * T.d0(g, lam).shift(1, lam))
        scale = max(lhs.max_coeff(), 1.0)
        ok = ok and (lhs - rhs).max_coeff() / scale < 1e-12
        lhs = T.delta0_hybrid(f * g, lam)
        rhs = (T.delta0_hybrid(f, lam) * g
               + f.shift(-1, lam) * T.delta0_hybrid(g, lam)
               + T.d0(f, lam) * g.deriv())
        scale = max(lhs.max_coeff(), 1.0)
        ok = ok and (lhs - rhs).max_coeff() / scale < 1e-12
    # power-law displays: generic n evaluated directly; n = 1, 2 are the
    # removable-singularity limits, evaluated in extended precision just off
    # the limit point
    for n in (3.0, 0.5, 5.0):
        mu_c, nu_c = G.mu_nu_closed(n)
        for r in (0.7, 1.3, 2.6):
            for omega in (0.4, 1.1):
                f = TF.mode(omega)
                via_general = T.delta0_general(
                    f, lam, float(mu_c(r)), float(nu_c(r)), r ** -n)
                display = T.delta0_power(f, lam, n).scale(r ** -n)
                scale = max(display.max_coeff(), 1e-300)
                ok = ok and (via_general - display).max_coeff() / scale < 1e-12
    with mpmath.workdps(60):
        eps = mpmath.mpf("1e-30")
        for n0 in (1, 2):
            n = n0 + eps
            for r in (mpmath.mpf("0.7"), mpmath.mpf("2.6")):
                mu = 1 / ((2 - n) * r ** n)
                nu = 1 / ((2 - n) * (1 - n) * r ** n)
                for omega in (mpmath.mpf("0.4"), mpmath.mpf("1.1")):
                    got = _general_symbol_mp(omega, mpmath.mpf("0.3"),
                                             mu, nu, r ** -n)
                    want = _display_symbol_mp(omega, mpmath.mpf("0.3"),
                                              n0) / r ** n0
                    ok = ok and abs(got - want) / abs(want) < 1e-12
    report(6, "finite-difference Leibniz identities and power-law displays",
           ok)


def test_criterion_07_ode_residuals():
    radii = G.default_log_grid(0.3, 60.0, 100)
    ok = True
    for n in (1.0, 2.0, 3.0, 0.5, 5.0):
        mu, nu = G.mu_nu_closed(n)
        rm, rn = G.ode_residuals(G.RadialProfile.power_law(n), mu, nu, radii)
        ok = ok and max(rm.max(), rn.max()) < 1e-10
    beta, mu, nu = G.mu_nu_newton(1e-3, 1.0)
    rm, rn = G.ode_residuals(beta, mu, nu, radii)
    ok = ok and max(rm.max(), rn.max()) < 1e-10
    grid = G.default_log_grid(0.5, 10.0, 200)
    for n in (1.0, 3.0):
        mu_c, nu_c = G.mu_nu_closed(n)
        mu_n, nu_n = G.mu_nu_numeric(G.RadialProfile.power_law(n), 1.0,
                                     float(mu_c(1.0)), float(nu_c(1.0)),
                                     grid)
        dev = max(np.max(np.abs(mu_n(grid) - mu_c(grid))),
                  np.max(np.abs(nu_n(grid) - nu_c(grid))))
        ok = ok and dev < 1e-8
    report(7, "profile equations: closed forms and numeric integrator", ok)


def _battery():
    def exp_prof():
        return G.RadialProfile(
            lambda r: np.exp(-np.asarray(r, dtype=float)),
            deriv=lambda r: -np.exp(-r), deriv2=lambda r: np.exp(-r))

    def gauss(wd):
        w2 = wd ** 2
        return G.RadialProfile(
            lambda r: np.exp(-np.asarray(r, dtype=float) ** 2 / (2 * w2)),
            deriv=lambda r: -r / w2 * np.exp(-r ** 2 / (2 * w2)),
            deriv2=lambda r: (r ** 2 / w2 - 1) / w2
            * np.exp(-r ** 2 / (2 * w2)))

    fields = []
    for omega in (0.3, 0.8, 1.5):
        fields.append(W.SeparableField.single(exp_prof(), TF.mode(omega)))
        fields.append(W.SeparableField.single(gauss(1.5), TF.mode(omega)))
    fields.append(conftest.time_only(TF.mode(0.6)))
    fields.append(W.SeparableField.single(exp_prof(), TF.monomial(2)))
    fields.append(W.SeparableField.single(gauss(2.0),
                                          conftest.tf_constant(1.0)))
    fields.append(W.SeparableField.single(exp_prof(), TF.mode(0.4))
                  + W.SeparableField.single(gauss(1.0), TF.mode(1.1)))
    return fields


def test_criterion_08_wave_operator_coherence():
    lam, c, gamma = 0.05, 1.0, 1e-3
    grid = G.default_log_grid(0.5, 20.0, 80)
    beta0 = -1.0 / c ** 2
    prof = G.RadialProfile.constant(beta0)
    half = G.RadialProfile.constant(beta0 / 2)
    ok = True
    for psi in _battery():
        bc = W.box_const(psi, beta0, lam)
        d, s = W.field_max_diff(W.box_general(psi, prof, half, half, lam),
                                bc, grid)
        ok = ok and d / s < 1e-10
        d, s = W.field_max_diff(V.box_newton_oracle(psi, gamma, c, lam),
                                W.box_newton(psi, gamma, c, lam), grid)
        ok = ok and d / s < 1e-8
    report(8, "wave-operator variant coherence on the 10-field battery", ok)


def test_criterion_09_spectrum():
    t0 = time.perf_counter()
    m_I = m_G = 1.0
    V0, M, Gn, hbar = 0.0, 1.0, 1e-3, 1.0
    oracle = {(s.n, s.l): s.E
              for s in S.bohr_oracle(m_I, m_G, V0, M, Gn, hbar, 3)}
    ok = True
    for l in (0, 1):
        for s in S.solve_radial(m_I, m_G, V0, M, Gn, hbar, l=l,
                                n_states=3 - l):
            ok = ok and abs(s.E - oracle[(s.n, 0)]) \
                / abs(oracle[(s.n, 0)]) < 5e-3
    a = S.bohr_radius(m_I, m_G, M, Gn, hbar)
    fine = np.linspace(a * 40 / 8000, a * 40, 8000)
    for s in S.solve_radial(m_I, m_G, V0, M, Gn, hbar, grid=fine, n_states=3):
        ok = ok and abs(s.E - oracle[(s.n, 0)]) / abs(oracle[(s.n, 0)]) < 1e-3
    ok = ok and V.virial_check(m_I, m_G, V0, M, Gn, hbar)["virial_rel"] < 1e-2
    ok = ok and time.perf_counter() - t0 < 30.0
    report(9, "bound-state energies vs closed-form oracle, virial balance",
           ok)


def test_criterion_10_reduction_scaling():
    t0 = time.perf_counter()
    m, lam, gamma = 1.0, 0.05, 1e-2
    gaps = []
    for s in (1.0, 0.5, 0.25, 0.125):
        a = 1e3 / s
        grid = np.linspace(a, 6 * a, 300)
        gaps.append(V.reduction_residual(m, gamma, lam, 1e-2 * s,
                                         V.exp_orbital(a), grid).gap_i_iii)
    ok = all(4 * 0.7 < hi / lo < 4 * 1.3 for hi, lo in zip(gaps, gaps[1:]))
    grid = np.linspace(1e3, 6e3, 300)
    devs = [V.reduction_residual(m, g, lam, 1e-2, V.exp_orbital(1e3), grid,
                                 ablate_gamma_psidot=True).gap_i_ii
            for g in (1e-2, 2e-2, 4e-2)]
    ok = ok and 1.8 < devs[1] / devs[0] < 2.2 \
        and 1.8 < devs[2] / devs[1] < 2.2
    ok = ok and time.perf_counter() - t0 < 60.0
    report(10, "reduction gap quadratic in slow scales, ablation linear",
           ok)


def test_criterion_11_dark_energy():
    rep = E.dark_energy_estimate(1e53, 1e26)
    g_cm3 = rep["mass_density"] * 1e3 / 1e6
    ok = 1.1e-30 < g_cm3 < 1.1e-28 and abs(g_cm3 - 1.1e-29) < 0.05e-29
    report(11, "vacuum-density estimate at the documented inputs", ok)


def test_criterion_12_verify_full():
    t0 = time.perf_counter()
    rep = V.run("full")
    elapsed = time.perf_counter() - t0
    ok = rep["n_failed"] == 0 and rep["n_checks"] >= 25 and elapsed < 300.0
    report(12, "full self-check registry green in %.0f s" % elapsed, ok)
