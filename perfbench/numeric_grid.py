"""numeric-grid workload: the per-point numeric layers called in bulk.

Items, each on inputs drawn from the seed at a fixed size:

- pointwise `waveops.box_general` with power-law beta (n = 3) and the
  closed-form mu, nu on a two-term `SeparableField` over a log grid;
- `dispersion.sweep` over a uniform omega grid with m > 0, one eighth of it
  in the evanescent band;
- `effective.figure1_data` in the small-x band (mpmath path) and in the
  closed-form band;
- `spectrum.solve_radial(check_grid=True)` for l = 0, 1, 2;
- `geometry.mu_nu_numeric` for a generic power law;
- the `timeops` Leibniz identities on seeded `TimeFunction` pairs.

The parameters the seed draws change values, not the amount of work: sizes
are fixed, and the evanescent share of the sweep is fixed by placing the
band edge.
"""

from __future__ import annotations

import math
import random

import mpmath
import numpy as np

from ncgrav import dispersion, effective, geometry, spectrum, timeops, waveops
from ncgrav.timeops import TimeFunction

SIZES = {
    "full": {"nodes": 10000, "omegas": 10000, "small_x": 2000,
             "closed_x": 10000, "radial": 8000, "mu_nu": 4000, "tf_pairs": 500},
    "tiny": {"nodes": 100, "omegas": 100, "small_x": 20,
             "closed_x": 100, "radial": 2000, "mu_nu": 100, "tf_pairs": 5},
}
EVANESCENT_SHARE = 0.125
SMALL_X_MAX = 1e-4 * 0.9  # below effective.SMALL_X: every point takes mpmath
REF_DPS = 40


def _exp_profile(a):
    return geometry.RadialProfile(
        lambda r: np.exp(-np.asarray(r, dtype=float) / a),
        deriv=lambda r: -np.exp(-np.asarray(r, dtype=float) / a) / a,
        deriv2=lambda r: np.exp(-np.asarray(r, dtype=float) / a) / a ** 2)


def _box_item(rng, nodes):
    lam = rng.uniform(0.03, 0.08)
    psi = waveops.SeparableField([
        (_exp_profile(rng.uniform(1.0, 3.0)),
         TimeFunction({(0, -1j * rng.uniform(0.3, 1.5)): rng.uniform(0.5, 1.5),
                       (1, -1j * rng.uniform(0.3, 1.5)): rng.uniform(0.1, 0.5)})),
        (_exp_profile(rng.uniform(3.0, 8.0)),
         TimeFunction.mode(rng.uniform(0.3, 1.5), rng.uniform(0.5, 1.5))),
    ])
    beta = geometry.RadialProfile.power_law(3)
    mu, nu = geometry.mu_nu_closed(3)
    grid = geometry.default_log_grid(0.5, 20.0, nodes)
    ref = {}

    def run():
        return waveops.box_general(psi, beta, mu, nu, lam, grid=grid,
                                   mode="pointwise")

    def check(out):
        if "grid" not in ref:
            ref["grid"] = waveops.box_general(psi, beta, mu, nu, lam).to_grid(grid)
        diff, scale = waveops.field_max_diff(out, ref["grid"], grid)
        if not diff <= 1e-10 * scale:
            return "pointwise box_general off the closed form by %.2e" % (
                diff / scale)
        return None

    return "box_general", run, check, nodes


def _sweep_item(rng, n_omega):
    lam, m = rng.uniform(0.5, 1.5), rng.uniform(0.3, 0.7)
    # k^2 = 0 where (1 - y)^2 = (m lam)^2 y, y = exp(-omega lam)  (c = hbar = 1)
    b = 2 + (m * lam) ** 2
    edge = -math.log((b - math.sqrt(b * b - 4)) / 2) / lam
    omegas = np.linspace(0.0, edge / EVANESCENT_SHARE, n_omega)
    ref = {}

    def run():
        return dispersion.sweep(omegas, m, lam, 1.0, 1.0)

    def check(out):
        if "k2" not in ref:
            ref["k2"] = [dispersion.k_squared_closed(float(w), m, lam, 1.0, 1.0)
                         for w in omegas]
        tol = 1e-10 / lam  # momenta are bounded by 1/(c lam)
        for p, k2 in zip(out, ref["k2"]):
            if k2 < 0:
                if not math.isnan(p.k):
                    return "k = %r in the evanescent band" % p.k
            elif not abs(p.k - math.sqrt(k2)) <= tol:
                return "sweep k off the closed form at omega = %r" % p.omega
        return None

    return "sweep", run, check, n_omega


def _reference_row(x):
    with mpmath.workdps(REF_DPS):
        xm = mpmath.mpf(float(x))
        mi = -mpmath.expm1(-2 * xm) / 2
        mg = xm * (xm + mpmath.expm1(-xm)) / (xm / 2 * mpmath.sinh(xm))
        v0 = xm ** 2 / mpmath.sinh(xm) - xm / mpmath.cosh(xm / 2)
        return float(mi), float(mg), float(v0)


def _figure1_item(label, x_max, n_points):
    ref = {}

    def run():
        return effective.figure1_data(x_max=x_max, n_points=n_points)

    def check(out):
        if "rows" not in ref:
            ref["rows"] = np.array([_reference_row(x) for x in out[:, 0]])
        want = ref["rows"]
        # m_I and m_G to 1e-10 relative; V0 to 1e-12 absolute in m_p c^2, the
        # table's unit (see NOTES.md: the V0 column cancels at small x)
        rel = np.abs(out[:, 1:3] - want[:, :2]) / np.abs(want[:, :2])
        if not np.all(rel <= 1e-10):
            return "m_I or m_G off the mpmath reference by %.2e" % rel.max()
        dv0 = np.abs(out[:, 3] - want[:, 2])
        if not np.all(dv0 <= 1e-12):
            return "V0 off the mpmath reference by %.2e" % dv0.max()
        return None

    return label, run, check, n_points


def _radial_item(l, M, nodes):
    m_I = m_G = hbar = 1.0
    Gn, V0 = 1e-3, 0.0
    a = spectrum.bohr_radius(m_I, m_G, M, Gn, hbar)
    grid = np.linspace(a * 40 / nodes, a * 40, nodes)
    n_states = 3 - l
    oracle = {s.n: s.E for s in spectrum.bohr_oracle(m_I, m_G, V0, M, Gn,
                                                     hbar, 3) if s.l == 0}

    def run():
        return spectrum.solve_radial(m_I, m_G, V0, M, Gn, hbar, l=l, grid=grid,
                                     n_states=n_states, check_grid=True)

    def check(out):
        if [s.n for s in out] != list(range(l + 1, 4)):
            return "l = %d: states %r" % (l, [s.n for s in out])
        for s in out:
            if not abs(s.E - oracle[s.n]) <= 1e-3 * abs(oracle[s.n]):
                return "l = %d, n = %d off the Bohr oracle" % (l, s.n)
        return None

    return "solve_radial", run, check, nodes


def _mu_nu_item(rng, nodes):
    n = rng.uniform(2.5, 4.5)
    beta = geometry.RadialProfile.power_law(n)
    mu_c, nu_c = geometry.mu_nu_closed(n)
    grid = geometry.default_log_grid(0.5, 10.0, nodes)
    pin_mu, pin_nu = float(mu_c(1.0)), float(nu_c(1.0))

    def run():
        return geometry.mu_nu_numeric(beta, 1.0, pin_mu, pin_nu, grid)

    def check(out):
        for got, want in zip(out, (mu_c, nu_c)):
            w = np.asarray(want(grid))
            dev = np.max(np.abs(np.asarray(got(grid)) - w) / np.abs(w))
            if not dev <= 1e-8:
                return "mu_nu_numeric off the closed form by %.2e" % dev
        return None

    return "mu_nu_numeric", run, check, nodes


def _rand_tf(rng):
    out = TimeFunction.zero()
    for _ in range(2):
        out = out + TimeFunction({
            (rng.randint(0, 2), complex(rng.uniform(-0.5, 0.5),
                                        rng.uniform(-0.5, 0.5))):
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))})
    return out


def _leibniz_item(rng, n_pairs):
    lam = rng.uniform(0.2, 0.4)
    pairs = [(_rand_tf(rng), _rand_tf(rng)) for _ in range(n_pairs)]
    T = timeops

    def run():
        out = []
        for f, g in pairs:
            fg = f * g
            out.append((T.delta0_const(fg, lam, 1.0),
                        T.delta0_const(f, lam, 1.0) * g.shift(1, lam)
                        + f.shift(-1, lam) * T.delta0_const(g, lam, 1.0)
                        + T.d0(f, lam) * T.d0(g, lam).shift(1, lam)))
            out.append((T.delta0_hybrid(fg, lam),
                        T.delta0_hybrid(f, lam) * g
                        + f.shift(-1, lam) * T.delta0_hybrid(g, lam)
                        + T.d0(f, lam) * g.deriv()))
        return out

    def check(out):
        for lhs, rhs in out:
            dev = (lhs - rhs).max_coeff() / max(lhs.max_coeff(),
                                                rhs.max_coeff(), 1.0)
            if not dev < 1e-12:
                return "timeops Leibniz identity off by %.2e" % dev
        return None

    return "timeops-leibniz", run, check, n_pairs


def build(seed, size="full"):
    """Items (label, run, check, units) for one pass."""
    n = SIZES[size]
    rng = random.Random(seed)
    items = [
        _box_item(rng, n["nodes"]),
        _sweep_item(rng, n["omegas"]),
        _figure1_item("figure1-small-x", rng.uniform(0.2, 1.0) * SMALL_X_MAX,
                      n["small_x"]),
        _figure1_item("figure1-closed", rng.uniform(8.0, 16.0), n["closed_x"]),
    ]
    M = rng.uniform(0.8, 1.25)
    items += [_radial_item(l, M, n["radial"]) for l in (0, 1, 2)]
    items += [_mu_nu_item(rng, n["mu_nu"]), _leibniz_item(rng, n["tf_pairs"])]
    return items


def layer_counts(outputs):
    """Counts read off one pass's (label, output) pairs."""
    pts = [p for label, out in outputs if label == "sweep" and out for p in out]
    return {"dispersion.evanescent_frac":
            sum(1 for p in pts if math.isnan(p.k)) / max(len(pts), 1)}
