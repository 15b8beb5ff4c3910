"""Bound states of the reduced radial problem and the reduction residuals.

The effective equation is i hbar dPsi/dt = -(hbar^2/2 m_I) lap Psi
+ (V0 - G M m_G / r) Psi.  Eigensolves use the u = r R substitution on a
uniform grid with Dirichlet ends (symmetric tridiagonal), solved by LAPACK's
bisection in the OpenBLAS numpy bundles (`_eigh_tridiagonal`, the calls of
scipy's `eigh_tridiagonal`, so no scipy import); `spectrum_table`
joins the numeric states with the closed-form oracle into the one spectrum
table the CLI renders.  The reduction laboratory evaluates the residual of
the same physical state at three stages:

  (i)   the full noncommutative Klein-Gordon residual of psi = Psi e^{-i m~ t}
  (ii)  the identical quantity re-expanded by the finite-difference Leibniz
        identities into slow-mode symbols (a bookkeeping identity: (ii) == (i)
        to roundoff, with every term explicit and individually ablatable)
  (iii) the effective Schrodinger residual with the closed-form parameters

The gap between (i) and (iii), after units conversion, carries exactly the
dropped slow-variation terms.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np

from . import effective, timeops, waveops
from .geometry import RadialProfile
from .timeops import TimeFunction
from .waveops import SeparableField


@dataclass(frozen=True)
class BoundState:
    n: int
    l: int
    E: float
    method: str  # "numeric" | "bohr-oracle"


class GridConvergenceError(RuntimeError):
    """Eigenvalues still drifting when the grid is doubled."""


def _require_positive(**values):
    for name, value in values.items():
        if not value > 0:
            raise ValueError("%s must be positive, got %r" % (name, value))


def bohr_radius(m_I, m_G, M, G, hbar):
    _require_positive(m_I=m_I, m_G=m_G, M=M, G=G, hbar=hbar)
    return hbar ** 2 / (m_I * G * M * m_G)


def bohr_oracle(m_I, m_G, V0, M, G, hbar, n_max=3):
    """E_n = V0 - m_I (G M m_G)^2 / (2 hbar^2 n^2), each with l = 0..n-1."""
    if min(m_I, m_G) <= 0:
        raise ValueError("masses must be positive")
    out = []
    for n in range(1, n_max + 1):
        E = V0 - m_I * (G * M * m_G) ** 2 / (2 * hbar ** 2 * n ** 2)
        for l in range(n):
            out.append(BoundState(n=n, l=l, E=E, method="bohr-oracle"))
    return out


# default grid: GRID_NODES uniform nodes out to GRID_BOHR Bohr radii for
# states up to n = 3; default_grid scales both for higher n, up to
# GRID_NODES_MAX nodes (n_max = 30)
GRID_BOHR = 40.0
GRID_NODES = 4000
GRID_NODES_MAX = 400_000
# largest relative eigenvalue change allowed when check_grid doubles the grid
DRIFT_TOL = 5e-3


def default_grid(m_I, m_G, M, G, hbar, n_max=3):
    """The uniform grid for states up to n_max: the box and the node count
    are GRID_BOHR Bohr radii and GRID_NODES, both times max(1, (n_max/3)^2),
    since the n-th state reaches out to about n^2 Bohr radii."""
    scale = max(1.0, (n_max / 3) ** 2)
    nodes = math.ceil(GRID_NODES * scale)
    if nodes > GRID_NODES_MAX:
        raise ValueError("states up to n = %d need a default grid of %d "
                         "nodes, above %d" % (n_max, nodes, GRID_NODES_MAX))
    box = bohr_radius(m_I, m_G, M, G, hbar) * GRID_BOHR * scale
    return np.linspace(box / nodes, box, nodes)


# -- LAPACK's tridiagonal bisection, from the OpenBLAS numpy loads ----------

@functools.cache
def _lapack():
    """(dstebz, dstein) of the ILP64 OpenBLAS that numpy's wheels bundle in
    numpy.libs beside the package, which numpy has already mapped into the
    process; None where that library or its symbols do not resolve, and then
    `_eigh_tridiagonal` goes through scipy."""
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            stebz, stein = lib.scipy_dstebz_64_, lib.scipy_dstein_64_
        except (OSError, AttributeError):
            continue
        # every Fortran argument is a pointer; dstebz's two character
        # arguments add two hidden lengths at the end
        ptr = ctypes.c_void_p
        stebz.argtypes = [ctypes.c_char_p] * 2 + [ptr] * 16 \
            + [ctypes.c_size_t] * 2
        stein.argtypes = [ptr] * 13
        stebz.restype = stein.restype = None
        return stebz, stein
    return None


_INT = ctypes.c_int64  # LAPACK's INTEGER in the ILP64 library


def _work(count, dtype=float):
    """A scratch array of count elements, as a LAPACK pointer argument."""
    return np.empty(count, dtype=dtype).ctypes


def _check_info(info, routine):
    if info.value:
        raise np.linalg.LinAlgError("LAPACK %s (eigh_tridiagonal) returned "
                                    "INFO = %d" % (routine, info.value))


def _eigh_tridiagonal(d, e, k, return_vectors):
    """The k lowest eigenvalues (and eigenvectors, as the columns of a
    matrix) of the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e, by the calls scipy's `eigh_tridiagonal(d, e, select="i",
    select_range=(0, k - 1))` makes: LAPACK dstebz (Sturm-sequence
    bisection; RANGE = 'I', IL = 1, IU = k, ABSTOL = 0) with ORDER = 'E',
    or with ORDER = 'B' then dstein and an argsort for the vectors.  The
    eigenvalues are bit for bit scipy's.  A nonzero INFO raises
    LinAlgError."""
    routines = _lapack()
    if routines is None:
        from scipy.linalg import eigh_tridiagonal
        return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
                                eigvals_only=not return_vectors)
    stebz, stein = routines
    ref, real = ctypes.byref, ctypes.c_double
    d = np.ascontiguousarray(d, dtype=float)
    e = np.ascontiguousarray(e, dtype=float)
    size = len(d)
    n, m, nsplit, info = _INT(size), _INT(), _INT(), _INT()
    w = np.empty(size)
    iblock, isplit = np.empty((2, size), dtype=np.int64)
    # RANGE, ORDER, N, VL, VU (both unused), IL, IU, ABSTOL, D, E, M,
    # NSPLIT, W, IBLOCK, ISPLIT, WORK(4N), IWORK(3N), INFO, and the lengths
    # of the two strings
    stebz(b"I", b"B" if return_vectors else b"E", ref(n), ref(real(0.0)),
          ref(real(1.0)), ref(_INT(1)), ref(_INT(k)), ref(real(0.0)),
          d.ctypes, e.ctypes, ref(m), ref(nsplit), w.ctypes, iblock.ctypes,
          isplit.ctypes, _work(4 * size), _work(3 * size, np.int64),
          ref(info), 1, 1)
    _check_info(info, "dstebz")
    w = w[:m.value]
    if not return_vectors:
        return w
    # N, D, E, M, W, IBLOCK, ISPLIT, Z(LDZ, M), LDZ, WORK(5N), IWORK(N),
    # IFAIL(M), INFO; Z in Fortran order is the C-order array z.T
    z = np.empty((m.value, size))
    stein(ref(n), d.ctypes, e.ctypes, ref(m), w.ctypes, iblock.ctypes,
          isplit.ctypes, z.ctypes, ref(n), _work(5 * size),
          _work(size, np.int64), _work(m.value, np.int64), ref(info))
    _check_info(info, "dstein")
    # block order to ascending order, as scipy sorts it
    order = np.argsort(w)
    return w[order], z.T[:, order]


def solve_radial(m_I, m_G, V0, M, G, hbar, l=0, grid=None, n_states=3,
                 return_vectors=False, check_grid=False):
    """Lowest bound states below V0 at angular index l.

    The coupling G M m_G may be zero on an explicit grid (no bound states);
    the default grid scales with the Bohr radius, so it needs all five
    parameters positive.

    The eigenvalues come from LAPACK's bisection (`_eigh_tridiagonal`), so
    the digits of E past about 1e-13 relative are its tolerance, not the
    inputs': at x = 1e-8 (`spectrum --x 1e-8`) a one-ulp rise of m_G moves
    E(n=1) from -5.416541589588577e-25 to -5.416541589588281e-25 (5.5e-14
    relative; the true change is about 4e-16)."""
    if l < 0:
        raise ValueError("l must be >= 0, got %r" % l)
    if n_states < 1:
        raise ValueError("n_states must be >= 1, got %r" % n_states)
    _require_positive(m_I=m_I, hbar=hbar)
    if grid is None:
        grid = default_grid(m_I, m_G, M, G, hbar, n_max=l + n_states)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2000:
        raise ValueError("grid needs >= 2000 nodes for the target accuracy")
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h, rtol=1e-8):
        raise ValueError("solve_radial expects a uniform grid")
    with np.errstate(all="ignore"):  # a Hamiltonian out of range is refused
        kin = hbar ** 2 / (2 * m_I * h ** 2)
        pot = (hbar ** 2 * l * (l + 1) / (2 * m_I * grid ** 2)
               + V0 - G * M * m_G / grid)
        diag = 2 * kin + pot
    if not (0 < kin < math.inf and np.isfinite(diag).all()):
        raise ValueError(
            "solve_radial: the Hamiltonian on the grid of spacing h = %g "
            "leaves the float range (hbar^2/(2 m_I h^2) = %g, potential "
            "from %g to %g)" % (h, kin, pot.min(), pot.max()))
    off = np.full(grid.size - 1, -kin)
    k = min(n_states + l, grid.size - 2)
    if return_vectors:
        vals, vecs = _eigh_tridiagonal(diag, off, k, True)
    else:
        vals = _eigh_tridiagonal(diag, off, k, False)
    states = []
    for j, E in enumerate(vals):
        if E >= V0:
            break
        states.append(BoundState(n=l + 1 + j, l=l, E=float(E),
                                 method="numeric"))
    states = states[:n_states]
    if check_grid and states:
        fine = np.linspace(grid[0] / 2, grid[-1], grid.size * 2)
        ref = solve_radial(m_I, m_G, V0, M, G, hbar, l=l, grid=fine,
                           n_states=len(states))
        for s, sr in zip(states, ref):
            scale = abs(sr.E - V0) + 1e-300
            if abs(s.E - sr.E) / scale > DRIFT_TOL:
                raise GridConvergenceError(
                    "state n=%d drifts %.2e under grid doubling"
                    % (s.n, abs(s.E - sr.E) / scale))
    if return_vectors:
        return states, grid, vecs
    return states


def spectrum_table(x, M, units, l=0, n_states=3):
    """The spectrum table of a particle of mass x m_p about a central mass M:
    a record array with one row per numeric state (grid doubling checked)
    and the fields n, l, E_numeric, E_oracle (bohr_oracle at that n), rel_err
    = |E_numeric - E_oracle| / |E_oracle - V0| and V0."""
    pars = effective.effective_params(x * units.m_p, units)
    states = solve_radial(pars.m_I, pars.m_G, pars.V0, M, units.G, units.hbar,
                          l=l, n_states=n_states, check_grid=True)
    oracle = {s.n: s.E for s in bohr_oracle(
        pars.m_I, pars.m_G, pars.V0, M, units.G, units.hbar,
        n_max=l + n_states) if s.l == 0}
    rows = [(s.n, s.l, s.E, oracle[s.n],
             abs(s.E - oracle[s.n]) / abs(oracle[s.n] - pars.V0), pars.V0)
            for s in states]
    return np.array(rows, dtype=[
        ("n", int), ("l", int), ("E_numeric", float), ("E_oracle", float),
        ("rel_err", float), ("V0", float)]).view(np.recarray)


def virial_check(m_I, m_G, V0, M, G, hbar, grid=None):
    """2<T> + <V - V0> on the numeric ground state (Coulomb virial)."""
    states, grid, vecs = solve_radial(m_I, m_G, V0, M, G, hbar,
                                      return_vectors=True, n_states=1,
                                      grid=grid)
    u = vecs[:, 0]
    h = grid[1] - grid[0]
    norm = np.trapezoid(u * u, dx=h)
    V = np.trapezoid((-G * M * m_G / grid) * u * u, dx=h) / norm
    # kinetic energy consistent with the discrete Hamiltonian: E = T + V0 + V
    T = states[0].E - V0 - V
    return {"T": float(T), "V": float(V), "E1": states[0].E,
            "virial_rel": float(abs(2 * T + V) / abs(V))}


# ---------------------------------------------------------------------------
# reduction residual laboratory (units hbar = c = 1 internally)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionScales:
    omega: float
    spatial_scale: float
    norm_i: float
    norm_ii: float
    norm_iii: float
    gap_i_ii: float       # bookkeeping identity, roundoff-level
    gap_i_iii: float      # dropped slow-variation terms, after conversion
    conversion: float


def _stage_two(phi_vals, lap_vals, drift_vals, r, m_t, omega, lam, gamma,
               ablate_gamma_psidot=False):
    """Fast-mode/slow-mode expansion of the weak-field operator residual.

    Every factor is an operator symbol on e^{-i m~ t} (fast) or e^{-i Omega t}
    (slow); evaluated at t = 0.  beta0 = -1 in these units.
    """
    beta0 = -1.0
    zeta = math.exp(m_t * lam)
    sigma = math.exp(omega * lam)
    c_f = timeops.symbol_delta0_const(m_t, lam, beta0)
    c_g = timeops.symbol_delta0_const(omega, lam, beta0)
    p0_f = timeops.symbol_d0(m_t, lam)
    p0_g = timeops.symbol_d0(omega, lam)
    h_f = timeops.symbol_delta0_hybrid(m_t, lam)
    h_g = timeops.symbol_delta0_hybrid(omega, lam)

    out = zeta * sigma * (lap_vals + drift_vals)
    out = out + 2 * phi_vals * (c_f * sigma + c_g / zeta
                                + beta0 * p0_f * p0_g * sigma)
    hybrid = h_f + h_g / zeta
    if not ablate_gamma_psidot:
        hybrid = hybrid + p0_f * (-1j * omega)
    out = out - (2 * gamma / r) * phi_vals * zeta * sigma * hybrid
    out = out - m_t ** 2 * phi_vals
    return out


def reduction_residual(m, gamma, lam, omega, phi, grid,
                       ablate_gamma_psidot=False):
    """Residual norms of Psi = phi(r) e^{-i omega t} at the three stages.

    phi: RadialProfile with analytic derivatives; units hbar = c = 1, so
    m~ = m and the Compton scale is 1/m.
    """
    grid = np.asarray(grid, dtype=float)
    m_t = m
    # stage (i): full operator via waveops
    psi = SeparableField.single(phi, TimeFunction.mode(m_t + omega))
    box = waveops.box_newton(psi, gamma, 1.0, lam)
    r_i = waveops.kg_residual(box, psi, m, 1.0, 1.0).to_grid(grid).evaluate(0.0)

    # stage (ii): identical operator, term-by-term symbol bookkeeping
    phi_vals = np.asarray(phi(grid), dtype=complex)
    lap_vals = phi.deriv2(grid) + 2.0 / grid * phi.deriv(grid)
    drift_vals = gamma / (2 * grid ** 2 * (1 + gamma / grid)) * phi.deriv(grid)
    r_ii = _stage_two(phi_vals, lap_vals, drift_vals, grid, m_t, omega, lam,
                      gamma, ablate_gamma_psidot=ablate_gamma_psidot)

    # stage (iii): effective Schrodinger residual with closed-form parameters
    units = effective.PlanckUnits(lam=lam)
    pars = effective.effective_params(m, units)
    GMmG = gamma / 2 * pars.m_G  # gamma = 2 G M / c^2
    r_iii = (omega * phi_vals + lap_vals / (2 * pars.m_I)
             - (pars.V0 - GMmG / grid) * phi_vals)

    x = m_t * lam
    K = (1.0 / (2 * m)) * (x / math.sinh(x))
    norm = lambda v: float(np.max(np.abs(v)))
    scale_iii = max(norm(omega * phi_vals), norm(lap_vals / (2 * pars.m_I)),
                    norm(GMmG / grid * phi_vals), 1e-300)
    return ReductionScales(
        omega=omega,
        spatial_scale=float(1.0 / np.max(np.abs(phi.deriv(grid)
                                                / phi_vals.real))),
        norm_i=norm(r_i),
        norm_ii=norm(r_ii),
        norm_iii=norm(r_iii) / scale_iii,
        gap_i_ii=norm(r_i - r_ii) / max(norm(r_i), 1e-300),
        gap_i_iii=norm(K * r_i - r_iii),
        conversion=K,
    )


def exp_orbital(a):
    """phi = e^{-r/a} with analytic derivatives (hydrogen-like shape)."""
    return RadialProfile(
        lambda r: np.exp(-np.asarray(r, dtype=float) / a),
        deriv=lambda r: -np.exp(-r / a) / a,
        deriv2=lambda r: np.exp(-r / a) / a ** 2,
        tag={"kind": "exp-orbital", "a": a})
