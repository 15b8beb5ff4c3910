"""Bound states of the reduced radial problem.

The effective equation is i hbar dPsi/dt = -(hbar^2/2 m_I) lap Psi
+ (V0 - G M m_G / r) Psi.  Eigensolves use the u = r R substitution on a
uniform grid with Dirichlet ends (symmetric tridiagonal), and ask only for
eigenvalues.  Two LAPACK routines of the OpenBLAS numpy bundles serve them,
so no scipy import: dstebz's bisection solves (`_eigh_tridiagonal`, the
call of scipy's `eigh_tridiagonal`), and dlaebz, dstebz's count kernel,
makes the Sturm counts of the grid check.  That check
(`solve_radial(check_grid=True)`) asks of the grid of half the spacing only
whether each energy stays within DRIFT_TOL: two Sturm counts per state on
its Hamiltonian, all made by one dlaebz call, answer that without solving
it, and the h/2 eigensolve runs only where a count cannot decide (Barth,
Martin & Wilkinson, Numer. Math. 9 (1967) 386).  `spectrum_table` joins the
numeric states with the closed-form oracle into the one spectrum table the
CLI renders.  The code only the registry runs on these states, the virial
balance and the reduction-residual laboratory, lives in `verify`.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np

from . import effective


@dataclass(frozen=True)
class BoundState:
    n: int
    l: int
    E: float


class GridConvergenceError(RuntimeError):
    """Eigenvalues still drifting when the grid is doubled."""


def _require_positive(**values):
    for name, value in values.items():
        if not value > 0:
            raise ValueError("%s must be positive, got %r" % (name, value))


def bohr_radius(m_I, m_G, M, G, hbar):
    """hbar^2/(m_I G M m_G); a radius outside the normal float range raises
    ValueError naming the parameters."""
    _require_positive(m_I=m_I, m_G=m_G, M=M, G=G, hbar=hbar)
    return effective._normal_scale(
        lambda: hbar ** 2 / (m_I * G * M * m_G),
        "the Bohr radius hbar^2/(m_I G M m_G)",
        m_I=m_I, m_G=m_G, M=M, G=G, hbar=hbar)


def bohr_oracle(m_I, m_G, V0, M, G, hbar, n_max=3):
    """E_n = V0 - m_I (G M m_G)^2 / (2 hbar^2 n^2), each with l = 0..n-1.
    A parameter that is not positive (V0: not finite), an n_max that is not
    an integer, or a depth below V0 outside the normal float range, raises
    ValueError naming it."""
    _require_positive(m_I=m_I, m_G=m_G, M=M, G=G, hbar=hbar)
    n_max = effective._require_index("n_max", n_max)
    if not math.isfinite(V0):
        raise ValueError("V0 must be finite, got %r" % V0)
    out = []
    for n in range(1, n_max + 1):
        E = V0 - effective._normal_scale(
            lambda: m_I * (G * M * m_G) ** 2 / (2 * hbar ** 2 * n ** 2),
            "bohr_oracle: the depth m_I (G M m_G)^2/(2 hbar^2 n^2) at n = %d"
            % n, m_I=m_I, m_G=m_G, M=M, G=G, hbar=hbar)
        for l in range(n):
            out.append(BoundState(n=n, l=l, E=E))
    return out


# default grid: GRID_NODES uniform nodes out to GRID_BOHR Bohr radii for
# states up to n = 3; default_grid scales both for higher n, up to
# GRID_NODES_MAX nodes (n_max = 30)
GRID_BOHR = 40.0
GRID_NODES = 4000
GRID_NODES_MAX = 400_000
# largest relative eigenvalue change allowed when check_grid doubles the grid
DRIFT_TOL = 5e-3
# the off-diagonal scales hbar^2/(2 m_I h^2) the eigensolve takes.  dstebz's
# split test drops e_j where |d_j d_j+1| ulp^2 + tiny > e_j^2: below KIN_MIN
# e_j^2 is not a normal float and every e_j is dropped (no bound state), and
# from KIN_MAX the kinetic diagonal 2 hbar^2/(m_I h^2) squares past the
# float max, so that |d_j d_j+1| overflows and drops every e_j too
KIN_MIN = math.sqrt(np.finfo(float).tiny)       # 1.5e-154
KIN_MAX = math.sqrt(np.finfo(float).max) / 2    # 6.7e153


def default_grid(m_I, m_G, M, G, hbar, n_max):
    """The uniform grid for states up to n_max: the box and the node count
    are GRID_BOHR Bohr radii and GRID_NODES, both times max(1, (n_max/3)^2),
    since the n-th state reaches out to about n^2 Bohr radii."""
    scale = max(1.0, (n_max / 3) ** 2)
    nodes = math.ceil(GRID_NODES * scale)
    if nodes > GRID_NODES_MAX:
        raise ValueError("states up to n = %d need a default grid of %d "
                         "nodes, above %d" % (n_max, nodes, GRID_NODES_MAX))
    a = bohr_radius(m_I, m_G, M, G, hbar)
    box = effective._normal_scale(
        lambda: a * GRID_BOHR * scale,
        "the default grid out to %g Bohr radii" % (GRID_BOHR * scale), a=a)
    return np.linspace(box / nodes, box, nodes)


# -- LAPACK's tridiagonal bisection, from the OpenBLAS numpy loads ----------

@functools.cache
def _lapack():
    """(dstebz, dlaebz) of the ILP64 OpenBLAS that numpy's wheels bundle in
    numpy.libs beside the package, which numpy has already mapped into the
    process; None where that library or a symbol does not resolve, and then
    scipy solves and check_grid solves h/2."""
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            stebz, laebz = lib.scipy_dstebz_64_, lib.scipy_dlaebz_64_
        except (OSError, AttributeError):
            continue
        # every Fortran argument is a pointer; dstebz's two character
        # arguments add two hidden lengths at the end
        ptr = ctypes.c_void_p
        stebz.argtypes = [ctypes.c_char_p] * 2 + [ptr] * 16 \
            + [ctypes.c_size_t] * 2
        laebz.argtypes = [ptr] * 20
        stebz.restype = laebz.restype = None
        return stebz, laebz
    return None


_INT = ctypes.c_int64  # LAPACK's INTEGER in the ILP64 library


def _work(count, dtype=float):
    """A scratch array of count elements, as a LAPACK pointer argument."""
    return np.empty(count, dtype=dtype).ctypes


def _eigh_tridiagonal(d, e, k):
    """The k lowest eigenvalues of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by the call scipy's `eigh_tridiagonal(d,
    e, select="i", select_range=(0, k - 1), eigvals_only=True)` makes:
    LAPACK dstebz (Sturm-sequence bisection; RANGE = 'I', IL = 1, IU = k,
    ABSTOL = 0, ORDER = 'E').  They are bit for bit scipy's.  A nonzero
    INFO raises LinAlgError."""
    routines = _lapack()
    if routines is None:
        from scipy.linalg import eigh_tridiagonal
        return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
                                eigvals_only=True)
    stebz = routines[0]
    d = np.ascontiguousarray(d, dtype=float)
    e = np.ascontiguousarray(e, dtype=float)
    ref, real, size = ctypes.byref, ctypes.c_double, len(d)
    m, nsplit, info, w = _INT(), _INT(), _INT(), np.empty(size)
    # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK,
    # ISPLIT, WORK(4N), IWORK(3N), INFO, and the lengths of the two strings
    stebz(b"I", b"E", ref(_INT(size)), ref(real()), ref(real()),
          ref(_INT(1)), ref(_INT(k)), ref(real()), d.ctypes, e.ctypes, ref(m),
          ref(nsplit), w.ctypes, _work(size, np.int64), _work(size, np.int64),
          _work(4 * size), _work(3 * size, np.int64), ref(info), 1, 1)
    if info.value:
        raise np.linalg.LinAlgError("LAPACK dstebz (eigh_tridiagonal) "
                                    "returned INFO = %d" % info.value)
    return w[:m.value]


def _grid_step(grid):
    """The spacing h of a grid solve_radial can take, which is a uniform,
    increasing grid of at least 2000 nodes that starts above r = 0; any
    other grid raises ValueError."""
    if grid.size < 2000:
        raise ValueError("grid needs >= 2000 nodes for the target accuracy")
    if not grid[0] > 0:
        raise ValueError("solve_radial: the grid must start above r = 0, "
                         "got r[0] = %r" % float(grid[0]))
    steps = np.diff(grid)
    if not (steps > 0).all():
        raise ValueError("solve_radial: the grid must increase")
    h = grid[1] - grid[0]
    # relative only: an absolute tolerance would pass any grid whose steps
    # all lie below it, as they do in units where the Bohr radius is small
    if not np.allclose(steps, h, rtol=1e-8, atol=0):
        raise ValueError("solve_radial expects a uniform grid")
    return h


def _hamiltonian(m_I, m_G, V0, M, G, hbar, l, grid):
    """(diag, off): the radial Hamiltonian on a grid checked by `_grid_step`;
    one whose entries leave the float range raises ValueError, and so does
    one whose off-diagonal scale hbar^2/(2 m_I h^2) lies outside [KIN_MIN,
    KIN_MAX)."""
    h = _grid_step(grid)
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
    if not KIN_MIN <= kin < KIN_MAX:
        raise ValueError(
            "solve_radial: on the grid of spacing h = %g, hbar^2/(2 m_I h^2) "
            "= %g lies outside [%.2g, %.2g), the scales LAPACK's bisection "
            "can square" % (h, kin, KIN_MIN, KIN_MAX))
    return diag, np.full(grid.size - 1, -kin)


def _solve_grid(diag, off, V0, l, n_states):
    """The lowest n_states bound states below V0 of the Hamiltonian (diag,
    off) at angular index l.  The j-th eigenvalue at l is the state
    n = l + 1 + j, so LAPACK is asked for n_states eigenvalues."""
    states = []
    for j, E in enumerate(_eigh_tridiagonal(diag, off,
                                            min(n_states, diag.size - 2))):
        if E >= V0:
            break
        states.append(BoundState(n=l + 1 + j, l=l, E=float(E)))
    return states


def _stebz_split(d, e):
    """(E2, PIVMIN) of dstebz for the matrix (d, e): E2 = e^2 but 0 where its
    split test |d_j d_j+1| ulp^2 + tiny > e_j^2 finds e_j negligible, and
    PIVMIN = tiny max(1, max E2), the least pivot of its Sturm counts."""
    fl = np.finfo(float)
    e2 = e * e
    with np.errstate(over="ignore"):  # a product that overflows splits, too
        e2[np.abs(d[1:] * d[:-1]) * fl.eps ** 2 + fl.tiny > e2] = 0.0
    return e2, fl.tiny * max(1.0, float(e2.max(initial=0.0)))


def _sturm_counts(laebz, d, e2, pivmin, ab):
    """N(x) for each x of the float array ab of shape (2, k), the number of
    eigenvalues <= x of the matrix (d, `_stebz_split`), by the Sturm count
    of dstebz's bisection: one dlaebz call, IJOB = 1; None where INFO != 0."""
    ref, k, mout, info = ctypes.byref, ab.shape[1], _INT(), _INT()
    nab, unread = np.empty((2, k), dtype=np.int64), np.zeros(k).ctypes
    # IJOB, NITMAX, N, MMAX, MINP, NBMIN, ABSTOL, RELTOL, PIVMIN, D, E, E2,
    # NVAL, AB, C, MOUT, NAB, WORK, IWORK, INFO; AB and NAB, (k, 2) in
    # Fortran order, are ab and nab.  IJOB = 1 reads only N, MMAX, MINP,
    # PIVMIN, D, E2 and AB, so the rest point at zeros
    laebz(ref(_INT(1)), unread, ref(_INT(len(d))), ref(_INT(k)), ref(_INT(k)),
          unread, unread, unread, ref(ctypes.c_double(pivmin)), d.ctypes,
          unread, e2.ctypes, unread, ab.ctypes, unread, ref(mout), nab.ctypes,
          unread, unread, ref(info))
    return None if info.value else nab


def _drift_certified(diag, off, V0, states):
    """Whether the Sturm counts on the h/2 Hamiltonian (diag, off) prove that
    no state found at h drifts by more than DRIFT_TOL, so that check_grid
    needs no h/2 eigensolve.  For the j-th state, E_j < V0, the drift test
    |E_j - E'|/|E' - V0| <= DRIFT_TOL holds exactly when the j-th h/2
    eigenvalue E' lies in [lo_j, hi_j], lo_j = (E_j - DRIFT_TOL V0)/(1 -
    DRIFT_TOL) and hi_j = (E_j + DRIFT_TOL V0)/(1 + DRIFT_TOL); that is
    N(lo_j + margin) <= j - 1 and N(hi_j - margin) >= j, 2k counts that one
    `_sturm_counts` call makes.  False, and the caller solves h/2, where the
    counts fail or do not decide, or the LAPACK routines did not load.  The
    margin argument below holds for any PIVMIN, which needs no guard."""
    routines = _lapack()
    if routines is None:
        return False
    tnorm = float(np.abs(diag).max()) - 2 * float(off[0])  # Gershgorin
    e2, pivmin = _stebz_split(diag, off)
    # The margin covers every rounding between the counts and the drift
    # test.  The h/2 eigensolve (dstebz, RANGE = 'I', ABSTOL = 0) bisects
    # with the same Sturm count until its interval is narrower than
    # max(ulp tnorm, PIVMIN, 2 ulp |E'|) and returns the midpoint, so its E'
    # lies within 2 ulp tnorm + PIVMIN of the point where the count steps to
    # j; a computed count is exact for a matrix within a few ulp of tnorm
    # plus 2 PIVMIN of (diag, off), however large PIVMIN is (Demmel, Dhillon
    # & Ren, ETNA 3 (1995) 116); lo_j, hi_j and the drift ratio each round
    # by a few ulp of max(|E_j|, |V0|).  1024 ulp of the largest of these
    # scales is over a hundred times their sum, and 4 PIVMIN covers 3 PIVMIN.
    scale = max(tnorm, abs(V0), *(abs(s.E) for s in states))
    margin = 1024 * np.finfo(float).eps * scale + 4 * pivmin
    E = np.array([s.E for s in states])
    ab = np.array([(E - DRIFT_TOL * V0) / (1 - DRIFT_TOL) + margin,
                   (E + DRIFT_TOL * V0) / (1 + DRIFT_TOL) - margin])
    if not np.isfinite(ab).all():  # an end that overflows proves nothing
        return False
    nab = _sturm_counts(routines[1], diag, e2, pivmin, ab)
    return nab is not None and all(n_lo <= j < n_hi
                                   for j, (n_lo, n_hi) in enumerate(nab.T))


def solve_radial(m_I, m_G, V0, M, G, hbar, l=0, grid=None, n_states=3,
                 check_grid=False):
    """Lowest bound states below V0 at angular index l.

    The coupling G M m_G may be zero on an explicit grid (no bound states);
    the default grid scales with the Bohr radius, so it needs all five
    parameters positive.  An explicit grid must be uniform and increasing,
    start above r = 0 and hold at least 2000 nodes; any other raises
    ValueError before a solve starts, and so does a Hamiltonian out of the
    float range or with an off-diagonal scale hbar^2/(2 m_I h^2) outside
    [KIN_MIN, KIN_MAX), about 1.5e-154 to 6.7e153.

    check_grid compares with the grid of half the spacing over the same box
    and raises GridConvergenceError where an energy moves by more than
    DRIFT_TOL relative to its depth below V0.  Where the grid h holds bound
    states, the h/2 Hamiltonian is built (and refused as the grid h is),
    and LAPACK's Sturm counts on it, one dlaebz call for all the
    states, certify that each h/2 eigenvalue lies within DRIFT_TOL of its
    state (`_drift_certified`) without solving for it.  Where the counts
    cannot certify a state (it drifts, or lies within a few hundred ulp of
    the bound), or the LAPACK routines did not load, the h/2 grid is solved
    for as many states as h found and compared state by state, so the
    verdict and the message are those of that comparison.

    l and n_states are integers (what operator.index takes, but no bool);
    any other value raises ValueError naming it before a solve starts.  The
    j-th eigenvalue at l is the state n = l + 1 + j, so LAPACK is asked for
    the n_states lowest eigenvalues.

    The eigenvalues come from LAPACK's bisection (`_eigh_tridiagonal`, with
    ABSTOL = 0), which stops at ulp ||H||, one ulp of the Hamiltonian's
    Gershgorin norm, absolute.  So E is good to that much and no further:
    at x = 1e-8 (`spectrum --x 1e-8`) it is 8.9e-12 to 8.0e-11 of the depth
    |E - V0| at l = 0 (n = 1-3), and up to 5.5e-10 at l = 2 (n = 3-5)."""
    l = effective._require_index("l", l)
    n_states = effective._require_index("n_states", n_states)
    if l < 0:
        raise ValueError("l must be >= 0, got %r" % l)
    if n_states < 1:
        raise ValueError("n_states must be >= 1, got %r" % n_states)
    _require_positive(m_I=m_I, hbar=hbar)
    if grid is None:
        grid = default_grid(m_I, m_G, M, G, hbar, n_max=l + n_states)
    grid = np.asarray(grid, dtype=float)
    pars = (m_I, m_G, V0, M, G, hbar, l)
    states = _solve_grid(*_hamiltonian(*pars, grid), V0, l, n_states)
    if check_grid and states:
        fine = _hamiltonian(*pars, np.linspace(grid[0] / 2, grid[-1],
                                               grid.size * 2))
        if not _drift_certified(*fine, V0, states):
            ref = _solve_grid(*fine, V0, l, len(states))
            for s, sr in zip(states, ref):
                scale = abs(sr.E - V0) + 1e-300
                if abs(s.E - sr.E) / scale > DRIFT_TOL:
                    raise GridConvergenceError(
                        "state n=%d drifts %.2e under grid doubling"
                        % (s.n, abs(s.E - sr.E) / scale))
    return states


def spectrum_table(x, M, units, l=0, n_states=3):
    """The spectrum table of a particle of mass x m_p about a central mass M:
    a record array with one row per numeric state (grid doubling checked)
    and the fields n, l, E_numeric, E_oracle (bohr_oracle at that n), rel_err
    = |E_numeric - E_oracle| / |E_oracle - V0| and V0.  An x or M that is
    not positive, or a depth E_oracle - V0 that rounds to 0 against V0,
    raises ValueError naming it."""
    _require_positive(x=x, M=M)
    pars = effective.effective_params(x * units.m_p, units)
    states = solve_radial(pars.m_I, pars.m_G, pars.V0, M, units.G, units.hbar,
                          l=l, n_states=n_states, check_grid=True)
    oracle = {s.n: s.E for s in bohr_oracle(
        pars.m_I, pars.m_G, pars.V0, M, units.G, units.hbar,
        n_max=l + n_states) if s.l == 0}
    for s in states:
        if oracle[s.n] == pars.V0:  # rel_err would divide by 0
            raise ValueError("spectrum_table: the depth E_oracle - V0 of "
                             "state n = %d rounds to 0 against V0 = %r at "
                             "x = %r, M = %r" % (s.n, pars.V0, x, M))
    rows = [(s.n, s.l, s.E, oracle[s.n],
             abs(s.E - oracle[s.n]) / abs(oracle[s.n] - pars.V0), pars.V0)
            for s in states]
    return np.array(rows, dtype=[
        ("n", int), ("l", int), ("E_numeric", float), ("E_oracle", float),
        ("rel_err", float), ("V0", float)]).view(np.recarray)

