"""Deformed mass shell of the flat (beta = -1/c^2) model and group velocities.

Mode convention: e^{i k.x - i omega t} with omega >= 0; the imaginary time
shifts then produce real factors e^{omega lam}.

`sweep` is the one entry point: it returns the dispersion table, a numpy
record array with one row per omega and the fields omega, k, vg, residual
and evanescent, which the CLI refuses or renders as it stands; a single
omega is a one-row sweep.  It solves every omega at once: `_Shell` holds one
lane per omega, computes the closed-form k^2 and the k-free terms once per
lane, and runs Brent's method on all propagating lanes in lockstep, step for
step as scipy's `brentq` (brentq.c) runs it on one.  Each transcendental is
a `math` call and each k^2 is CPython's float pow, per element, with numpy
arithmetic in the scalar's order, so every lane is bit-identical to `brentq`
on the scalar residual and every k^2 to `k_squared_closed`; the tests hold
that against scipy.  Where the bracket end's term -k_hi^2 e^{omega lam}
overflows (omega lam within 2 ln k_hi of `U_MAX`), that lane's bracket ends
at the largest k at which the term is finite.

An omega with no propagating mode (k^2 < 0, or a massive shell that is
stationary there) is not an error but a row flag: its `evanescent` is 1,
its k, vg and residual are nan, and it never fails.  Everything else that
is outside the domain is refused up front, with a ValueError, before any
omega is solved, even where every row is evanescent: lam, c or hbar not
positive, m negative, or any of the four inf or nan; (c lam)^2 outside the
normal floats; (m c / hbar)^2 overflowing; then the first omega that is
nan, negative, or has omega lam above `U_MAX` (so the sweep raises what
`k_squared_closed` raises at that omega); then the prefactors 4/(c^2 lam^2)
of the k-free term and 2/(c^2 lam) of vg outside the normal floats.  Each
float-range refusal is `effective._normal_scale`'s.  Past these no term of
the shell residual can be nan; a residual with a term beyond the float
limit raises where Brent's method meets it, as do a bracket without a sign
change and brentq's iteration cap.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat

import numpy as np

from .effective import _libm, _normal_scale

# math.exp overflows above this (about 709.78)
U_MAX = math.log(sys.float_info.max)
# brentq's tolerances
XTOL, RTOL = 1e-12, 8.9e-16


def _check_domain(omega, m, lam, c, hbar):
    # "not 0 < x < inf" also refuses nan
    if not (0 < lam < math.inf and 0 < c < math.inf):
        raise ValueError("lam and c must be positive: lam = %g, c = %g"
                         % (lam, c))
    if not 0 < hbar < math.inf:
        raise ValueError("hbar must be positive: hbar = %g" % hbar)
    if not 0 <= m < math.inf:
        raise ValueError("m must be >= 0 (a negative mass is not treated): "
                         "m = %g" % m)
    _normal_scale(lambda: (c * lam) ** 2, "(c lam)^2", c=c, lam=lam)
    if not omega >= 0:  # nan too
        raise ValueError("omega must be >= 0 (the omega < 0 branch is not "
                         "treated): omega = %g" % omega)
    if omega * lam > U_MAX:
        raise ValueError("omega lam = %g is above %.6f, where exp(omega lam) "
                         "overflows" % (omega * lam, U_MAX))


def k_squared_closed(omega, m, lam, c, hbar):
    """k^2 = (1 - e^{-omega lam})^2 / (c lam)^2 - (m c / hbar)^2 e^{-omega lam}."""
    _check_domain(omega, m, lam, c, hbar)
    u = omega * lam
    a = -math.expm1(-u) / (c * lam)  # (1 - e^{-u}) / (c lam), stable
    try:
        mass2 = (m * c / hbar) ** 2
    except OverflowError:
        raise ValueError("(m c / hbar)^2 overflows at m = %g, c = %g, "
                         "hbar = %g" % (m, c, hbar)) from None
    return a * a - mass2 * math.exp(-u)


def _squares(x):
    """x ** 2 per element by CPython's float pow (libm pow; numpy's square
    rounds differently); an element that overflows raises OverflowError."""
    values = x.tolist()
    return np.fromiter(map(pow, values, repeat(2.0)), float, len(values))


def _term_finite(k, eu):
    try:
        return math.isfinite(k ** 2 * eu)
    except OverflowError:
        return False


def _largest_finite_k(eu):
    """The largest k at which -k^2 e^{omega lam} is finite."""
    k = math.sqrt(sys.float_info.max / eu)
    while not _term_finite(k, eu):
        k = math.nextafter(k, 0.0)
    while _term_finite(math.nextafter(k, math.inf), eu):
        k = math.nextafter(k, math.inf)
    return k


# a value that is not finite raises a named error where it is found, so
# numpy's floating-point warnings are silenced
_QUIET = np.errstate(all="ignore")


class _Shell:
    """The shell on an array of omegas, one lane per omega.  The domain is
    refused here, and k^2, e^{omega lam} and the k-free term are computed
    once per lane on the whole array; a lane with no propagating mode is
    flagged in `evanescent` and leaves every later stage."""

    @_QUIET
    def __init__(self, omegas, m, lam, c, hbar):
        self.m, self.lam, self.c, self.hbar = m, lam, c, hbar
        self.omega = omega = np.array(omegas, dtype=float)
        u = omega * lam
        # the domain at the first omega outside it (nan too), if there is one
        bad = omega[~(omega >= 0) | (u > U_MAX)]
        k_squared_closed(float(bad[0]) if len(bad) else 0.0, m, lam, c, hbar)
        self.t3 = (m * c / hbar) ** 2
        # k^2 as k_squared_closed computes it, lane by lane
        a = -_libm(math.expm1, -u) / (c * lam)
        self.k2 = a * a - self.t3 * _libm(math.exp, -u)
        self.evanescent = self.k2 < 0
        self.eu = _libm(math.exp, u)
        # the k-free term (2/(c^2 lam^2))(cosh(omega lam) - 1) and vg's scale
        self.t2 = _normal_scale(
            lambda: (2.0 / (c ** 2 * lam ** 2)) * 2.0,
            "the shell prefactor 4/(c^2 lam^2)", c=c, lam=lam) \
            * _squares(_libm(math.sinh, u / 2))
        self.vg_scale = _normal_scale(
            lambda: 2.0 / (c ** 2 * lam),
            "the group-velocity prefactor 2/(c^2 lam)", c=c, lam=lam)

    @_QUIET
    def residual(self, lanes, k):
        """Residual of -k^2 e^{omega lam} + (2/(c^2 lam^2))(cosh(omega lam)
        - 1) = (m c / hbar)^2 on each lane, normalized by the largest term;
        a ValueError where it is not finite."""
        t1 = -_squares(k) * self.eu[lanes]
        t2, t3 = self.t2[lanes], self.t3
        scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), abs(t3))
        res = (t1 + t2 - t3) / scale
        np.copyto(res, 0.0, where=scale == 0)
        nan = np.isnan(res)
        if nan.any():
            raise ValueError(
                "shell residual at omega = %g, lam = %g is not finite (a term "
                "is beyond the float limit %g)" % (
                    self.omega[lanes[nan.argmax()]], self.lam,
                    sys.float_info.max))
        return res

    @_QUIET
    def _brent(self, lanes, fa, k):
        """k on each lane by scipy's brentq.c on every lane at once, from
        a = 0 (f(a) = fa > 0) to b = k_hi = 1/(c lam) + m c/hbar + 1, capped
        at 100 + ceil(log2(k_hi / xtol)) iterations.  Each lane keeps its
        own state and leaves when it converges."""
        if not len(lanes):
            return
        k_hi = 1.0 / (self.c * self.lam) + self.m * self.c / self.hbar + 1.0
        maxiter = 100 + math.ceil(math.log2(k_hi / XTOL))
        b = np.full(len(lanes), k_hi)
        try:
            sq_hi = k_hi ** 2
        except OverflowError:
            sq_hi = math.inf
        over = np.isinf(sq_hi * self.eu[lanes])
        b[over] = list(map(_largest_finite_k, self.eu[lanes[over]].tolist()))
        fb = self.residual(lanes, b)
        if (fb > 0).any():
            raise ValueError("f(a) and f(b) must have different signs")
        done = fb == 0
        k[lanes[done]] = b[done]
        keep = ~done
        lanes = lanes[keep]
        zero = np.zeros(len(lanes))
        xpre, xcur, xblk = zero, b[keep], zero.copy()
        fpre, fcur, fblk = fa[keep], fb[keep], zero.copy()
        spre, scur = zero.copy(), zero.copy()
        for _ in range(maxiter):
            if not len(lanes):
                return
            flip = (fpre != 0) & (fcur != 0) \
                & (np.signbit(fpre) != np.signbit(fcur))
            step = xcur - xpre
            for dst, src in ((xblk, xpre), (fblk, fpre), (spre, step),
                             (scur, step)):
                np.copyto(dst, src, where=flip)
            swap = np.abs(fblk) < np.abs(fcur)
            for pre, cur, blk in ((xpre, xcur, xblk), (fpre, fcur, fblk)):
                np.copyto(pre, cur, where=swap)
                np.copyto(cur, blk, where=swap)
                np.copyto(blk, pre, where=swap)
            delta = (XTOL + RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            if done.any():
                k[lanes[done]] = xcur[done]
                keep = ~done
                lanes = lanes[keep]
                if not len(lanes):
                    return
                (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
                 sbis) = (v[keep] for v in (xpre, xcur, xblk, fpre, fcur,
                                            fblk, spre, scur, delta, sbis))
            # inverse quadratic interpolation, or the secant where
            # xpre = xblk; taken when the step is short enough
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = -fcur * (fblk * dblk - fpre * dpre) \
                / (dblk * dpre * (fblk - fpre))
            secant = xpre == xblk
            np.copyto(stry, -fcur * (xcur - xpre) / (fcur - fpre),
                      where=secant)
            bound = 3 * np.abs(sbis) - delta
            np.copyto(bound, np.abs(spre), where=np.abs(spre) < bound)
            short = (np.abs(spre) > delta) \
                & (np.abs(fcur) < np.abs(fpre)) & (2 * np.abs(stry) < bound)
            spre = np.where(short, scur, sbis)
            scur = np.where(short, stry, sbis)
            step = np.where(sbis > 0, delta, -delta)
            np.copyto(step, scur, where=np.abs(scur) > delta)
            xpre, fpre, xcur = xcur, fcur, xcur + step
            fcur = self.residual(lanes, xcur)
        if len(lanes):
            raise RuntimeError("Failed to converge after %d iterations, value "
                               "is %f" % (maxiter, xcur[0]))

    @_QUIET
    def group_velocity(self, lanes):
        """d omega / d k on each lane by implicit differentiation of the
        shell, at k from the closed form.  At the massless omega = 0 point
        the shell is stationary; vg is its limit c.  A stationary massive
        lane is flagged evanescent."""
        k, eu = np.sqrt(self.k2[lanes]), self.eu[lanes]
        denom = -_squares(k) * self.lam * eu \
            + self.vg_scale * _libm(math.sinh, self.omega[lanes] * self.lam)
        if self.m != 0:
            self.evanescent[lanes[denom == 0]] = True
        return np.where(denom == 0, self.c, 2 * k * eu / denom)

    def sweep(self):
        """k, vg and the residual at k per lane, nan on each evanescent
        lane."""
        k, vg, res = np.full((3, len(self.k2)), math.nan)
        lanes = np.flatnonzero(~self.evanescent)
        if len(lanes):
            # k = 0 where the residual at k = 0 is not positive, else Brent
            f0 = self.residual(lanes, np.zeros(len(lanes)))
            k[lanes[f0 <= 0]] = 0.0
            self._brent(lanes[f0 > 0], f0[f0 > 0], k)
            vg[lanes] = self.group_velocity(lanes)
            lanes = lanes[~self.evanescent[lanes]]
            res[lanes] = self.residual(lanes, k[lanes])
            k[self.evanescent] = vg[self.evanescent] = math.nan
        return k, vg, res


class SweepTable(np.recarray):
    """The record array `sweep` returns.  Unlike a bare ndarray it is true
    when it has rows, as a list is, so `if table:` asks whether any omega
    was swept."""

    def __bool__(self):
        return len(self) > 0


def sweep(omegas, m, lam, c, hbar):
    """The dispersion table: a record array with one row per omega and the
    fields omega, k, vg, residual and evanescent, the int flag 1 where the
    omega has no propagating mode and k, vg and the residual are nan.  The
    domain is refused before any omega is solved (see the module
    docstring)."""
    omegas = [float(w) for w in omegas]
    shell = _Shell(omegas, m, lam, c, hbar)
    k, vg, res = shell.sweep()
    return np.rec.fromarrays([omegas, k, vg, res,
                              shell.evanescent.astype(int)],
                             names="omega,k,vg,residual,evanescent"
                             ).view(SweepTable)
