"""Deformed mass shell of the flat (beta = -1/c^2) model and group velocities.

Mode convention: e^{i k.x - i omega t} with omega >= 0; the imaginary time
shifts then produce real factors e^{omega lam}.  The omega < 0 branch is not
treated: `sweep` raises ValueError for it, as it does when omega lam is
above `U_MAX` (e^{omega lam} overflows), when (c lam)^2 underflows to 0 or
overflows, when (m c / hbar)^2 overflows, or when a term of the shell
residual passes the float limit (a subnormal (c lam)^2, say).

`sweep` is the one entry point: it returns the dispersion table, a numpy
record array with one row per omega and the fields omega, k, vg, residual
and evanescent, which the CLI refuses or renders as it stands; a single
omega is a one-row sweep.  It solves every omega at once: `_Shell` holds one
lane per omega, computes the k-free terms once per lane, and runs Brent's
method on all propagating lanes in lockstep, step for step as scipy's
`brentq` (brentq.c) runs it on one.  Each transcendental is a `math` call
and each k^2 is CPython's float pow, per element, so every lane is
bit-identical to `brentq` on the scalar residual; the tests hold that
against scipy.  An omega with no propagating mode (k^2 < 0, or a massive
shell that is stationary there) is not an error but a row flag: its
`evanescent` is 1 and its k, vg and residual are nan.  Where the bracket
end's term -k_hi^2 e^{omega lam} overflows (omega lam within 2 ln k_hi of
`U_MAX`), that lane's bracket ends at the largest k at which the term is
finite.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat

import numpy as np


# math.exp overflows above this (about 709.78)
U_MAX = math.log(sys.float_info.max)
# brentq's tolerances
XTOL, RTOL = 1e-12, 8.9e-16


def _check_domain(omega, lam, c):
    if omega < 0:
        raise ValueError("omega < 0 branch is not treated")
    try:
        cl2 = (c * lam) ** 2
    except OverflowError:
        raise ValueError("(c lam)^2 overflows at c = %g, lam = %g"
                         % (c, lam)) from None
    if cl2 == 0:
        raise ValueError("(c lam)^2 underflows to 0 at c = %g, lam = %g"
                         % (c, lam))
    if omega * lam > U_MAX:
        raise ValueError("omega lam = %g is above %.6f, where exp(omega lam) "
                         "overflows" % (omega * lam, U_MAX))


def k_squared_closed(omega, m, lam, c, hbar):
    """k^2 = (1 - e^{-omega lam})^2 / (c lam)^2 - (m c / hbar)^2 e^{-omega lam}."""
    _check_domain(omega, lam, c)
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
    rounds differently), and the OverflowError of each element that
    overflows, by position."""
    values = x.tolist()
    try:
        return np.fromiter(map(pow, values, repeat(2)), float, len(values)), {}
    except OverflowError:
        out, errors = np.empty(len(values)), {}
        for i, v in enumerate(values):
            try:
                out[i] = v ** 2
            except OverflowError as exc:
                out[i], errors[i] = math.inf, exc
        return out, errors


def _scalar(fn):
    """fn() and None, or nan and the error it raised."""
    try:
        return fn(), None
    except (ValueError, ArithmeticError) as exc:
        return math.nan, exc


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


# nan and inf are lane states here: a lane whose value is not finite fails
# with a named error, so numpy's floating-point warnings are silenced
_QUIET = np.errstate(all="ignore")


class _Shell:
    """The shell on an array of omegas, one lane per omega.

    Per lane the domain check, k^2 from the closed form, e^{omega lam},
    sinh(omega lam / 2) and sinh(omega lam) are computed once, here.  A lane
    with no propagating mode is flagged in `evanescent`; a lane that fails
    keeps its error in `errors`.  Either leaves every later stage.  Lanes are
    taken in order; at the first omega that fails the closed form the later
    ones are dropped, as a loop over omega would stop there."""

    @_QUIET
    def __init__(self, omegas, m, lam, c, hbar):
        self.m, self.lam, self.c, self.hbar = m, lam, c, hbar
        self.errors = {}
        k2 = []
        for i, omega in enumerate(omegas):
            try:
                k2.append(k_squared_closed(omega, m, lam, c, hbar))
            except (ValueError, ArithmeticError) as exc:
                self.errors[i] = exc
                break
        self.n = len(k2)
        self.omega = np.array(omegas[:self.n], dtype=float)
        self.k2 = np.array(k2, dtype=float)
        self.alive = np.ones(self.n, dtype=bool)
        self.evanescent = np.zeros(self.n, dtype=bool)
        u = (self.omega * lam).tolist()
        self.eu = np.array(list(map(math.exp, u)))
        self.sinh_u = np.array(list(map(math.sinh, u)))
        half, _ = _squares(np.array([math.sinh(v / 2) for v in u]))
        # the k-free terms of the residual and of d omega / d k; a prefactor
        # that overflows fails each lane that reaches it
        scale, self.t2_error = _scalar(
            lambda: (2.0 / (c ** 2 * lam ** 2)) * 2.0)
        self.t2 = scale * half
        # t3 fails only where k_squared_closed failed on the first lane
        self.t3, _ = _scalar(lambda: (m * c / hbar) ** 2)
        self.vg_scale, self.vg_error = _scalar(lambda: 2.0 / (c ** 2 * lam))

    def fail(self, lanes, exc):
        for i in lanes.tolist():
            self.errors[i] = exc(i) if callable(exc) else exc
        self.alive[lanes] = False

    def propagating(self):
        """The live lanes, once those with k^2 < 0 are flagged evanescent."""
        self.evanescent |= self.alive & (self.k2 < 0)
        self.alive &= ~self.evanescent
        return np.flatnonzero(self.alive)

    @_QUIET
    def residual(self, lanes, k):
        """Residual of -k^2 e^{omega lam} + (2/(c^2 lam^2))(cosh(omega lam)
        - 1) = (m c / hbar)^2 on each lane, normalized by the largest term,
        and the mask of the lanes where it is finite; the others fail."""
        if self.t2_error is not None:
            self.fail(lanes, self.t2_error)
            return np.full(len(lanes), math.nan), np.zeros(len(lanes), bool)
        sq, overflow = _squares(k)
        t1 = -sq * self.eu[lanes]
        t2, t3 = self.t2[lanes], self.t3
        # max(|t1|, |t2|, |t3|) as Python's max takes it: left to right,
        # keeping the current item unless the next is greater, so a nan in
        # the second or third place is passed over
        scale, a2 = np.abs(t1), np.abs(t2)
        np.copyto(scale, a2, where=a2 > scale)
        np.copyto(scale, abs(t3), where=abs(t3) > scale)
        res = (t1 + t2 - t3) / scale
        np.copyto(res, 0.0, where=scale == 0)
        ok = ~np.isnan(res)
        if overflow:
            ok[list(overflow)] = False
        if ok.all():
            return res, ok
        self.fail(lanes[~ok], lambda i: overflow.get(
            int(np.searchsorted(lanes, i)), ValueError(
                "shell residual at omega = %g, lam = %g is not finite (a "
                "term is nan or beyond the float limit %g)"
                % (self.omega[i], self.lam, sys.float_info.max))))
        return res, ok

    def solve_k(self):
        """k per lane (nan where the lane failed): 0 where the residual at
        k = 0 is not positive, else the root of brentq's method on
        [0, k_hi], k_hi = 1/(c lam) + m c/hbar + 1."""
        k = np.full(self.n, math.nan)
        lanes = self.propagating()
        f0, ok = self.residual(lanes, np.zeros(len(lanes)))
        lanes, f0 = lanes[ok], f0[ok]
        k[lanes[f0 <= 0]] = 0.0
        self._brent(lanes[f0 > 0], f0[f0 > 0], k)
        return k

    @_QUIET
    def _brent(self, lanes, fa, k):
        """scipy's brentq.c on every lane at once, from a = 0 (f(a) = fa > 0)
        to b = k_hi, capped at 100 + ceil(log2(k_hi / xtol)) iterations.
        Each lane keeps its own state and leaves when it converges."""
        if not len(lanes):
            return
        k_hi = 1.0 / (self.c * self.lam) + self.m * self.c / self.hbar + 1.0
        maxiter, exc = _scalar(
            lambda: 100 + math.ceil(math.log2(k_hi / XTOL)))
        if exc is not None:
            self.fail(lanes, exc)
            return
        b = np.full(len(lanes), k_hi)
        sq_hi, exc = _scalar(lambda: k_hi ** 2)
        if exc is not None:
            sq_hi = math.inf
        over = np.isinf(sq_hi * self.eu[lanes])
        b[over] = list(map(_largest_finite_k, self.eu[lanes[over]].tolist()))
        fb, ok = self.residual(lanes, b)
        done = ok & (fb == 0)
        k[lanes[done]] = b[done]
        same = ok & ~done & (np.signbit(fa) == np.signbit(fb))
        self.fail(lanes[same],
                  ValueError("f(a) and f(b) must have different signs"))
        keep = ok & ~done & ~same
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
            fcur, ok = self.residual(lanes, xcur)
            if not ok.all():
                lanes = lanes[ok]
                xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
                    v[ok] for v in (xpre, xcur, xblk, fpre, fcur, fblk,
                                    spre, scur))
        self.fail(lanes, lambda i: RuntimeError(
            "Failed to converge after %d iterations, value is %f"
            % (maxiter, xcur[np.searchsorted(lanes, i)])))

    @_QUIET
    def group_velocity(self):
        """d omega / d k per lane by implicit differentiation of the shell,
        at k from the closed form.  At the massless omega = 0 point the shell
        is stationary; vg is its limit c.  A stationary massive lane is
        evanescent."""
        vg = np.full(self.n, math.nan)
        lanes = self.propagating()
        k = np.sqrt(self.k2[lanes])
        sq, overflow = _squares(k)
        bad = np.zeros(len(lanes), bool)
        bad[list(overflow)] = True
        self.fail(lanes[bad],
                  lambda i: overflow[int(np.searchsorted(lanes, i))])
        if self.vg_error is not None:
            self.fail(lanes[~bad], self.vg_error)
            return vg
        eu = self.eu[lanes]
        denom = -sq * self.lam * eu + self.vg_scale * self.sinh_u[lanes]
        vg[lanes] = np.where(denom == 0, self.c, 2 * k * eu / denom)
        if self.m != 0:
            self.evanescent[lanes[~bad & (denom == 0)]] = True
            self.alive &= ~self.evanescent
        return vg

    def sweep(self):
        """k, vg and the residual at k per lane, nan on each dead lane."""
        k = self.solve_k()
        vg = self.group_velocity()
        lanes = np.flatnonzero(self.alive)
        res = np.full(self.n, math.nan)
        res[lanes], _ = self.residual(lanes, k[lanes])
        dead = ~self.alive
        k[dead] = vg[dead] = res[dead] = math.nan
        return k, vg, res

    def raise_first(self):
        """Raise the error of the first failed lane, as a loop over omega
        would raise it."""
        if self.errors:
            raise self.errors[min(self.errors)]


class SweepTable(np.recarray):
    """The record array `sweep` returns.  Unlike a bare ndarray it is true
    when it has rows, as a list is, so `if table:` asks whether any omega
    was swept."""

    def __bool__(self):
        return len(self) > 0


def sweep(omegas, m, lam, c, hbar):
    """The dispersion table: a record array with one row per omega and the
    fields omega, k, vg, residual and evanescent, the int flag 1 where the
    omega has no propagating mode and k, vg and the residual are nan.  Any
    failure raises the error of the first omega that fails (a ValueError for
    an omega outside the domain)."""
    omegas = [float(w) for w in omegas]
    shell = _Shell(omegas, m, lam, c, hbar)
    k, vg, res = shell.sweep()
    shell.raise_first()
    return np.rec.fromarrays([omegas, k, vg, res,
                              shell.evanescent.astype(int)],
                             names="omega,k,vg,residual,evanescent"
                             ).view(SweepTable)
