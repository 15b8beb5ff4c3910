from hypothesis import settings

from ncgrav.coeff import Coeff
from ncgrav.exactalg import NCElement, NCOneForm
from ncgrav.geometry import RadialProfile
from ncgrav.timeops import TimeFunction
from ncgrav.waveops import SeparableField

# Fixed examples and no time limit: the property tests give the same verdict
# on every run and machine.
settings.register_profile("ncgrav", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("ncgrav")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# -- helpers the tests share -------------------------------------------------

def tf_isclose(a, b, tol=1e-12):
    """Whether the TimeFunctions a and b agree term by term to tol times
    their largest coefficient (at least 1)."""
    scale = max(a.max_coeff(), b.max_coeff(), 1.0)
    return all(abs(c) <= tol * scale for c in (a - b).terms.values())


def tf_constant(c):
    """The TimeFunction of the constant c."""
    return TimeFunction({(0, 0j): c})


def gen_x(d, i):
    """The generator x_i of the d-dimensional algebra, as an NCElement."""
    xpow = [0] * d
    xpow[i - 1] = 1
    return NCElement.monomial(d, xpow, 0)


def gen_t(d):
    """The generator t of the d-dimensional algebra, as an NCElement."""
    return NCElement.monomial(d, (0,) * d, 1)


def element(d, coeffs):
    """The NCElement with the coefficients {(xpow, n): Coeff}, as a sum of
    monomials: the inverse of `NCElement.coeffs`."""
    out = NCElement.zero(d)
    for (xpow, n), c in coeffs.items():
        out = out + NCElement.monomial(d, xpow, n, c)
    return out


def scaled(elem, c):
    """The NCElement elem times the int or Coeff c."""
    if isinstance(c, int):
        c = Coeff.from_rational(c)
    return elem * NCElement.monomial(elem.d, (0,) * elem.d, 0, c)


def partial_x(psi, i):
    """d psi / d x_i of the NCElement psi, term by term through coeffs()."""
    out = NCElement.zero(psi.d)
    for (xpow, n), c in psi.coeffs().items():
        if xpow[i - 1]:
            lower = xpow[:i - 1] + (xpow[i - 1] - 1,) + xpow[i:]
            out = out + scaled(NCElement.monomial(psi.d, lower, n, c),
                               xpow[i - 1])
    return out


def is_zero(x):
    """Whether the Coeff, NCElement or NCOneForm x holds no term."""
    return not (x.parts if isinstance(x, NCOneForm) else x.terms)


def time_only(time_part):
    """The SeparableField of time_part with the constant spatial part 1."""
    return SeparableField.single(RadialProfile.constant(1.0), time_part)


def subs_lam_zero(x):
    """The NCElement or NCOneForm x at lam = 0: every lam^j term with j != 0
    dropped, read through coeffs()."""
    if isinstance(x, NCOneForm):
        return NCOneForm(x.d, {w: subs_lam_zero(e)
                               for w, e in x.parts.items()})
    return element(x.d, {key: Coeff.from_parts(
        {jk: v for jk, v in c.terms.items() if jk[0] == 0})
        for key, c in x.coeffs().items()})


def scaled_profile(p, c):
    """The RadialProfile c p, with its derivatives."""
    return RadialProfile(lambda r: c * p(r),
                         deriv=lambda r: c * p.deriv(r),
                         deriv2=lambda r: c * p.deriv2(r))


def shifted_grid(g, a, lam):
    """The GridField g at t + i lam a(r): its one-tap stencil."""
    return g.stencil([(1, a)], lam)
