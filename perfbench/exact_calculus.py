"""exact-calculus workload: the Leibniz rule and the inner form of d on seeded pairs.

One item is one pair (f, g) of random elements of the bicrossproduct algebra
in d = 3 spatial generators, three terms per factor, total degree at most 4
per term, coefficients a + b i with a in [-3, 3] and b in [-2, 2].  For each
pair the item computes f*g, d f, d g, d(fg), d(f) g + f d(g) and
(i/lam)[theta, fg]; the check asks that the Leibniz rule and the inner-form
property hold exactly.  This is the work behind the registry checks
`leibniz-product-rule` and `inner-form-property`.

The exponents of every term come from one fixed design, drawn once from the
registry's distribution.  The seed chooses the coefficients, a relabelling of
x_1, x_2, x_3 for each pair, and the order of the pairs.  The relations are
symmetric under relabelling the x_i, so every seed runs the same products up
to names and coefficients: the mix of small and large pairs, and the work per
pair, do not depend on the seed.
"""

from __future__ import annotations

import functools
import random

from ncgrav import exactalg
from ncgrav.coeff import Coeff
from ncgrav.exactalg import NCElement

D = 3
MAX_DEG = 4
N_TERMS = 3
N_PAIRS = {"full": 12, "tiny": 3}
DESIGN_SEED = 1995


def _design(n_pairs):
    """Exponents (x-powers, t-power) of each term of both factors of each
    pair, drawn as in the registry: a number of x-factors uniform in 0..4,
    each on a random generator, then a t-power uniform in 0..(4 - that)."""
    rng = random.Random(DESIGN_SEED)

    def term():
        xpow = [0] * D
        for _ in range(rng.randint(0, MAX_DEG)):
            xpow[rng.randrange(D)] += 1
        return xpow, rng.randint(0, MAX_DEG - sum(xpow))

    return [[[term() for _ in range(N_TERMS)] for _ in range(2)]
            for _ in range(n_pairs)]


def _element(rng, terms, perm):
    out = NCElement.zero(D)
    for xpow, n in terms:
        re = im = 0
        while re == 0 and im == 0:
            re, im = rng.randint(-3, 3), rng.randint(-2, 2)
        out = out + NCElement.monomial(D, [xpow[j] for j in perm], n,
                                       Coeff.from_rational(re, im))
    return out


def _pair(f, g):
    # module attributes, not imported names, so that traced runs see the calls
    d = exactalg.exterior_d
    fg = f * g
    df, dg, dfg = d(f), d(g), d(fg)
    return (fg, df, dg, dfg, df.mul_elem(g) + dg.lmul(f),
            exactalg.commutator_d(fg))


def check(out):
    """None if the pair's outputs satisfy both identities, else the reason."""
    _fg, _df, _dg, dfg, leibniz, comm = out
    if dfg != leibniz:
        return "d(fg) != d(f) g + f d(g)"
    if comm != dfg:
        return "d(fg) != (i/lam)[theta, fg]"
    return None


def build(seed, size="full"):
    """Items (label, run, check, units) for one pass."""
    rng = random.Random(seed)
    design = _design(N_PAIRS[size])
    rng.shuffle(design)
    items = []
    for f_terms, g_terms in design:
        perm = rng.sample(range(D), D)
        f, g = _element(rng, f_terms, perm), _element(rng, g_terms, perm)
        items.append(("pair", functools.partial(_pair, f, g), check, 1))
    return items


def _nterms(v):
    if isinstance(v, NCElement):
        return len(v.terms)
    return sum(len(e.terms) for e in v.parts.values())


def layer_counts(outputs):
    """Counts read off one pass's (label, output) pairs."""
    return {"exactalg.terms_out": sum(_nterms(v) for _label, out in outputs
                                      if out is not None for v in out)}
