"""The prover's first-order step one copy at a time.

`kernel._first_order` makes one pass over the terms of a whole state, each
key carrying its copy's element in a field above z.  This slow path takes
the state apart into its copies, works on exponent tuples over
``UNIVERSE`` with one term dict per target copy, and puts the copies back
together, so the tests can compare the two on any state.
"""

from b2dunkl import kernel
from b2dunkl.group import mul, reflection
from b2dunkl.operators import monomial_quotients
from b2dunkl.poly import UNIVERSE, MPoly, unpack

KAPPA_SLOTS = (UNIVERSE.index("k0"), UNIVERSE.index("k1"))


def _add(acc, key, term):
    prev = acc.get(key)
    acc[key] = term + prev if prev is not None else term


def first_order(var, state):
    """The var step of `state`: each amplitude differentiated plus half its
    moved dual coordinate times it, at its own copy, and its reflection
    quotients, each times its coupling, at the reflected copies."""
    d = UNIVERSE.index(var)
    out = {}
    for w, p in state.parts.items():
        here = out.setdefault(w, {})
        moved = [out.setdefault(mul(reflection(j), w), {}) for j in range(4)]
        slot, half = kernel._half_dual(var, w)
        for packed, c in p.terms.items():
            exp = unpack(packed)
            if exp[d]:
                _add(here, exp[:d] + (exp[d] - 1,) + exp[d + 1:], c * exp[d])
            _add(here, exp[:slot] + (exp[slot] + 1,) + exp[slot + 1:],
                 half * c)
            for j, terms in enumerate(monomial_quotients(var, *exp[:2])):
                s = KAPPA_SLOTS[j & 1]
                rest = exp[2:s] + (exp[s] + 1,) + exp[s + 1:]
                for offset, r in terms:
                    _add(moved[j], unpack(offset)[:2] + rest, c.phases()[r])
    return kernel.KernelState({g: MPoly(UNIVERSE, acc)
                               for g, acc in out.items()})
