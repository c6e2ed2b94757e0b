"""The one Hypothesis strategy for a valuation of any kind, and for a profile
of such bids, that the oracle tests draw from.

Weights are k/d over the denominators 1, 3, 5, 7, 9 and 11, so a profile's
common denominator is rarely any one bid's.  k is mostly small, so ties and
the narrowest integer lanes stay common, and now and then in [2^64, 2^70],
so lanes wider than 64 bits run too.  A table is 0 at the empty bundle, and
its other entries are independent and may be negative, so most tables are
not monotone.
"""

from fractions import Fraction as F

from hypothesis import strategies as st

from walras.valuations import Additive, Oxs, Tabular, UnitDemand, Xos
from walras.welfare import BidProfile

KINDS = ("additive", "unit_demand", "xos", "oxs", "tabular")
STRUCTURED = KINDS[:4]  # the kinds declared by weights, not by a table
DENOMINATORS = (1, 3, 5, 7, 9, 11)


@st.composite
def weights(draw):
    """k/d, with k in [0, 3d] or, one time in 16, in [2^64, 2^70]."""
    d = draw(st.sampled_from(DENOMINATORS))
    big = draw(st.integers(0, 15)) == 15
    return F(draw(st.integers(1 << 64, 1 << 70) if big else st.integers(0, 3 * d)), d)


signed = weights().flatmap(lambda w: st.sampled_from((w, -w)))


@st.composite
def any_valuation(draw, m, kinds=KINDS):
    """A bid of one of ``kinds`` over m items: XOS with 1-3 clauses, OXS with
    1 to min(m, 3) slots, a table with signed entries."""
    def row(k, numbers=weights()):
        return tuple(draw(numbers) for _ in range(k))

    kind = draw(st.sampled_from(kinds))
    if kind == "xos":
        return Xos(tuple(row(m) for _ in range(draw(st.integers(1, 3)))))
    if kind == "oxs":
        slots = draw(st.integers(1, min(m, 3)))
        return Oxs(tuple(row(slots) for _ in range(m)))
    if kind == "tabular":
        return Tabular((F(0),) + row((1 << m) - 1, signed))
    return {"additive": Additive, "unit_demand": UnitDemand}[kind](row(m))


@st.composite
def any_profile(draw, m=st.integers(1, 4), n=st.integers(1, 3), kinds=KINDS):
    """n bids of ``kinds`` over m items, 1-4 items and 1-3 bids by default."""
    m = draw(m)
    return BidProfile(m, tuple(draw(any_valuation(m, kinds)) for _ in range(draw(n))))
