"""
Extended-real arithmetic and grid functions
===========================================

The whole library computes over the extended reals [-inf, +inf] with two
deliberately different additions: the *lower* one, where -inf absorbs
(costs: one impossible leg ruins the trip), and the *upper* one, where +inf
absorbs (constraints: one vacuous bound keeps the bound vacuous).  The two
coincide whenever no opposite infinities meet, and every sup/inf over an
empty set has a fixed value, so no NaN can ever appear.
"""

import numpy as np

from tropkern import (
    NEG_INF,
    POS_INF,
    GridFunction,
    PointSet,
    decode_values,
    dirac,
    encode_values,
    ext_close,
    lower_add,
    max_reduce,
    min_reduce,
    upper_add,
    upper_sub,
)

# The one case where the additions disagree: +inf plus -inf.
print("lower_add(+inf, -inf) =", lower_add(POS_INF, NEG_INF))   # -inf
print("upper_add(+inf, -inf) =", upper_add(POS_INF, NEG_INF))   # +inf

# Upper subtraction is residuation: the largest c with a <= b + c.
print("upper_sub(+inf, +inf) =", upper_sub(POS_INF, POS_INF))   # +inf
print("upper_sub(3.0, 5.0)   =", upper_sub(3.0, 5.0))           # -2.0

# Empty reductions have fixed conventions: sup of nothing is -inf,
# inf of nothing is +inf.
print("max over empty:", max_reduce(np.empty(0)))
print("min over empty:", min_reduce(np.empty(0)))

# Functions live on finite point sets.  Points are hashable and indexable;
# values are float64 arrays that may contain either infinity but never NaN.
grid = PointSet([-1.0, 0.0, 1.0])
f = GridFunction(grid, np.array([0.5, NEG_INF, 2.0]))
print("\nf on", list(grid.points), "->", f.values.tolist())

# Spikes: the "bottom" dirac is -inf away from its point (a generator for
# sups), the "top" dirac is +inf away from it (a probe for infs).
print("bottom spike at 0:", dirac(grid, 0.0, "bottom").values.tolist())
print("top spike at 0:   ", dirac(grid, 0.0, "top").values.tolist())

# Infinities survive a JSON round trip as the strings "inf" / "-inf".
encoded = encode_values(f.values)
print("\nJSON-ready values:", encoded)
roundtrip = decode_values(encoded)
print("round trip equal:", bool(ext_close(roundtrip, f.values, 0.0).all()))
