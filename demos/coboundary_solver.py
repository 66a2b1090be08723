# Constructing explicit primitives for cocycles, not just counting them.
#
# Rotating the last entry of an admissible sequence to the front partitions
# the basis into orbits.  A cocycle's value at a sequence splits into a head
# (inside the ideal of the first entry) and a tail (inside the ideal of the
# last); around every orbit the head of the rotation equals the tail.
# Summing heads onto right-truncations then writes the cocycle as an exact
# coboundary, and the result is verified symbolically before returning.

import random

from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra
from koszulhh.coboundary import (
    head_tail,
    orbit_decomposition,
    solve_coboundary,
)
from koszulhh.hochschild import Cochain, HochschildComplex
from koszulhh.koszul import admissible_sequences

alg = ConnectedSumAlgebra(0, BooleanRing(3))
hc = HochschildComplex(alg)
# orbits and cochains address sequences by position; these name them
seqs = {k: admissible_sequences(alg, k) for k in (1, 2, 3)}

# Orbits of the rotation on length-2 sequences: three unstable pairs.
for orbit in orbit_decomposition(hc, 2):
    print("orbit", tuple(seqs[2][p] for p in orbit.sequences), "stable:", orbit.stable,
          "truncations:", tuple(seqs[2][p][1:] for p in orbit.sequences))

# A hand-sized example: the cocycle supported on the stable sequence
# (x1, x2, x1) with value x1.  Its primitive lives on the truncation (x2, x1).
vals = [0] * len(seqs[3])
vals[seqs[3].index((0, 1, 0))] = 0b001
f = Cochain(3, -1, tuple(vals))
print("\nis a cocycle:", hc.is_cocycle(f))

g = solve_coboundary(hc, f)
support = [(seqs[2][i], f"{v:03b}") for i, v in enumerate(g.values) if v]
print("primitive supported on:", support)
print("coboundary of the primitive equals f:", hc.coboundary_of(g) == f)

# The head/tail law on a random cocycle, orbit by orbit.
rng = random.Random(1)
f = hc.random_cocycle(3, -1, rng)
for orbit in orbit_decomposition(hc, 3)[:4]:
    ht = head_tail(hc, f, orbit)
    print("orbit", seqs[3][orbit.sequences[0]], "head/tail law holds:", ht.law_holds())

# One hundred random cocycles across bidegrees, every primitive exact.
solved = 0
for k, s in ((2, 0), (3, -1), (4, -1)):
    for _ in range(100):
        f = hc.random_cocycle(k, s, rng)
        g = solve_coboundary(hc, f)
        assert hc.coboundary_of(g) == f
        solved += 1
print(f"\n{solved} random cocycles solved and verified exactly")
