# The characteristic variety: where all the top-order symbols vanish.
#
# The symbols of the annihilator system are the 2x2 minors of a (k, 2)
# matrix built from the cotangent coordinates eta and the linear form
# l = sum s_h eta_h.  The variety they cut out carries an explicit
# rational parametrization, which turns "vanishes on the variety" and
# "lies in the minor ideal" into exact decision procedures.

from fractions import Fraction

from symtrace.annihilators import generator_system
from symtrace.charvar import (
    decompose_in_minors,
    minor_generator,
    minors,
    recombine,
    sample_z_points,
    theta_contraction_sides,
    vanishes_on_Z,
)
from symtrace.poly import Poly
from symtrace.spaces import sigma_eta_space

k = 3
print(f"minors, k = {k}:")
for (i, j), m in minors(k).items():
    print(f"  m({i},{j}) = {m}")

print("\neach minor is the symbol of a generator:")
gens = generator_system(k, "newton")
for mid, m in minors(k).items():
    gid, sign = minor_generator(mid)
    assert m == gens[gid].symbol().scale(sign)
    print(f"  m{mid} = {'+' if sign > 0 else '-'}symbol({gid})")

# Membership in the minor ideal is decided constructively.
se = sigma_eta_space(k)
eta = lambda h: Poly.variable(se, "eta", h)
f = eta(2) * minors(k)[1, 2] - eta(1) * minors(k)[2, 3]
coeffs = decompose_in_minors(f, k)
print("\na degree-3 combination decomposes back onto the minors:")
for mid, c in sorted(coeffs.items()):
    print(f"  m{mid}: {c}")
print("recombines exactly:", recombine(k, coeffs) == f)

print("\neta_1 * eta_2 vanishes on the variety?", vanishes_on_Z(eta(1) * eta(2), k))

# Exact rational points of the variety, drawn from the parametrization.
pts = sample_z_points(k, seed=7, n=3)
for pt in pts:
    l = sum(s * e for s, e in zip(pt.sigma, pt.eta))
    print(f"\n  point sigma = {tuple(map(str, pt.sigma))}, eta = {tuple(map(str, pt.eta))}")
    print(f"    l/eta_1 = {l / pt.eta[0]} is a root of the defining polynomial")

# The contracted cotangent sum along a geometric ray has a closed form
# (the computation-validated one; the published display carries typos).
lhs, rhs = theta_contraction_sides(3, [Fraction(1), Fraction(4), Fraction(-2)], Fraction(2, 3), Fraction(5))
print("\nclosed form of the theta-contraction holds:", lhs == rhs)
