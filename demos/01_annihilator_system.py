# The explicit second-order system killing every trace of the roots.
#
# Trace functions are the functions sum_j f(x_j) of the roots x_1..x_k of
#   z^k - s_1 z^(k-1) + s_2 z^(k-2) - ... ,
# viewed as functions of the coefficients s.  Power sums N_m are the
# polynomial prototypes.  This walk-through builds the generators and
# watches them act.

from symtrace.annihilators import (
    check_images,
    family_members,
    generator_system,
    op_T,
    op_T0,
    op_U0,
    op_nabla,
)
from symtrace.symfun import family

k = 3
print(f"generators of the annihilator system, k = {k}:")
for gid, op in generator_system(k, "newton").items():
    print(f"  {gid:10s} = {op}")

# Every generator sends every power sum to the exact zero polynomial;
# check_images returns a witness (generator, m, image) for any that fails.
print("\nimages of the power sums (all must be 0):")
gens = generator_system(k, "newton")
assert not check_images(gens, family_members(k, "newton", 12))
for gid in gens:
    print(f"  {gid:10s} kills N_0..N_12")

# The T-generators come from an integral-formula family T0(mu); the two
# presentations differ by an exact combination of the index-swap
# operators (with a plus sign, forced by normal ordering).
from symtrace.annihilators import op_A
from symtrace.poly import Poly
from symtrace.spaces import sigma_space

m = 3
acc = op_T0(k, k - m)
for h in range(1, k):
    acc = acc + op_A(k, h, m, 1).left_mul_poly(Poly.variable(sigma_space(k), "sigma", h))
print(f"\nT({m}) == T0({k - m}) + sum_h s_h A(h,{m},1):", op_T(k, m) == acc)

# Weight bookkeeping: commuting a generator past the Euler operator
# U0 = sum h s_h d_h reads off its pure weight.

u0 = op_U0(k)
for gid, op in generator_system(k, "newton").items():
    w = op.weight()
    assert op.commutator(u0) == op.scale(-w)
    print(f"  {gid:10s} has pure weight {w}")

# The lowering derivation nabla shifts N_m to m N_{m-1}.
nab = op_nabla(k)
print("\nnabla =", nab)
for m in range(1, 5):
    print(f"  nabla[N_{m}] = {nab.apply(family(k).newton(m))}  (= {m} N_{m-1})")
