# Transporting symmetric differential operators from root coordinates
# to coefficient coordinates.
#
# A symmetric operator P in x_1..x_k acts on symmetric polynomials; the
# transport produces the unique operator Q in s_1..s_k with the same
# action through the coordinate change s = e(x).  The elementary
# symmetric operators S_h of the d/dx_j are the key examples: S_h for
# h >= 2 kill every trace function.

from symtrace.symfun import family, reduce_to_sigma
from symtrace.transport import (
    SymmetricOperator,
    decompose_derivation,
    elementary_symmetric_op,
    u_operator,
    xi_transport,
)

print("S_2 over x, k = 2:", elementary_symmetric_op(2, 2).op)
print("transported:      ", xi_transport(elementary_symmetric_op(2, 2)))

# k = 3 takes visibly more work; the order-3 operator has sixteen terms.
sigma3 = xi_transport(elementary_symmetric_op(3, 3))
print("\ntransported S_3, k = 3:")
print(" ", sigma3)

# The classical hand check: apply it to the sixth power sum.
n6 = family(3).newton(6)
print("\nN_6 =", n6)
print("Sigma_3[N_6] =", sigma3.apply(n6))

# The defining property, exercised directly on a monomial: acting on
# s1^2 s3 downstairs equals acting on e1(x)^2 e3(x) upstairs.
from symtrace.poly import Poly
from symtrace.spaces import sigma_space
from symtrace.symfun import elementary_symmetric

k = 3
gamma = (2, 0, 1)
s_mono = Poly.monomial(sigma_space(k), gamma)
x_image = elementary_symmetric(k, 1) ** 2 * elementary_symmetric(k, 3)
lhs = sigma3.apply(s_mono)
rhs = reduce_to_sigma(elementary_symmetric_op(3, 3).op.apply(x_image), k)
print("\ndefining property on s1^2 s3:", lhs == rhs)

# Symmetric derivations decompose over the basis U_p = sum x_j^p d/dx_j,
# p < k; higher powers fall back through the monic relation of the
# defining polynomial.
d = SymmetricOperator(u_operator(2, 3), 2)
print("\nsum_j x_j^3 d/dx_j at k = 2 decomposes as:")
for p, b in decompose_derivation(d):
    print(f"  ({b}) * U_{p}")
