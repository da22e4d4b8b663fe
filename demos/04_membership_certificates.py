# Left-ideal membership with verifiable certificates.
#
# Any operator killing all power sums lies in the left ideal of the
# explicit system; the symbol descent makes that constructive.  The
# certificate lists a cofactor per generator and recombines exactly.

from symtrace.annihilators import generator_system
from symtrace.membership import reduce_modulo_system, verify_certificate
from symtrace.transport import elementary_symmetric_op, xi_transport

k = 3
op = xi_transport(elementary_symmetric_op(k, 3))
print("reducing the transported S_3, k = 3 (order 3, sixteen terms)")
cert = reduce_modulo_system(op, k)
print("member:", cert.is_member)
for gid, cof in cert.entries:
    print(f"  cofactor on {gid:10s}: {cof}")
print("recombines exactly:", verify_certificate(op, cert, k))

# A left multiple of a member stays a member.
from symtrace.spaces import sigma_space
from symtrace.weyl import WeylOp

q = WeylOp.partial(sigma_space(k), 2) * op
cert_q = reduce_modulo_system(q, k)
print("\nd_2 . Sigma_3 reduces to zero as well:", cert_q.is_member)

# Non-members are reported with the first power sum they fail to kill.
bad = generator_system(k, "dnewton")["T~(2)"]
cert_bad = reduce_modulo_system(bad, k)
print("\nshifted variant T(2) + d_2 is a member?", cert_bad.is_member)
print("first failing power-sum index:", cert_bad.failing_newton_index)

# In root coordinates membership in the mixed-partials ideal is a
# normal-form glance: every term must touch two coordinates.
from symtrace.membership import trace_characterization_x
from symtrace.spaces import x_space

X = x_space(k)
print("\nS_2 over x is a member of the mixed-partials ideal:",
      trace_characterization_x(k, elementary_symmetric_op(k, 2).op))
print("d/dx_1^2 is:",
      trace_characterization_x(k, WeylOp.partial(X, 1, 2)))
