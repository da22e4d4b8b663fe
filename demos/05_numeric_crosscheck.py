# Floating-point cross-validation of the exact layer.
#
# Contour integrals on a circle that dominates all roots give the trace
# of any entire function and the derived family; central differences
# confirm that the annihilator system kills the analytic trace of exp.

import numpy as np

from symtrace.annihilators import generator_system
from symtrace.numerics import (
    EXP,
    dn_contour,
    fd_annihilation_check,
    poly_roots,
    power_function,
    trace_contour,
    trace_function_handle,
)
from symtrace.symfun import derived_newton, newton
from symtrace.spaces import sigma_space
from symtrace.weyl import WeylOp

sigma = [3, 2]  # roots 1 and 2
roots = poly_roots(sigma)
print("roots of z^2 - 3z + 2:", np.round(roots.real, 12))

tv = trace_contour(EXP, sigma)
print("\ntrace of exp by contour:", tv.value)
print("root-sum oracle:        ", sum(np.exp(z) for z in roots))
print("difference of the two contour forms:", tv.difference)

print("\npower traces against the exact power sums:")
for m in range(0, 7):
    got = trace_contour(power_function(m), sigma).value.real
    exact = float(newton(2, m).evaluate({"sigma": sigma}))
    print(f"  m={m}: contour {got:+.12f}, exact {exact:+.1f}")

print("\nderived family by contour (exact values in parentheses):")
for m in range(-1, 5):
    got = dn_contour(m, sigma).real
    exact = float(derived_newton(2, m).evaluate({"sigma": sigma}))
    print(f"  m={m:+d}: {got:+.12f}  ({exact:+.1f})")

# Finite differences: every generator annihilates T(exp) numerically,
# while a plain first partial visibly does not.
F = trace_function_handle(EXP)
print("\nfinite-difference residuals on T(exp) at sigma = (3, 2):")
for gid, op in generator_system(2, "trace").items():
    res = fd_annihilation_check(op, F, [3.0, 2.0])
    print(f"  {gid}: residual {res.residual:.2e} (tolerance {1e-6 * res.scale:.2e}), "
          f"order {res.convergence_order:.2f}")
control = fd_annihilation_check(WeylOp.partial(sigma_space(2), 1), F, [3.0, 2.0])
print(f"  d_1 control: residual {control.residual:.2e} (clearly nonzero)")
