# Floating-point cross-validation of the exact layer.
#
# Contour integrals on a circle that dominates all roots give the trace
# of any entire function and the derived family; differentiating the
# trace under the contour confirms that the annihilator system kills the
# analytic trace of exp.

import numpy as np

from symtrace.annihilators import generator_system
from symtrace.numerics import (
    EXP,
    contour_annihilation_check,
    dn_contour,
    poly_roots,
    power_function,
    trace_contour,
)
from symtrace.symfun import family
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
    exact = float(family(2).newton(m).evaluate({"sigma": sigma}))
    print(f"  m={m}: contour {got:+.12f}, exact {exact:+.1f}")

print("\nderived family by contour (exact values in parentheses):")
for m in range(-1, 5):
    got = dn_contour(m, sigma).real
    exact = float(family(2).derived(m).evaluate({"sigma": sigma}))
    print(f"  m={m:+d}: {got:+.12f}  ({exact:+.1f})")

# One contour sum per operator: every generator annihilates T(exp) to
# within the rounding bound, while a plain first partial visibly does not.
print("\ncontour residuals on T(exp) at sigma = (3, 2):")
system = generator_system(2, "newton")
for gid, op in system.items():
    res = contour_annihilation_check(op, EXP, sigma)
    print(f"  {gid}: residual {res.residual:.2e} (tolerance {res.tolerance:.2e})")
cubic = WeylOp.partial(sigma_space(2), 1) * system["T(2)"]
res = contour_annihilation_check(cubic, EXP, sigma)
print(f"  d_1 T(2), order 3: residual {res.residual:.2e} (tolerance {res.tolerance:.2e})")
control = contour_annihilation_check(WeylOp.partial(sigma_space(2), 1), EXP, sigma)
print(f"  d_1 control: residual {control.residual:.2e} (tolerance {control.tolerance:.2e})")
