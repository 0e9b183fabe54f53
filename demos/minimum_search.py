"""Find the minimum symmetrizer variance three ways.

Classical: an exact LP over a gridded law. Boolean: an LP over the measure
of y's F-transform, symmetric up to the odd order 13; it gives p for
p <= 0.71 and less above, where the truncation at order 13 shows. Free: a
multi-start SLSQP search over discrete measures, constrained on the odd
cumulants of e+y, which should land on the value p at the equality case.
"""

import symvar as sv

p = 0.3
lp = sv.classical_min_variance(p, sv.GridSpec(-2.0, 1.0, 0.25))
print(f"classical LP: min Var(Y) = {lp.objective:.9f} (pq = {p * (1 - p)})")
print(f"  optimal measure: {lp.measure.atoms}")

for q in (p, 0.9):
    r = sv.nc_min_variance(q, "boolean")
    print(f"boolean LP at p = {q}: min phi(y^2) = {r.objective:.9f} up to order {r.order} "
          f"(residual {r.residual:.2e}, status {r.status})")
    print(f"  measure: {r.measure.atoms}")

r = sv.nc_min_variance(p, "free", sv.SearchConfig(restarts=8, seed=42))
print(f"free search: min phi(y^2) = {r.objective:.9f} "
      f"(residual {r.residual:.2e}, status {r.status})")
print(f"  measure: {r.measure.atoms}")
