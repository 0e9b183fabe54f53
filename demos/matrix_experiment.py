"""Random-matrix evidence: free convolution predictions and the expansion step.

A Haar-rotated diagonal matrix is asymptotically free from a fixed diagonal
projection, so empirical moments of E+Y should approach the cumulant-engine
predictions. The second table probes whether
tr psi(E+Y)/n == q tr psi(Y)/n + p tr psi(1+Y)/n, which holds exactly for
commuting models and is an open question under freeness for nonlinear psi.
"""

import symvar as sv
from symvar import matrixlab as ml

p = 0.3
y_law = sv.DiscreteMeasure.from_atoms([(-1.0, p), (0.0, 1 - p)], mode="float")

model = ml.MatrixModel(n=800, p=p, y_law=y_law, seed=2026)
report = ml.empirical_vs_predicted(model, order=8, reps=10)
print(ml.rows_csv(report["orders"], ["n", "seed", "order", "empirical", "predicted", "abs_error"]))

print("expansion-step residuals (rotated vs commuting):")
rows = ml.proof_identity_report(p, y_law, dims=[200, 400, 800], seeds_per_dim=3, master_seed=7)
for row in rows:
    print(f"  n={row['n']:4d} rotated={row['rotated_residual']:.3e} "
          f"commuting={row['commuting_residual']:.3e}")
print("note: for this y_law, E+Y is a difference of equal-rank projections,")
print("so its finite-n spectrum is exactly symmetric and the rotated residual")
print("vanishes identically; try an asymmetric y_law for a sharper probe.")
