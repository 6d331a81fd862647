"""Play the extracted adversary against the extracted classifier.

The packing solution q defines the optimal classifier; the covering
solution z defines the optimal randomized adversary. This script pits one
against the other on a small random instance and checks that the realized
loss equals the LP value: neither player can do better, so the simulated
game closes the duality gap.
"""

import numpy as np

from optloss.bounds import (
    SoftClassifierTable,
    evaluate_classifier,
    extract_strategy,
    optimal_loss,
)
from optloss.data import from_arrays

rng = np.random.default_rng(1234)
n, k = 12, 3
points = rng.normal(size=(n, 2)) * 0.5
labels = rng.integers(0, k, size=n)
labels[:k] = np.arange(k)
ds = from_arrays(points, labels, merge_duplicates=False)
eps = 0.45

loss, sol, graph = optimal_loss(ds, eps, m=k)
print(f"instance: {n} points, {k} classes, eps = {eps}")
print(f"LP optimal loss = {loss:.6f} (duality gap {sol.certificate.duality_gap:.2e})\n")

table = SoftClassifierTable.from_solution(ds, eps, sol)
strategy = extract_strategy(sol, graph)

realized = 0.0
for vs in strategy.per_vertex:
    mass = ds.masses[vs.vertex_id]
    label = ds.labels[vs.vertex_id]
    for prob, witness in zip(vs.probabilities, vs.witnesses):
        h = evaluate_classifier(table, witness)
        realized += mass * prob * (1.0 - h[label])

print(f"realized loss of adversary vs classifier = {realized:.6f}")
print(f"difference from LP value                 = {abs(realized - loss):.2e}\n")

over = [vs.vertex_id for vs in strategy.per_vertex if vs.over_covered]
print(f"over-covered vertices (classifier gives them up): {over or 'none'}")
for v in over:
    print(f"  q[{v}] = {sol.q[v]:.2e}")

print("\nclassifier outputs at a few attack points:")
for vs in strategy.per_vertex[:3]:
    witness = vs.witnesses[0]
    h = evaluate_classifier(table, witness)
    target = "self" if vs.edges[0] is None else f"edge {vs.edges[0]}"
    print(f"  vertex {vs.vertex_id} attacks via {target}: h = {np.round(h, 3)}")
