"""Step through spectral graph matching on a small rigged instance.

Six candidate matches are correct (consistent with one rigid motion), three
point at unrelated clutter. The pairwise compatibility matrix, its principal
eigenvector, and the greedy selection are printed at each stage.
"""

import numpy as np

from radarodo import Pose2, apply_pose
from radarodo.descriptors import UnaryMatches
from radarodo.matching import (
    eigengap_measure,
    greedy_select,
    pairwise_compatibility,
    principal_eigenvector,
)

rng = np.random.default_rng(3)
k = 6
pts1 = rng.uniform(-15.0, 15.0, size=(9, 2))
motion = Pose2(1.2, -0.4, 0.15)
good2 = apply_pose(motion, pts1[:k])
clutter = np.array([[500.0, 250.0], [600.0, -250.0], [700.0, 250.0]])
pts2 = np.vstack([good2, clutter])
matches = UnaryMatches(np.arange(9), np.arange(9))

c = pairwise_compatibility(matches, pts1, pts2, sigma=0.5)
print("compatibility matrix (1 = the two matches agree on the motion):")
with np.printoptions(precision=2, suppress=True):
    print(c)

solution = principal_eigenvector(c)
print(f"\nprincipal eigenvalue {solution.eigenvalue:.3f} "
      f"(a k-clique of ones scores k-1 = {k - 1})")
print("eigenvector:", np.round(solution.eigenvector, 3))
print(f"true matches get 1/sqrt(k) = {1 / np.sqrt(k):.3f}, clutter gets 0")

selection = greedy_select(c, solution, matches)
print(f"\ngreedy commits, best eigenvector weight first: {selection.selected}")
print(f"mutual compatibility of the final set: {selection.mutual_compatibility:.3f}")
print(f"eigengap confidence: {selection.eigengap:.3f} "
      f"(= k/u = {k}/9 = {k / 9:.3f} for a clean clique)")

bad_gap = eigengap_measure(c, [6, 7, 8])
print(f"eigengap if we had picked only clutter instead: {bad_gap:.3f}")
print("\nthe confidence measures separate a supported selection from an")
print("unsupported one without ever knowing the true motion.")
