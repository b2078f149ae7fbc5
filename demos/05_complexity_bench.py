"""How the two expensive stages scale with their main knobs.

Data association builds a u x u compatibility matrix over the unary
candidates, so its cost should grow clearly faster than linearly in the
region budget that feeds it. Keypoint extraction is a fixed number of
array passes over the polar grid, greedy marking that orders only the
top-scoring cells the region budget can reach, and one pass over the
marked cells, so its cost should track the cell count roughly linearly. Both sweeps time the best
of three runs per point and summarize with a log-log slope.

Run time is about a second on a 2-core machine; the association sweep at
l_max=960 dominates.
"""

from radarodo import slope_of, sweep_association, sweep_extraction

print("association sweep (busy scene, 256 azimuths x 256 bins)")
assoc = sweep_association([240, 480, 960], seed=0, repeats=3)
for p in assoc:
    print(
        f"  l_max {int(p.parameter):4d}: {p.seconds * 1e3:8.1f} ms"
        f"  (candidates u={p.detail['u']}, selected {p.detail['selected']})"
    )
print(f"  log-log slope {slope_of(assoc):.2f} "
      "(superlinear: the compatibility matrix is quadratic in u)")

print()
print("extraction sweep (same 64 m world rendered at three grid sizes)")
extr = sweep_extraction([(128, 256), (256, 512), (512, 1024)], seed=0, repeats=3)
for p in extr:
    d = p.detail
    print(
        f"  {d['azimuths']:4d} x {d['range_bins']:4d} = {int(p.parameter):7d} cells:"
        f" {p.seconds * 1e3:8.1f} ms  ({d['keypoints']} keypoints)"
    )
print(f"  log-log slope {slope_of(extr):.2f} "
      "(near linear: a few full-grid passes plus the sort)")
