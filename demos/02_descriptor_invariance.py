"""Show what the keypoint descriptors respond to, and what they ignore.

The matcher needs signatures that survive a rotation of the whole scene
about the sensor (the radar spins; heading changes rotate every detection
together) while still telling keypoints apart.
"""

import numpy as np

from radarodo import Pose2, apply_pose
from radarodo.descriptors import descriptor_matrix

rng = np.random.default_rng(0)
xy = rng.uniform(-30.0, 30.0, size=(25, 2))
alpha, rho = 16, 12
mat = descriptor_matrix(xy, alpha=alpha, rho=rho, max_range=60.0)
half = alpha // 2 + 1
print(f"25 keypoints -> descriptor matrix {mat.shape}: {half} of the {alpha} angular FFT "
      f"magnitudes (the rest mirror them) + {rho} radial bins")
print(f"angular entries live in [0, sqrt 2] (mirrored ones weighted by sqrt 2): "
      f"min {mat[:, :half].min():.3f}, max {mat[:, :half].max():.3f}")
print(f"radial entries live in [0, 1]: min {mat[:, half:].min():.3f}, max {mat[:, half:].max():.3f}")

print("\nrotating the whole cloud about the sensor:")
for deg in (10.0, 90.0, 237.0):
    rot = apply_pose(Pose2(0.0, 0.0, np.radians(deg)), xy)
    diff = np.max(np.abs(descriptor_matrix(rot, alpha, rho, 60.0) - mat))
    print(f"  {deg:6.1f} deg -> max descriptor change {diff:.2e}")

shift = xy + np.array([4.0, -2.0])
diff = np.max(np.abs(descriptor_matrix(shift, alpha, rho, 60.0) - mat))
print(f"\ntranslating the cloud by (4, -2) m -> max change {diff:.3f}")
print("rotation is a no-op by construction; translation is not, which is")
print("exactly the asymmetry the pairwise compatibility stage relies on.")

d = np.linalg.norm(mat[:, None, :] - mat[None, :, :], axis=2)
np.fill_diagonal(d, np.inf)
print(f"\nsmallest descriptor distance between two distinct keypoints: {d.min():.3f}")
print("distinct surroundings keep distinct signatures, so nearest-descriptor")
print("pairing gives the matcher a usable set of unary candidates.")
