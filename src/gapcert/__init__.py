"""gapcert: spectral-gap certification for frustration-free spin Hamiltonians.

The package assembles nearest-neighbor (and finite-range) projection
Hamiltonians on chains, boxes, and periodic tori as Hermitian matrices,
one symmetry sector at a time (dense for small systems, sparse for large
ones), computes their low-lying spectra, and evaluates finite-size gap
criteria: a small-subsystem gap exceeding an explicit threshold certifies a
gap for the bulk Hamiltonian.  The combinatorial and operator-theoretic
ingredients behind the criteria (box counting, the H^2 = H + Q + R split,
the operator Cauchy-Schwarz inequality, per-box spectral bounds, and
coarse-graining of finite-range models) are all independently checkable at
desk scale through the verifier entry points.
"""

__version__ = "0.1.0"
