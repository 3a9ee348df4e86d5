"""Re-derive the AKLT reference gaps that bench/workloads.py freezes.

Independent of gapcert: the spin-1 AKLT bond term is the projection onto
total spin 2, P2 = 1/3 + (S.S)/2 + (S.S)^2/6, built here from the real
spin-1 ladder matrices and summed over the bonds of an open chain (or a ring)
as a real sparse matrix.  Run `python3 bench/references.py` (a few seconds).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

KERNEL_TOL = 1e-8


def aklt_chain(L, periodic=False):
    sz = sp.diags([1.0, 0.0, -1.0])
    sp_ = sp.csr_matrix(np.sqrt(2.0) * np.diag([1.0, 1.0], 1))  # S+
    sdot = sp.kron(sz, sz) + 0.5 * (sp.kron(sp_, sp_.T) + sp.kron(sp_.T, sp_))
    bond = (sp.identity(9) / 3 + sdot / 2 + (sdot @ sdot) / 6).tocsr()
    H = sp.csr_matrix((3**L, 3**L))
    for i in range(L - 1):
        H = H + sp.kron(sp.kron(sp.identity(3**i), bond), sp.identity(3 ** (L - i - 2)))
    if periodic:
        # bond (L-1, 0): conjugate the (0, 1) bond by the cyclic site shift
        idx = np.arange(3**L).reshape((3,) * L)
        perm = np.moveaxis(idx, 0, -1).reshape(-1)
        first = sp.kron(bond, sp.identity(3 ** (L - 2))).tocsr()
        H = H + first[perm][:, perm]
    return H.tocsr()


def chain_gap(H):
    if H.shape[0] <= 2500:
        vals = np.linalg.eigvalsh(H.toarray())
    else:
        vals = sla.eigsh(H, k=12, which="SA", tol=1e-13, v0=np.random.default_rng(0).standard_normal(H.shape[0]))[0]
    vals = np.sort(vals)
    return float(vals[vals > KERNEL_TOL][0]), int(np.sum(vals <= KERNEL_TOL))


if __name__ == "__main__":
    for L in range(3, 9):
        gap, kernel = chain_gap(aklt_chain(L))
        print(f"open {L}: {gap:.12g}  (kernel dim {kernel})")
    for L in (7, 8):
        gap, kernel = chain_gap(aklt_chain(L, periodic=True))
        print(f"ring {L}: {gap:.12g}  (kernel dim {kernel})")
