"""Haar samplers and the rotated model drawn from a given isometry: the tests' oracle.

symvar.matrixlab draws E + U D U* without ever forming an isometry: from the
principal angles for a two-atom law, and from Bartlett factors otherwise.
This module keeps what both replace. sample_haar_isometry and
sample_haar_unitary draw Haar isometries and unitaries by the QR of a
complex Ginibre matrix. A given n x s isometry q spans the range of E
(r <= n - r) or of I - E (otherwise), and one QR per atom block compresses
D + sigma q q* into one eigenproblem of dimension at most n. The tests
compare the two draws with it, in law or on the same q. bartlett_assembly
keeps the Bartlett draw's assembly as symvar 0.12.10 wrote it, every array
alive to the end; the draw must give its spectrum to the byte.
"""

from __future__ import annotations

import numpy as np

from symvar.errors import SizeError
from symvar.matrixlab import MatrixModel, spectral_multiplicities


def sample_haar_isometry(n, k, seed):
    """First k columns of a Haar unitary: thin QR of an n x k complex Ginibre matrix.

    The diagonal phase of R is divided out so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    if not 0 <= k <= n:
        raise SizeError(f"isometry needs 0 <= k <= n, got n = {n}, k = {k}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def sample_haar_unitary(n, seed):
    """Haar-distributed n x n unitary (the k = n isometry)."""
    if n < 1:
        raise SizeError("dimension must be >= 1")
    return sample_haar_isometry(n, n, seed)


def rotated_spectrum(model: MatrixModel, q):
    """Eigenvalues (unordered) of E + U D U* for the isometry q of the reduction."""
    n, r = model.n, model.rank()
    sigma, shift = (1.0, 0.0) if r <= n - r else (-1.0, 1.0)
    counts = spectral_multiplicities(model.y_law, n)
    starts = np.concatenate([[0], np.cumsum(counts)])
    factors, diag, rest = [], [], []
    for (t, _), lo, hi in zip(model.y_law.atoms, starts, starts[1:]):
        rf = np.linalg.qr(q[lo:hi], mode="r")
        factors.append(rf)
        diag.append(np.full(len(rf), float(t)))
        rest.append(np.full(hi - lo - len(rf), float(t)))
    rr = np.vstack(factors)
    small = sigma * (rr @ rr.conj().T)
    small[np.diag_indices_from(small)] += np.concatenate(diag)
    return np.concatenate([np.linalg.eigvalsh(small), *rest]) + shift


def bartlett_assembly(atoms, counts, s, sigma, t):
    """Eigenvalues (unordered) of D + sigma F from the stacked Bartlett factors t, as 0.12.10 had them."""
    kept = np.minimum(counts, s)
    rh = np.linalg.solve(np.linalg.cholesky(t.conj().T @ t), t.conj().T)  # R* = L^-1 T*
    small = (sigma * rh.conj().T) @ rh
    small[np.diag_indices_from(small)] += np.repeat(atoms, kept)
    return np.concatenate([np.linalg.eigvalsh(small), np.repeat(atoms, counts - kept)])
