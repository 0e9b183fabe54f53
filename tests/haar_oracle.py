"""The rotated model drawn from a given Haar isometry: the tests' oracle.

symvar.matrixlab draws E + U D U* without ever forming an isometry: from the
principal angles for a two-atom law, and from Bartlett factors otherwise.
This module keeps the construction both replace. A given n x s isometry q
spans the range of E (r <= n - r) or of I - E (otherwise), and one QR per
atom block compresses D + sigma q q* into one eigenproblem of dimension at
most n. The tests feed it isometries from matrixlab.sample_haar_isometry and
compare the two draws with it, in law or on the same q.
"""

from __future__ import annotations

import numpy as np

from symvar.matrixlab import MatrixModel, spectral_multiplicities


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
