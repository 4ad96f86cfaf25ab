"""Sign-fixed Householder QR, the reference the orthonormal bases of
``grassket.grassmann`` are tested against."""

import numpy as np

from grassket.grassmann import DEGENERATE_COL_RTOL


def positive_qr(matrix):
    """Householder QR with Q and R signed so diag(R) >= 0; for a Gaussian
    matrix Q is Haar distributed."""
    Q, R = np.linalg.qr(matrix)
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)
    Q *= signs
    R *= signs[:, None]
    return Q, R


def householder_range(matrix):
    """Householder Q compressed onto the leading left singular vectors of its
    R, as many as R has singular values above DEGENERATE_COL_RTOL times the
    Frobenius norm: the numerical range, in three steps.  The matrix is first
    scaled by a power of two to unit size, so the norm does not overflow."""
    matrix = np.ldexp(matrix, -np.frexp(np.abs(matrix).max())[1])
    Q, R = positive_qr(matrix)
    left, singvals, _ = np.linalg.svd(R)
    rank = np.count_nonzero(singvals > DEGENERATE_COL_RTOL * np.linalg.norm(matrix))
    return Q @ left[:, :rank]
