"""LAPACK's symmetric eigensolver ``dsyevd``, called in place through numpy's own OpenBLAS.

``np.linalg.eigvalsh`` and ``eigh`` copy their input into a Fortran-ordered work array and make one call:
``dsyevd`` with ``uplo = 'L'``, ``n = lda`` = the order, and the workspace that its query asks for.
:func:`syevd` makes the same call on the caller's Fortran-ordered matrix, so it gets the same bits without the copy.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

_INT = ctypes.POINTER(ctypes.c_int64)
# jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, and the hidden lengths of jobz and uplo
_ARGTYPES = [ctypes.c_char_p, ctypes.c_char_p, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p, ctypes.c_void_p, _INT,
             ctypes.c_void_p, _INT, _INT, ctypes.c_size_t, ctypes.c_size_t]


@functools.cache
def _dsyevd():
    """numpy's bundled ILP64 ``dsyevd`` (64-bit integers, two hidden string lengths), or None."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/libscipy_openblas64_*"),
                        *package.glob(".dylibs/libscipy_openblas64_*")]):
        try:
            dsyevd = ctypes.CDLL(str(path)).scipy_dsyevd_64_
        except (OSError, AttributeError):
            continue
        dsyevd.argtypes, dsyevd.restype = _ARGTYPES, None
        return dsyevd
    return None


def syevd(a: np.ndarray, vectors: bool):
    """Ascending eigenvalues of the symmetric ``a``, read from its lower triangle, and with ``vectors`` the
    eigenvectors as columns: the bits of ``np.linalg.eigvalsh(a)`` and ``eigh(a)``.

    A writable Fortran-ordered float64 ``a`` is destroyed: it becomes the eigenvectors, or scratch.  Any other
    ``a``, or no bundled library, takes numpy's call, which copies it.
    """
    if (_dsyevd() is None or a.dtype != np.float64 or a.shape != (len(a), len(a))
            or not a.flags.f_contiguous or not a.flags.writeable):
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    order = len(a)
    lwork, liwork = _workspace(order, vectors)
    # one allocation: the work array first, as in numpy's call, then the eigenvalues and the integer work array
    memory = np.empty(lwork + order + liwork)
    work = ctypes.addressof(ctypes.c_double.from_buffer(memory))  # faster than .ctypes.data; a.T is C-ordered
    if _call(vectors, order, ctypes.addressof(ctypes.c_double.from_buffer(a.T)), work + 8 * lwork, work, lwork,
             work + 8 * (lwork + order), liwork):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")  # numpy's message
    values = memory[lwork : lwork + order].copy()
    return (values, a) if vectors else values


@functools.cache
def _workspace(order: int, vectors: bool) -> tuple[int, int]:
    """The work and integer work lengths that dsyevd's workspace query returns; the query reads no matrix."""
    work, iwork = ctypes.c_double(), ctypes.c_int64()
    if _call(vectors, order, None, None, ctypes.addressof(work), -1, ctypes.addressof(iwork), -1):
        raise np.linalg.LinAlgError(f"dsyevd's workspace query failed at order {order}")
    return int(work.value), iwork.value


def _call(vectors: bool, order: int, a: int | None, values: int | None, work: int, lwork: int, iwork: int,
          liwork: int) -> int:
    """One dsyevd call with numpy's flags, the arrays given by address; returns LAPACK's info."""
    n, info = ctypes.c_int64(order), ctypes.c_int64()
    _dsyevd()(b"V" if vectors else b"N", b"L", ctypes.byref(n), a, ctypes.byref(n), values, work,
              ctypes.byref(ctypes.c_int64(lwork)), iwork, ctypes.byref(ctypes.c_int64(liwork)), ctypes.byref(info),
              1, 1)
    return info.value
