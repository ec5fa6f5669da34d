"""LPN encoding: the local matrix-vector products of Section 2.3.2.

Given the fixed matrix ``A`` (as an index array) the three parties'
computations are all instances of two kernels:

* block kernel:  ``out[j] = XOR_{i in A_j} vec[i]  XOR  addend[j]``
  (sender: z = rA XOR w; receiver: y = sA XOR v);
* bit kernel:    ``out[j] = (sum_{i in A_j} bits[i]) mod 2 XOR u[j]``
  (receiver: x = eA XOR u).

Both are chunked numpy gathers so multi-million-output encodes stay
within a bounded working set.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.crypto import blocks
from repro.errors import ParameterError
from repro.lpn.matrix import LpnMatrix

#: Rows per processing chunk (bounds gather temporaries to ~10 MB).
CHUNK_ROWS = 1 << 16


def encode_blocks(matrix: LpnMatrix, vec: np.ndarray, addend: np.ndarray) -> np.ndarray:
    """Block kernel: ``A * vec XOR addend`` over GF(2^128)."""
    blocks.require_blocks(vec, "vec")
    blocks.require_blocks(addend, "addend")
    if vec.shape[0] != matrix.k:
        raise ParameterError(f"input vector must have k={matrix.k} blocks")
    if addend.shape[0] != matrix.n:
        raise ParameterError(f"addend must have n={matrix.n} blocks")
    out = np.empty_like(addend)
    for start in range(0, matrix.n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, matrix.n)
        gathered = vec[matrix.indices[start:stop]]  # (rows, d, 2)
        acc = np.bitwise_xor.reduce(gathered, axis=1)
        out[start:stop] = np.bitwise_xor(acc, addend[start:stop])
    return out


def encode_bits(matrix: LpnMatrix, bits: np.ndarray, addend_bits: np.ndarray) -> np.ndarray:
    """Bit kernel: ``A * bits XOR addend_bits`` over GF(2)."""
    bits = np.asarray(bits, dtype=np.uint8)
    addend_bits = np.asarray(addend_bits, dtype=np.uint8)
    if bits.shape[0] != matrix.k:
        raise ParameterError(f"input bit vector must have k={matrix.k} entries")
    if addend_bits.shape[0] != matrix.n:
        raise ParameterError(f"addend must have n={matrix.n} bits")
    out = np.empty(matrix.n, dtype=np.uint8)
    for start in range(0, matrix.n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, matrix.n)
        gathered = bits[matrix.indices[start:stop]]  # (rows, d)
        acc = np.bitwise_xor.reduce(gathered, axis=1)
        out[start:stop] = acc ^ addend_bits[start:stop]
    return out


class EncodePremix:
    """The matrix-product half of an LPN encode, started early.

    ``A @ vec`` depends only on the LPN state carried between
    iterations -- not on the MPCOT output it is eventually XORed with
    -- so a Ferret extend can compute it on a background thread while
    the interactive MPCOT (channel rounds + GGM tree expansion) is
    still in flight, overlapping the extend's two stages.  XOR
    associativity makes ``finish(w)`` bit-identical to running
    :func:`encode_blocks` / :func:`encode_bits` after the fact, which
    is exactly what the equivalence tests assert.
    """

    def __init__(self, fn):
        self._result = None
        self._error = None

        def run():
            try:
                self._result = fn()
            except BaseException as exc:  # re-raised on finish()
                self._error = exc

        self._thread = threading.Thread(target=run, name="lpn-premix", daemon=True)
        self._thread.start()

    def finish(self, addend: np.ndarray) -> np.ndarray:
        """Join the background product and XOR in the late addend."""
        self._thread.join()
        if self._error is not None:
            raise self._error
        return np.bitwise_xor(self._result, addend)


def premix_blocks(matrix: LpnMatrix, vec: np.ndarray) -> EncodePremix:
    """Start ``A @ vec`` (block kernel, zero addend) in the background."""
    blocks.require_blocks(vec, "vec")
    if vec.shape[0] != matrix.k:
        raise ParameterError(f"input vector must have k={matrix.k} blocks")
    zeros = np.zeros((matrix.n, 2), dtype=vec.dtype)
    return EncodePremix(lambda: encode_blocks(matrix, vec, zeros))


def premix_bits(matrix: LpnMatrix, bits: np.ndarray) -> EncodePremix:
    """Start ``A @ bits`` (bit kernel, zero addend) in the background."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[0] != matrix.k:
        raise ParameterError(f"input bit vector must have k={matrix.k} entries")
    zeros = np.zeros(matrix.n, dtype=np.uint8)
    return EncodePremix(lambda: encode_bits(matrix, bits, zeros))


def encode_streamed(
    matrix_cols: np.ndarray,
    matrix_rows: np.ndarray,
    vec: np.ndarray,
    addend: np.ndarray,
) -> np.ndarray:
    """Reference encoder for *sorted* access streams.

    Processes (col, row) pairs in stream order -- exactly what the NMP
    rank module does with the Colidx/Rowidx arrays of Section 5.3 --
    and must produce the same output as :func:`encode_blocks` on the
    unsorted matrix.  Used by tests to prove sorting preserves results.
    """
    blocks.require_blocks(vec, "vec")
    out = addend.copy()
    np.bitwise_xor.at(out, matrix_rows, vec[matrix_cols])
    return out
