"""Bit-level reference of `extract_stream`, the oracle for its byte path.

Each sample is widened to one byte per bit, the bits are cut into n-bit
blocks and every block is multiplied by the dense Toeplitz matrix.  The
production stream never forms an array of one byte per bit; this module
does so on purpose, so that it shares nothing with the byte path but the
dense matrix.  `hash_bit_rows` goes the other way: it feeds bit rows to
the production stream, one bit per sample, for the tests that compare the
fast path with the dense matrix block by block.
"""

from __future__ import annotations

import numpy as np

from vacqrng.errors import ParameterError
from vacqrng.toeplitz import (ExtractorParams, ToeplitzSeed,
                              extract_block_dense, extract_stream, pack_bits)


def samples_to_bits(samples, bits_per_sample: int = 12) -> np.ndarray:
    """Low bits of each two's-complement sample, LSB first, temporal order."""
    if not 1 <= bits_per_sample <= 16:
        raise ParameterError("bits_per_sample must be in [1, 16]")
    samples = np.asarray(samples).reshape(-1)
    if samples.dtype.kind not in "iu":
        raise ParameterError("samples must be integers")
    return _low_bits(samples, bits_per_sample)


def _low_bits(samples: np.ndarray, bits_per_sample: int) -> np.ndarray:
    # The low 16 bits of the two's complement, as two little-endian bytes.
    low = samples.astype("<u2").view(np.uint8).reshape(-1, 2)
    bits = np.unpackbits(low, axis=1, bitorder="little")
    return bits[:, :bits_per_sample].reshape(-1)


def dense_stream(samples, seed: ToeplitzSeed, params: ExtractorParams,
                 bits_per_sample: int = 12) -> bytes:
    """Packed concatenation of the dense oracle's outputs, block by block."""
    raw = samples_to_bits(samples, bits_per_sample)
    n_blocks = raw.size // params.n
    blocks = raw[:n_blocks * params.n].reshape(n_blocks, params.n)
    return pack_bits(np.concatenate(
        [extract_block_dense(blk, seed, params) for blk in blocks]
        + [np.zeros(0, dtype=np.uint8)]))


def hash_bit_rows(blocks, seed: ToeplitzSeed,
                  params: ExtractorParams) -> np.ndarray:
    """(k, n) input bit rows hashed by `extract_stream` at one bit per
    sample, as (k, m) output bit rows."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    packed = extract_stream(blocks.reshape(-1), seed, params,
                            bits_per_sample=1)
    return np.unpackbits(packed, count=len(blocks) * params.m,
                         bitorder="little").reshape(len(blocks), params.m)
