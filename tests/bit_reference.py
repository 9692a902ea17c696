"""Bit-level reference of `write_stream`, the oracle for its byte path.

Each sample is widened to one byte per bit, the bits are cut into n-bit
blocks and every block is multiplied by the dense Toeplitz matrix.  The
production stream never forms an array of one byte per bit; this module
does so on purpose, so that it shares nothing with the byte path but the
dense matrix.  `stream_bytes` runs the production stream into a scratch
file and reads it back, and `hash_bit_rows` feeds it bit rows, one bit
per sample, for the tests that compare the fast path with the dense
matrix block by block.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from vacqrng.errors import ParameterError
from vacqrng.toeplitz import (ExtractorParams, ToeplitzSeed,
                              extract_block_dense, pack_bits, write_stream)


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


def stream_bytes(samples, seed: ToeplitzSeed, params: ExtractorParams,
                 bits_per_sample: int = 12) -> bytes:
    """The bytes `write_stream` writes for a sample stream, read back from
    a scratch directory that must then hold that one file: no ".part" is
    left behind.  Their length must fit the bit count it returns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "extracted.bin"
        n_bits = write_stream(path, samples, seed, params, bits_per_sample)
        assert os.listdir(tmp) == [path.name]
        data = path.read_bytes()
    assert len(data) == -(-n_bits // 8)
    return data


def hash_bit_rows(blocks, seed: ToeplitzSeed,
                  params: ExtractorParams) -> np.ndarray:
    """(k, n) input bit rows hashed by `write_stream` at one bit per
    sample, as (k, m) output bit rows."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    packed = np.frombuffer(stream_bytes(blocks.reshape(-1), seed, params,
                                        bits_per_sample=1), dtype=np.uint8)
    return np.unpackbits(packed, count=len(blocks) * params.m,
                         bitorder="little").reshape(len(blocks), params.m)
