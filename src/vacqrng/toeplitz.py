"""Seeded Toeplitz-hashing extractor over GF(2).

An m x n binary Toeplitz matrix is defined by m+n-1 seed bits with the
indexing convention

    entry(i, j) = seed[i - j + n - 1],   0 <= i < m,  0 <= j < n

(constant along diagonals; row i is seed[i : i+n] reversed).  Output bit i
is the GF(2) dot product of row i with the input block.

Two multiplication strategies are provided: a dense matrix-vector oracle
(reference), and a fast path in the "Method of Four Russians" style
(Albrecht, Bard & Hart, ACM TOMS 37(1), 2010).  The fast path packs each
input block into bytes and looks up, for every byte position p, the XOR of
the eight matrix columns 8p..8p+7 that the byte's set bits select.  Along
a Toeplitz matrix those 256 XORs only shift, by one byte per position, so
one table of the seed's 256 byte products serves every position through a
moving window.  The output is the XOR of the looked-up windows, packed
into 64-bit words; only XORs of bits are computed, so the fast path is
exact by construction and bit-identical to the oracle.

A sample stream is hashed with one path for every geometry (any n and m,
1..16 bits per sample, blocks that start inside a sample or a byte),
_CHUNK_BLOCKS blocks at a time in the byte domain: each chunk's samples
are packed straight into bytes, each block's bytes taken with one shifted
read and hashed, and the chunk's packed output produced in stream order.
No array holds one byte per input bit.  The caller's thread hashes chunk
j while one helper thread, started only when the stream spans more than
one chunk, hashes chunk j + 1; the helper calls only private functions.
`write_stream` writes each chunk to a file as it arrives, so the output
is never held whole.

Bit conventions, fixed for all stream and file formats:
  * samples enter the input block least-significant-bit first, samples in
    temporal order (low `bits_per_sample` bits of the two's-complement
    centered value);
  * packed bytes place the first-produced bit in the least significant bit
    of the first byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError

_CHUNK_BLOCKS = 4096  # blocks hashed per chunk; a multiple of 8
_WORD = np.dtype("<u8")


@dataclass(frozen=True)
class ExtractorParams:
    """Extractor geometry: m output bits from n input bits per block."""

    m: int = 1920
    n: int = 2400
    epsilon_log2: int = 48

    def __post_init__(self) -> None:
        if not 0 < self.m <= self.n:
            raise ParameterError("need 0 < m <= n")
        if self.epsilon_log2 <= 0:
            raise ParameterError("epsilon_log2 must be positive")

    @property
    def seed_length(self) -> int:
        return self.m + self.n - 1

    @property
    def epsilon(self) -> float:
        return 2.0 ** -self.epsilon_log2

    def output_bits(self, input_bits: int) -> int:
        """Bits hashed out of a stream of `input_bits` bits: m per whole
        n-bit block, the trailing partial block dropped."""
        return input_bits // self.n * self.m


@dataclass(frozen=True)
class ToeplitzSeed:
    """The m+n-1 seed bits that define an m x n Toeplitz matrix.

    The seed is fixed across all blocks of a run: the construction is a
    strong extractor, so seed reuse on independent inputs is sound.
    """

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ParameterError("seed bits must be a flat bit array")
        if np.any(bits > 1):
            raise ParameterError("seed bits must be 0/1")
        object.__setattr__(self, "bits", bits)

    def check_length(self, params: ExtractorParams) -> None:
        if len(self.bits) != params.seed_length:
            raise ParameterError(
                f"seed length {len(self.bits)} != m+n-1 = {params.seed_length}")


def generate_test_seed(params: ExtractorParams, seed_value: int) -> ToeplitzSeed:
    """Deterministic test seed: PCG64(seed_value) bits.

    For production use, load externally generated seed material from a
    file instead; this generator exists for reproducible simulation runs.
    """
    rng = np.random.default_rng(seed_value)
    bits = rng.integers(0, 2, size=params.seed_length, dtype=np.uint8)
    return ToeplitzSeed(bits=bits)


def toeplitz_matrix(seed: ToeplitzSeed, params: ExtractorParams) -> np.ndarray:
    """Dense m x n matrix, entry(i, j) = seed[i - j + n - 1]."""
    seed.check_length(params)
    idx = np.arange(params.m)[:, None] - np.arange(params.n)[None, :] + params.n - 1
    return seed.bits[idx]


def extract_block_dense(block_bits: np.ndarray, seed: ToeplitzSeed,
                        params: ExtractorParams) -> np.ndarray:
    """Reference path: materialize the matrix and multiply mod 2."""
    x = np.asarray(block_bits, dtype=np.uint8)
    if x.ndim != 1 or len(x) != params.n:
        raise ParameterError(f"input block must be {params.n} bits, got {x.shape}")
    if np.any(x > 1):
        raise ParameterError("input bits must be 0/1")
    matrix = toeplitz_matrix(seed, params)
    return (matrix.astype(np.int64) @ x.astype(np.int64) % 2).astype(np.uint8)


def _hash(blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(k, ceil(n/8)) block bytes in, (k, ceil(m/64)) uint64 words out.

    Byte p of a block selects row x[p] of the shift table, read from byte
    (n-1)//8 - p on; the XOR of those windows over all byte positions is
    the block's output: m bits LSB-first in little-endian words, followed
    by bits that are not zero and that callers drop.
    """
    # Position-major bytes, so each gather reads one contiguous index row;
    # the last position reads its window from byte 0.
    x = np.ascontiguousarray(blocks.T)
    width = table.shape[1] - len(x) + 1
    acc = np.zeros((len(blocks), width // 8), dtype=_WORD)
    for at, byte in enumerate(x[::-1]):
        acc ^= table[:, at:at + width].take(byte, axis=0).view(_WORD)
    return acc


def _byte_table(seed: ToeplitzSeed, params: ExtractorParams) -> np.ndarray:
    """R[v]: the seed's product with byte value v, as (n-1)//8 + 8*ceil(m/64)
    little-endian bytes.

    With c = (n-1) % 8, bit u of R[v] is the XOR of seed[c + u - b] over
    the set bits b of v, seed bits out of range read as 0.  Column j of
    the matrix is seed[n-1-j : n-1-j+m], so the columns 8p..8p+7 that v
    selects are the window of R[v] from bit 8((n-1)//8 - p) on.
    """
    seed.check_length(params)
    top, c = divmod(params.n - 1, 8)
    width = top + 8 * -(-params.m // 64)
    padded = np.zeros(8 * width + 8, dtype=np.uint8)
    padded[8 - c:8 - c + seed.bits.size] = seed.bits
    # shifted[b] = R[1 << b], padded read from bit 8 - b on.
    shifted = np.packbits(sliding_window_view(padded, 8 * width)[8:0:-1],
                          axis=1, bitorder="little")
    table = np.zeros((256, width), dtype=np.uint8)
    for b in range(8):
        table[1 << b:2 << b] = table[:1 << b] ^ shifted[b]
    return table


def _pack_samples(samples: np.ndarray, bits_per_sample: int) -> np.ndarray:
    """The low `bits_per_sample` bits of each sample, end to end, packed
    LSB-first into bytes, plus at least 8 zero bytes of tail.

    Samples are ORed into little-endian uint64 words a group at a time:
    a group is the lcm(b, 64) / b samples that fill whole words, so
    sample j of every group lands at the same word and shift.
    """
    b = bits_per_sample
    group, words = math.lcm(b, 64) // b, math.lcm(b, 64) // 64
    packed = np.zeros((-(-samples.size // group) + 1, words), dtype=_WORD)
    mask = np.uint64((1 << b) - 1)
    for j in range(group):
        # astype keeps the low 64 bits of the two's complement.
        low = samples[j::group].astype(_WORD) & mask
        word, shift = divmod(j * b, 64)
        packed[:low.size, word] |= low << np.uint64(shift)
        if shift + b > 64:
            packed[:low.size, word + 1] |= low >> np.uint64(64 - shift)
    return packed.view(np.uint8).reshape(-1)


def _block_bytes(packed: np.ndarray, skip: int, n: int,
                 k: int) -> np.ndarray:
    """The k consecutive n-bit blocks starting at bit `skip` of `packed`,
    as k rows of ceil(n/8) bytes.

    A block's last byte may carry the next block's first bits; they are
    cleared, since the shift table would read them as seed bits.
    """
    # Blocks `period` apart start at the same bit of a byte, `stride`
    # bytes apart, so each residue class is one strided view of byte
    # pairs (one class when n % 8 == 0).
    width = -(-n // 8)
    period = 8 // math.gcd(n, 8)
    stride = n * period // 8
    pairs = sliding_window_view(packed, width + 1)
    rows = np.empty((k, width), dtype=np.uint8)
    for c in range(min(period, k)):
        first, shift = divmod(skip + c * n, 8)
        view = pairs[first::stride][:len(range(c, k, period))]
        if shift:
            rows[c::period] = view[:, :-1] >> shift | view[:, 1:] << (8 - shift)
        else:
            rows[c::period] = view[:, :-1]
    if n % 8:
        rows[:, -1] &= (1 << n % 8) - 1
    return rows


def _hashed_chunks(samples: np.ndarray, seed: ToeplitzSeed,
                   params: ExtractorParams, bits_per_sample: int):
    """The packed output of each _CHUNK_BLOCKS-block chunk of a flat
    sample stream, in order, as 1-D uint8 arrays.

    The caller's thread hashes the even chunks and one helper thread,
    started only when the stream spans more than one chunk, the odd ones:
    while the caller hashes chunk j, the helper hashes chunk j + 1.  The
    helper calls only private functions.  Closing the generator, or an
    error in either thread, lets the helper finish the chunk it holds and
    gives it no other.
    """
    n, m = params.n, params.m
    n_blocks = samples.size * bits_per_sample // n
    table = _byte_table(seed, params)
    starts = range(0, n_blocks, _CHUNK_BLOCKS)

    def hashed(start: int) -> np.ndarray:
        k = min(_CHUNK_BLOCKS, n_blocks - start)
        # Chunk edges need not fall on sample edges: pack the samples
        # covering bits [start*n, (start+k)*n) and skip the leading
        # partial one.
        first, skip = divmod(start * n, bits_per_sample)
        last = -(-(start + k) * n // bits_per_sample)
        words = _hash(_block_bytes(
            _pack_samples(samples[first:last], bits_per_sample),
            skip, n, k), table)
        # Every chunk but the last holds a multiple of 8 blocks, so the
        # next one starts on a byte.
        if m % 8 == 0:
            # Each row's first m/8 bytes are its output bytes.
            return np.ascontiguousarray(
                words.view(np.uint8)[:, :m // 8]).reshape(-1)
        return np.packbits(np.unpackbits(
            words.view(np.uint8), axis=1, count=m, bitorder="little"),
            bitorder="little")

    if len(starts) < 2:
        yield from map(hashed, starts)
        return
    # Imported here so that importing the package starts no thread
    # machinery.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(hashed, starts[1])
        for j in range(0, len(starts), 2):
            yield hashed(starts[j])
            if j + 1 < len(starts):
                chunk = ahead.result()
                if j + 3 < len(starts):
                    ahead = helper.submit(hashed, starts[j + 3])
                yield chunk


def write_stream(path, centered_samples, seed: ToeplitzSeed,
                 params: ExtractorParams, bits_per_sample: int = 12) -> int:
    """Hash a centered-sample stream and write the packed output to the
    `pathlib.Path` `path` chunk by chunk, as it is hashed, so that the
    output is never held whole.  Returns the output's length in bits.

    The low `bits_per_sample` bits of each sample, in temporal order, are
    cut into n-bit blocks (trailing partial block dropped, never padded),
    and each block is extracted with the same seed.  The file holds the
    concatenated m-bit outputs in the `pack_bits` format (first bit in
    the LSB of the first byte, zero padding), `params.output_bits(...)`
    bits in all.  Blocks are hashed _CHUNK_BLOCKS at a time, packing only
    the samples each chunk covers, so working memory does not grow with
    the stream; a stream of more than one chunk is hashed by the caller's
    thread and one helper thread.

    The bytes go to `path` plus ".part", renamed to `path` only once the
    last chunk is written: a failed or interrupted extraction leaves no
    partial file under `path`.
    """
    if not 1 <= bits_per_sample <= 16:
        raise ParameterError("bits_per_sample must be in [1, 16]")
    samples = np.asarray(centered_samples).reshape(-1)
    if samples.dtype.kind not in "iu":
        raise ParameterError("samples must be integers")
    part = path.with_name(path.name + ".part")
    chunks = _hashed_chunks(samples, seed, params, bits_per_sample)
    try:
        with part.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        part.replace(path)
    except BaseException:
        chunks.close()  # the helper finishes its chunk and takes no other
        part.unlink(missing_ok=True)
        raise
    return params.output_bits(samples.size * bits_per_sample)


def pack_bits(bits) -> bytes:
    """Pack bits into bytes, first bit in the LSB of the first byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8),
                       bitorder="little").tobytes()


def unpack_bits(data: bytes, n_bits: int) -> np.ndarray:
    """Inverse of pack_bits; checks length and zero padding."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if len(raw) != (n_bits + 7) // 8:
        raise ParameterError(
            f"expected {(n_bits + 7) // 8} bytes for {n_bits} bits, "
            f"got {len(raw)}")
    bits = np.unpackbits(raw, bitorder="little")
    if np.any(bits[n_bits:]):
        raise ParameterError("nonzero padding bits in final byte")
    return bits[:n_bits]


def save_seed(path, seed: ToeplitzSeed) -> None:
    with open(path, "wb") as fh:
        fh.write(pack_bits(seed.bits))


def load_seed(path, params: ExtractorParams) -> ToeplitzSeed:
    """Read a packed seed file, enforcing the exact m+n-1 bit length."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read seed file {path}: {exc}") from exc
    bits = unpack_bits(data, params.seed_length)
    return ToeplitzSeed(bits=bits)
