"""Toeplitz extraction: indexing, GF(2) algebra, streams, bit packing."""

import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

from vacqrng import toeplitz
from vacqrng.errors import ParameterError
from vacqrng.toeplitz import (_CHUNK_BLOCKS, ExtractorParams, ToeplitzSeed,
                              extract_block_dense, generate_test_seed,
                              load_seed, pack_bits, save_seed,
                              toeplitz_matrix, unpack_bits, write_stream)
from tests.bit_reference import (dense_stream, hash_bit_rows,
                                 samples_to_bits, stream_bytes)


def bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


def hash_block(x: np.ndarray, seed: ToeplitzSeed,
               params: ExtractorParams) -> np.ndarray:
    """One n-bit block through the fast path, as its m output bits."""
    return hash_bit_rows(x[None, :], seed, params)[0]


class TestRowIndexing:
    def test_two_by_three_rows(self):
        params = ExtractorParams(m=2, n=3)
        seed = ToeplitzSeed(bits("0111"))  # s0..s3 = 0,1,1,1
        rows = toeplitz_matrix(seed, params)
        assert list(rows[0]) == [1, 1, 0]  # s2 s1 s0
        assert list(rows[1]) == [1, 1, 1]  # s3 s2 s1

    def test_diagonal_constancy_eight_square(self):
        params = ExtractorParams(m=8, n=8)
        seed = generate_test_seed(params, 41)
        matrix = toeplitz_matrix(seed, params)
        for i in range(7):
            for j in range(7):
                assert matrix[i, j] == matrix[i + 1, j + 1]

    def test_matrix_matches_rows(self):
        # row i is seed[i : i+n] reversed
        params = ExtractorParams(m=5, n=9)
        seed = generate_test_seed(params, 42)
        matrix = toeplitz_matrix(seed, params)
        for i in range(params.m):
            assert np.array_equal(matrix[i],
                                  seed.bits[i:i + params.n][::-1])

    def test_row_index_out_of_range(self):
        params = ExtractorParams(m=2, n=3)
        matrix = toeplitz_matrix(generate_test_seed(params, 1), params)
        assert matrix.shape == (2, 3)
        with pytest.raises(IndexError):
            matrix[2]

    def test_seed_length_checked(self):
        params = ExtractorParams(m=2, n=3)
        with pytest.raises(ParameterError):
            toeplitz_matrix(ToeplitzSeed(bits("01")), params)


class TestExtractBlock:
    def test_zero_input_zero_output(self):
        params = ExtractorParams(m=16, n=24)
        seed = generate_test_seed(params, 4)
        out = hash_block(np.zeros(24, dtype=np.uint8), seed, params)
        assert not out.any()

    def test_unit_inputs_read_out_columns(self):
        params = ExtractorParams(m=6, n=10)
        seed = generate_test_seed(params, 5)
        matrix = toeplitz_matrix(seed, params)
        for j in range(params.n):
            e = np.zeros(params.n, dtype=np.uint8)
            e[j] = 1
            assert np.array_equal(hash_block(e, seed, params),
                                  matrix[:, j])

    def test_hand_worked_three_by_four(self):
        params = ExtractorParams(m=3, n=4)
        seed = ToeplitzSeed(bits("101101"))
        x = bits("1011")
        expected = extract_block_dense(x, seed, params)
        assert list(expected) == [0, 1, 1]
        assert np.array_equal(hash_block(x, seed, params), expected)

    def test_length_mismatch(self):
        # three bits are no 4-bit block: the dense oracle rejects them,
        # and the stream drops them as a partial block
        params = ExtractorParams(m=3, n=4)
        seed = generate_test_seed(params, 6)
        with pytest.raises(ParameterError):
            extract_block_dense(bits("101"), seed, params)
        assert stream_bytes(bits("101"), seed, params,
                            bits_per_sample=1) == b""

    def test_gf2_linearity(self):
        params = ExtractorParams()
        seed = generate_test_seed(params, 7)
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2, size=(200, params.n), dtype=np.uint8)
        y = rng.integers(0, 2, size=(200, params.n), dtype=np.uint8)
        left = hash_bit_rows(x ^ y, seed, params)
        right = hash_bit_rows(x, seed, params) ^ hash_bit_rows(y, seed, params)
        assert np.array_equal(left, right)

    def test_fast_path_matches_dense_small_sizes(self):
        # plus one geometry with a padded last output word (m > 64, not a
        # multiple of 64) and a padded last input byte (n not a multiple of 8)
        rng = np.random.default_rng(9)
        geometries = [(m, n) for m in range(1, 13) for n in range(m, 17)]
        for m, n in geometries + [(100, 203)]:
            params = ExtractorParams(m=m, n=n)
            seed = generate_test_seed(params, 1000 * m + n)
            x = rng.integers(0, 2, size=n, dtype=np.uint8)
            assert np.array_equal(hash_block(x, seed, params),
                                  extract_block_dense(x, seed, params))

    def test_fast_path_matches_dense_exhaustive_tiny(self):
        # every seed and every input for a 2x3 extractor
        params = ExtractorParams(m=2, n=3)
        for seed_value in range(16):
            seed = ToeplitzSeed(np.array(
                [(seed_value >> k) & 1 for k in range(4)], dtype=np.uint8))
            for x_value in range(8):
                x = np.array([(x_value >> k) & 1 for k in range(3)],
                             dtype=np.uint8)
                assert np.array_equal(
                    hash_block(x, seed, params),
                    extract_block_dense(x, seed, params))

    def test_fast_path_matches_dense_full_size(self):
        params = ExtractorParams()
        seed = generate_test_seed(params, 10)
        rng = np.random.default_rng(11)
        x = rng.integers(0, 2, size=(10, params.n), dtype=np.uint8)
        fast = hash_bit_rows(x, seed, params)
        for k in range(10):
            assert np.array_equal(fast[k],
                                  extract_block_dense(x[k], seed, params))


def stream_bits(samples, seed, params, bits_per_sample=12) -> np.ndarray:
    """write_stream's packed output, unpacked (padding bits included)."""
    return np.unpackbits(
        np.frombuffer(stream_bytes(samples, seed, params, bits_per_sample),
                      dtype=np.uint8),
        bitorder="little")


class TestStream:
    def test_whole_blocks(self):
        params = ExtractorParams()
        seed = generate_test_seed(params, 12)
        rng = np.random.default_rng(13)
        samples = rng.integers(-4000, 4000, size=400).astype(np.int16)
        assert stream_bits(samples, seed, params).size == 3840

    def test_partial_block_dropped(self):
        params = ExtractorParams()
        seed = generate_test_seed(params, 12)
        rng = np.random.default_rng(13)
        samples = rng.integers(-4000, 4000, size=399).astype(np.int16)
        assert stream_bits(samples, seed, params).size == 1920

    def test_deterministic_across_runs_and_paths(self):
        params = ExtractorParams(m=48, n=96)
        seed = generate_test_seed(params, 14)
        rng = np.random.default_rng(15)
        samples = rng.integers(-4000, 4000, size=100).astype(np.int16)
        a = stream_bits(samples, seed, params)
        b = stream_bits(samples, seed, params)
        assert np.array_equal(a, b)
        raw_bits = samples_to_bits(samples)
        blocks = raw_bits[:12 * 100 // 96 * 96].reshape(-1, 96)
        dense = np.concatenate(
            [extract_block_dense(blk, seed, params) for blk in blocks])
        assert np.array_equal(a, dense)

    def test_chunked_stream_matches_dense(self):
        # more blocks than one chunk, and n = 100 not a multiple of the 12
        # bits per sample, so chunk edges fall inside a sample
        params = ExtractorParams(m=48, n=100)
        seed = generate_test_seed(params, 20)
        rng = np.random.default_rng(21)
        samples = rng.integers(-4000, 4000, size=40_003).astype(np.int16)
        n_blocks = samples.size * 12 // params.n
        assert n_blocks > _CHUNK_BLOCKS and _CHUNK_BLOCKS * params.n % 12
        out = stream_bits(samples, seed, params).reshape(-1, params.m)
        blocks = samples_to_bits(samples)[:n_blocks * params.n]
        assert out.shape == (n_blocks, params.m)
        for k, block in enumerate(blocks.reshape(n_blocks, params.n)):
            assert np.array_equal(out[k],
                                  extract_block_dense(block, seed, params))

    def test_sample_bit_order(self):
        # low 12 bits, LSB first, temporal order; two's complement
        out = samples_to_bits(np.array([1, -1], dtype=np.int16), 12)
        assert list(out[:12]) == [1] + [0] * 11
        assert list(out[12:]) == [1] * 12

    def test_output_ratio(self):
        params = ExtractorParams()
        seed = generate_test_seed(params, 16)
        rng = np.random.default_rng(17)
        samples = rng.integers(-4000, 4000, size=2000).astype(np.int16)
        out = stream_bits(samples, seed, params)
        n_blocks = 2000 * 12 // params.n
        assert out.size == n_blocks * params.m
        assert out.size / (n_blocks * params.n) == params.m / params.n


class TestPackedStream:
    """write_stream's bytes equal pack_bits of the dense oracle's."""

    def test_multi_chunk_with_chunk_edge_inside_a_sample(self, tmp_path):
        # 4800 blocks > _CHUNK_BLOCKS, so the helper thread hashes chunks
        params = ExtractorParams(m=48, n=100)
        seed = generate_test_seed(params, 30)
        rng = np.random.default_rng(31)
        samples = rng.integers(-4000, 4000, size=40_003).astype(np.int16)
        assert samples.size * 12 // params.n > _CHUNK_BLOCKS
        assert _CHUNK_BLOCKS * params.n % 12
        path = tmp_path / "extracted.bin"
        n_bits = write_stream(path, samples, seed, params)
        assert n_bits == params.output_bits(samples.size * 12)
        assert path.read_bytes() == dense_stream(samples, seed, params)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_odd_geometry_zero_padding(self):
        # m % 8 != 0, 11 bits per sample, and n_blocks * m % 8 != 0
        params = ExtractorParams(m=100, n=203)
        seed = generate_test_seed(params, 32)
        rng = np.random.default_rng(33)
        samples = rng.integers(-1024, 1024, size=1_020).astype(np.int16)
        n_blocks = samples.size * 11 // params.n
        n_bits = params.output_bits(samples.size * 11)
        assert n_bits == n_blocks * params.m and n_bits % 8
        packed = stream_bytes(samples, seed, params, bits_per_sample=11)
        assert packed == dense_stream(samples, seed, params, 11)
        unpack_bits(packed, n_bits)  # checks the padding is zero

    @pytest.mark.parametrize("bits_per_sample", [1, 7, 16])
    def test_bits_per_sample_range(self, bits_per_sample):
        params = ExtractorParams(m=21, n=45)
        seed = generate_test_seed(params, 34)
        rng = np.random.default_rng(35)
        samples = rng.integers(-30000, 30000, size=301).astype(np.int16)
        assert (stream_bytes(samples, seed, params, bits_per_sample)
                == dense_stream(samples, seed, params, bits_per_sample))

    def test_shifted_read_of_the_last_byte(self):
        # 12 samples of 16 bits are 16 blocks of n = 12 that end on the
        # last sample's last bit; the last block starts mid-byte, so its
        # shifted read takes one byte past the samples' bytes
        params = ExtractorParams(m=5, n=12)
        seed = generate_test_seed(params, 43)
        samples = np.arange(12, dtype=np.int16) * 977
        assert (stream_bytes(samples, seed, params, 16)
                == dense_stream(samples, seed, params, 16))

    @pytest.mark.parametrize("ones", [False, True])
    def test_full_size_odd_geometry(self, ones, monkeypatch):
        # n % 8 == 3 and m % 8 == 5 at full size, 8 blocks per chunk: the
        # blocks start at every bit of a byte, and each block's last byte
        # carries 5 bits of the next block, all set by all-ones samples,
        # that must not reach the hash
        monkeypatch.setattr(toeplitz, "_CHUNK_BLOCKS", 8)
        params = ExtractorParams(m=1917, n=2403)
        seed = generate_test_seed(params, 44)
        rng = np.random.default_rng(45)
        samples = (np.full(4_010, -1, dtype=np.int16) if ones
                   else rng.integers(-2048, 2048, size=4_010).astype(np.int16))
        assert samples.size * 12 // params.n == 20
        assert (stream_bytes(samples, seed, params)
                == dense_stream(samples, seed, params))

    def test_one_shift_table(self):
        # 138 KB at 1920 x 2400: one row per byte value, not one table per
        # byte position
        params = ExtractorParams()
        table = toeplitz._byte_table(generate_test_seed(params, 46), params)
        assert table.nbytes == 256 * ((params.n - 1) // 8
                                      + 8 * math.ceil(params.m / 64))
        assert table.nbytes == 137_984

    @pytest.mark.parametrize("samples, bits_per_sample", [
        (np.zeros(8, dtype=np.int16), 0),
        (np.zeros(8, dtype=np.int16), 17),
        (np.zeros(8), 12),
    ])
    def test_stream_checked_before_writing(self, tmp_path, samples,
                                           bits_per_sample):
        params = ExtractorParams(m=8, n=24)
        seed = generate_test_seed(params, 47)
        with pytest.raises(ParameterError):
            write_stream(tmp_path / "extracted.bin", samples, seed, params,
                         bits_per_sample)
        assert not any(tmp_path.iterdir())

    def test_empty_stream(self):
        params = ExtractorParams(m=8, n=24)
        seed = generate_test_seed(params, 36)
        samples = np.zeros(1, dtype=np.int16)
        assert stream_bytes(samples, seed, params) == b""

    def test_multi_chunk_under_fast_thread_switching(self):
        # each call's caller and helper split its chunks; three
        # concurrent calls (six threads on fewer cores) switching every
        # microsecond still each equal the dense oracle's bytes, so no
        # chunk is skipped, hashed twice or written to another's slice
        params = ExtractorParams(m=40, n=96)
        seed = generate_test_seed(params, 37)
        rng = np.random.default_rng(38)
        samples = rng.integers(-4000, 4000, size=3 * _CHUNK_BLOCKS * 8 + 100
                               ).astype(np.int16)
        n_blocks = samples.size * 12 // params.n
        assert n_blocks > 3 * _CHUNK_BLOCKS
        serial = dense_stream(samples, seed, params)
        outputs = {}

        def run(k):
            outputs[k] = stream_bytes(samples, seed, params)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(outputs) == [0, 1, 2]
        assert all(out == serial for out in outputs.values())

    def test_one_chunk_starts_no_thread(self, monkeypatch, tmp_path):
        params = ExtractorParams()
        seed = generate_test_seed(params, 39)
        rng = np.random.default_rng(40)
        samples = rng.integers(-4000, 4000, size=20_000).astype(np.int16)
        counts = []
        kernel = toeplitz._hash

        def counting_hash(*args):
            counts.append((threading.active_count(),
                           threading.current_thread()))
            return kernel(*args)

        monkeypatch.setattr(toeplitz, "_hash", counting_hash)
        before = threading.active_count()
        path = tmp_path / "extracted.bin"
        write_stream(path, samples, seed, params)
        assert counts == [(before, threading.current_thread())]
        assert threading.active_count() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_bytes() == stream_bytes(
            samples_to_bits(samples), seed, params, bits_per_sample=1)

    def test_multi_chunk_uses_one_helper(self, monkeypatch, tmp_path):
        # control for the test above: past one chunk the helper does run
        params = ExtractorParams(m=16, n=24)
        seed = generate_test_seed(params, 41)
        samples = np.arange(3 * _CHUNK_BLOCKS * 2, dtype=np.int16)
        threads = set()
        calls = []
        both = threading.Barrier(2, timeout=10)
        kernel = toeplitz._hash

        def recording_hash(*args):
            calls.append(len(args[0]))
            if threading.get_ident() not in threads:
                threads.add(threading.get_ident())
                both.wait()  # each thread's first chunk waits for the other
            return kernel(*args)

        monkeypatch.setattr(toeplitz, "_hash", recording_hash)
        write_stream(tmp_path / "extracted.bin", samples, seed, params)
        assert [p.name for p in tmp_path.iterdir()] == ["extracted.bin"]
        assert len(threads) == 2
        assert threading.get_ident() in threads
        # the two threads share the chunks: each is hashed once
        assert sorted(calls) == [_CHUNK_BLOCKS] * 3

    def test_error_on_caller_stops_the_helper(self, monkeypatch, tmp_path):
        # e.g. Ctrl-C, which lands on the caller's thread: the helper
        # finishes the chunk it holds and takes no other
        params = ExtractorParams(m=16, n=24)
        seed = generate_test_seed(params, 42)
        samples = np.arange(10 * _CHUNK_BLOCKS * 2, dtype=np.int16)
        caller = threading.get_ident()
        helper_calls = []
        both = threading.Barrier(2, timeout=10)
        kernel = toeplitz._hash

        def failing_hash(*args):
            if not helper_calls and threading.get_ident() == caller:
                both.wait()
                raise KeyboardInterrupt
            if not helper_calls:
                both.wait()
                time.sleep(0.2)  # while the caller fails
            helper_calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(toeplitz, "_hash", failing_hash)
        with pytest.raises(KeyboardInterrupt):
            write_stream(tmp_path / "extracted.bin", samples, seed, params)
        assert len(helper_calls) == 1
        # neither the output nor its ".part" is left
        assert not any(tmp_path.iterdir())


class TestPackedBits:
    def test_first_bit_in_lsb_of_first_byte(self):
        packed = pack_bits([1, 0, 0, 0, 0, 0, 0, 0, 1])
        assert packed == bytes([0x01, 0x01])

    def test_roundtrip(self):
        rng = np.random.default_rng(18)
        raw = rng.integers(0, 2, size=1001, dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(raw), 1001), raw)

    def test_length_check(self):
        with pytest.raises(ParameterError):
            unpack_bits(bytes(2), 17)

    def test_nonzero_padding_rejected(self):
        with pytest.raises(ParameterError):
            unpack_bits(bytes([0xFF]), 4)

    def test_seed_file_roundtrip(self, tmp_path):
        params = ExtractorParams(m=10, n=20)
        seed = generate_test_seed(params, 19)
        path = tmp_path / "seed.bin"
        save_seed(path, seed)
        loaded = load_seed(path, params)
        assert np.array_equal(loaded.bits, seed.bits)

    def test_seed_file_wrong_length(self, tmp_path):
        params = ExtractorParams(m=10, n=20)
        path = tmp_path / "seed.bin"
        path.write_bytes(bytes(3))
        with pytest.raises(ParameterError):
            load_seed(path, params)


class TestParams:
    def test_geometry_validation(self):
        with pytest.raises(ParameterError):
            ExtractorParams(m=0, n=10)
        with pytest.raises(ParameterError):
            ExtractorParams(m=11, n=10)

    def test_seed_length_and_epsilon(self):
        params = ExtractorParams()
        assert params.seed_length == 4319
        assert params.epsilon == 2.0 ** -48

    def test_seed_bits_validated(self):
        with pytest.raises(ParameterError):
            ToeplitzSeed(np.array([0, 1, 2], dtype=np.uint8))
