"""Per-block feedback that keeps the homodyne output centered.

Every compensation period the controller sums the N ADC codes of the block
and compares SUM against a decision interval [A, B].  SUM below A steps the
DAC code down by c, SUM above B steps it up by c, with wraparound near the
code boundaries (the DAC spans two half-wave voltages, so code wraparound
is a 2*pi phase wrap).  The residual bias that the discrete steps cannot
remove is eliminated afterwards by subtracting the block mean from the N
samples.  The DAC's n-bit width sets both the wrap and the phase a code
puts on the modulator, so the DAC is part of `ControllerConfig` and
`dac_to_phase` turns its codes into phase.

Centered samples are kept in half-LSB fixed point (2*code minus the
rounded doubled mean), which keeps the arithmetic exact in integers while
retaining one fractional bit of the mean.

A run is one `LoopRun` of arrays with a row or an entry per block:
centered samples, block sums, DAC codes before and after each decision,
lock and saturation flags.  `LoopRun.codes` rebuilds the raw codes
exactly from centered samples and sums.  Per block the chain's stream holds N
quantum, then N electronic, then one drift normal.  The noise is drawn in
chunks of CHUNK_BLOCKS blocks, each one `standard_normal` fill whose row i
holds block i's draws in that order (see `signal_chain.draw_block_noise`).
A fill is the stream split at block boundaries and every voltage, code and
phase is formed with the same floating-point operations in the same order
whatever the chunk, so a seed gives the same run, bit for bit, at any
chunk size.  The fill is about half of the loop's cost and cannot be split
(the ziggurat sampler takes a variable number of words per normal), so one
worker thread draws chunk j + 1 into the second of two preallocated
buffers while the caller's thread runs the sequential part of chunk j: per
block, the mean voltage at the current phase, quantization, SUM and
`decide`; then, per chunk, the saturation flags and the centering of the
clipped codes in one vectorized pass.  numpy releases the GIL while it
fills the buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .optics import DeviceParams, homodyne_curve
from .signal_chain import (AdcSpec, SignalChainState, adc_clip,
                           adc_ideal_codes, block_noise_width, detector_volts,
                           draw_block_noise, drift_phase, scale_block_noise)

# Blocks per bulk noise draw: large enough to amortize the per-call cost,
# small enough that the two noise buffers stay at ~1 MB each.
CHUNK_BLOCKS = 64


@dataclass(frozen=True)
class ControllerConfig:
    """The loop's decision rule and the n-bit DAC it steps."""

    block_size_n: int = 1000
    interval_a: int = 2043000
    interval_b: int = 2053000
    step_c: int = 5
    dac_bits_n: int = 14
    dac_v_range: float = 2.480
    dac_init: int = 8092
    invert_loop: bool = False

    def __post_init__(self) -> None:
        # The width first: the code ranges below are powers of it.
        if not 4 <= self.dac_bits_n <= 24:
            raise ParameterError(
                f"DAC bits must be in [4, 24], got {self.dac_bits_n}")
        if self.dac_v_range <= 0:
            raise ParameterError("DAC v_range must be positive")
        # A one-sample block centers to 0: its samples carry nothing.
        if self.block_size_n < 2:
            raise ParameterError("block_size_n must be >= 2")
        if self.interval_a > self.interval_b:
            raise ParameterError("interval_a must be <= interval_b")
        if not 0 < self.step_c < 2 ** self.dac_bits_n:
            raise ParameterError("step_c must be in (0, 2^dac_bits_n)")
        if not 0 <= self.dac_init < 2 ** self.dac_bits_n:
            raise ParameterError("dac_init out of DAC code range")

    @property
    def dac_modulus(self) -> int:
        return 2 ** self.dac_bits_n


@dataclass(frozen=True)
class LoopRun:
    """A closed-loop run as arrays, one row or entry per block.

    `centered` are the half-LSB centered samples (blocks x N, int16),
    `sums` the block sums, `dac_before` the DAC code the block was
    measured at and `dac_after` the code after its decision (int64).
    `locked` marks sums inside [A, B]; `saturated` marks blocks holding
    clipped ADC samples.  `codes`, the ADC codes (blocks x N, uint16),
    are derived from `centered` and `sums`, not stored.
    """

    centered: np.ndarray
    sums: np.ndarray
    dac_before: np.ndarray
    dac_after: np.ndarray
    locked: np.ndarray
    saturated: np.ndarray

    def __len__(self) -> int:
        return self.sums.size

    @property
    def codes(self) -> np.ndarray:
        """The ADC codes, (centered + doubled mean) / 2, exactly: the
        inverse of `center_codes`."""
        doubled = doubled_mean(self.sums, self.centered.shape[-1])
        codes = self.centered + doubled[:, None]
        codes >>= 1
        return codes.view(np.uint16)

    def first_locked(self) -> int | None:
        """Index of the first locked block, None if none locked."""
        return int(np.argmax(self.locked)) if self.locked.any() else None


def dac_to_phase(dac_data: int, cfg: ControllerConfig, v_pi: float) -> float:
    """Phase shift (rad) produced by a DAC code: pi * V_out / v_pi."""
    if not 0 <= dac_data < cfg.dac_modulus:
        raise ParameterError(
            f"dac_data {dac_data} out of range [0, {cfg.dac_modulus})")
    voltage = dac_data * cfg.dac_v_range / cfg.dac_modulus
    return math.pi * voltage / v_pi


def decide(sum_value: int, cfg: ControllerConfig,
           dac: int) -> tuple[int, bool]:
    """The DAC code after one block's decision, and whether SUM locked.

    SUM in [A, B]: hold and lock.  SUM < A: step the code down by c,
    jumping to 2^n - c when the code is below c.  SUM > B: step up by c,
    jumping to c when the code is above 2^n - c.  The register is n bits,
    so the residual boundary case (code exactly 2^n - c stepping up) wraps
    modulo 2^n like the hardware adder would.
    """
    if cfg.interval_a <= sum_value <= cfg.interval_b:
        return dac, True
    decrease = sum_value < cfg.interval_a
    if cfg.invert_loop:
        decrease = not decrease
    mod, c = cfg.dac_modulus, cfg.step_c
    if decrease:
        return (mod - c if dac < c else dac - c), False
    return (c if dac > mod - c else (dac + c) % mod), False


def doubled_mean(block_sum, n: int) -> np.ndarray:
    """round(2*sum/N) per block, in int16: the half-LSB block mean."""
    return np.rint(2.0 * np.asarray(block_sum) / n).astype(np.int16)


def center_codes(codes: np.ndarray, block_sum) -> np.ndarray:
    """Half-LSB centered values: 2*code_i - round(2*sum/N), in int16.

    `codes` is one block with its sum, or blocks x N with one sum per row.
    The codes of an ADC of at most 14 bits (`AdcSpec`) keep it in int16.
    """
    codes = np.asarray(codes)
    doubled = doubled_mean(block_sum, codes.shape[-1])
    return 2 * codes.astype(np.int16) - doubled[..., None]


def run_closed_loop(params: DeviceParams, chain: SignalChainState,
                    cfg: ControllerConfig, n_blocks: int, adc: AdcSpec,
                    frozen: bool = False) -> LoopRun:
    """Simulate n_blocks compensation periods of the closed loop.

    Per block: sample block_size_n detector outputs at the current total
    phase (ambient drift + DAC phase), quantize, decide, then advance the
    drift by one block period.  The new DAC code applies from the next
    block (one-block actuation latency).  `frozen=True` holds the DAC code
    fixed (noise-only runs, where SUM carries no phase information).
    The DAC starts at `cfg.dac_init`.
    `chain` is advanced in place, past exactly the draws of n_blocks.
    """
    # Imported here so that importing the package starts no thread
    # machinery.
    from concurrent.futures import ThreadPoolExecutor

    n = cfg.block_size_n
    tau = n / adc.sample_rate
    centered = np.empty((n_blocks, n), dtype=np.int16)
    saturated = np.empty(n_blocks, dtype=bool)
    sums: list[int] = []
    dac_before: list[int] = []
    dac_after: list[int] = []
    locked: list[bool] = []

    rows = min(CHUNK_BLOCKS, n_blocks)
    noise_buffers = [np.empty((rows, block_noise_width(n))) for _ in range(2)]
    raw = np.empty((rows, n))
    clipped = np.empty((rows, n))
    starts = range(0, n_blocks, CHUNK_BLOCKS)
    difference = homodyne_curve(params)
    code = cfg.dac_init

    def draw(j: int) -> np.ndarray:
        k = min(CHUNK_BLOCKS, n_blocks - starts[j])
        return draw_block_noise(chain, noise_buffers[j % 2][:k])

    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = worker.submit(draw, 0) if n_blocks else None
        for j, start in enumerate(starts):
            noise = pending.result()
            if j + 1 < len(starts):
                pending = worker.submit(draw, j + 1)
            quantum, electronic, drift = scale_block_noise(params, chain,
                                                           noise, tau)
            k = len(noise)
            for i, step in enumerate(drift.tolist()):
                phase = dac_to_phase(code, cfg, params.v_pi)
                mean = difference(chain.delta_phi_ambient + phase)
                volts = detector_volts(mean, quantum[i], electronic[i],
                                       out=raw[i])
                adc_ideal_codes(volts, adc, out=volts)
                block_sum = int(adc_clip(volts, adc, out=clipped[i]).sum())
                new_code, lock = decide(block_sum, cfg, code)
                sums.append(block_sum)
                dac_before.append(code)
                locked.append(lock)
                if not frozen:
                    code = new_code
                dac_after.append(code)
                chain.delta_phi_ambient = drift_phase(
                    chain.delta_phi_ambient, step)
            # Saturated: clipping moved a sample of the block.
            stop = start + k
            saturated[start:stop] = (clipped[:k] != raw[:k]).any(axis=1)
            centered[start:stop] = center_codes(clipped[:k],
                                                np.array(sums[start:stop]))
    return LoopRun(centered=centered,
                   sums=np.array(sums, dtype=np.int64),
                   dac_before=np.array(dac_before, dtype=np.int64),
                   dac_after=np.array(dac_after, dtype=np.int64),
                   locked=np.array(locked, dtype=bool), saturated=saturated)
