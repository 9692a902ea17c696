"""Per-block reference of the closed loop, the oracle for `run_closed_loop`.

This is the loop as first written: per block, n quantum then n electronic
normals and one drift normal read from the chain's PRNG, the voltages,
codes and drift formed inline with the arithmetic of that first version,
and one object per block.  It shares only the decision rule (`decide`) and
the centering rule (`center_codes`) with the array loop, which must
reproduce its every field and leave the chain at the same point of its
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vacqrng.controller import ControllerConfig, LoopRun, center_codes, decide
from vacqrng.errors import ParameterError
from vacqrng.optics import DeviceParams, homodyne_curve
from vacqrng.signal_chain import AdcSpec, SignalChainState


@dataclass(frozen=True)
class SampleBlock:
    """One compensation block: raw codes, their sum, and centered values."""

    codes: np.ndarray
    sum: int
    centered: np.ndarray
    saturated: bool = False


@dataclass(frozen=True)
class BlockRecord:
    """Per-block trace entry of a closed-loop run."""

    index: int
    sum: int
    dac_before: int
    dac_after: int
    locked: bool
    saturated: bool


def process_block(codes: np.ndarray, cfg: ControllerConfig, dac: int,
                  saturated: bool = False) -> tuple[SampleBlock, int, bool]:
    """Sum a block, run the decision, and produce centered samples.

    Returns the block, the DAC code after the decision and the lock flag.
    """
    codes = np.asarray(codes)
    if len(codes) != cfg.block_size_n:
        raise ParameterError(
            f"expected {cfg.block_size_n} codes, got {len(codes)}")
    block_sum = int(codes.sum())
    new_dac, locked = decide(block_sum, cfg, dac)
    block = SampleBlock(codes=codes, sum=block_sum,
                        centered=center_codes(codes, block_sum),
                        saturated=saturated)
    return block, new_dac, locked


def run_per_block(params: DeviceParams, chain: SignalChainState,
                  cfg: ControllerConfig, n_blocks: int, adc: AdcSpec,
                  frozen: bool = False,
                  ) -> tuple[list[SampleBlock], list[BlockRecord]]:
    tau = cfg.block_size_n / adc.sample_rate
    code = cfg.dac_init
    difference = homodyne_curve(params)
    blocks: list[SampleBlock] = []
    trace: list[BlockRecord] = []
    for i in range(n_blocks):
        phase = (math.pi * (code * cfg.dac_v_range / 2 ** cfg.dac_bits_n)
                 / params.v_pi)
        mean = difference(chain.delta_phi_ambient + phase)
        quantum = chain._rng.standard_normal(cfg.block_size_n)
        electronic = chain._rng.standard_normal(cfg.block_size_n)
        volts = (mean + chain.quantum_std(params.p_lo) * quantum
                 + chain.sigma_e * electronic)
        raw = np.rint(volts / adc.lsb) + adc.mid_code
        saturated = bool(np.any((raw < 0) | (raw > adc.max_code)))
        codes = np.clip(raw, 0, adc.max_code).astype(np.int64)
        block, new_code, locked = process_block(codes, cfg, code,
                                                saturated=saturated)
        if frozen:
            new_code = code
        trace.append(BlockRecord(index=i, sum=block.sum, dac_before=code,
                                 dac_after=new_code, locked=locked,
                                 saturated=saturated))
        blocks.append(block)
        code = new_code
        step = chain._rng.normal(0.0, chain.drift_rate_std * math.sqrt(tau))
        chain.delta_phi_ambient = (chain.delta_phi_ambient + step) \
            % (2 * math.pi)
    return blocks, trace


def as_loop_run(blocks: list[SampleBlock], trace: list[BlockRecord],
                block_size_n: int) -> tuple[LoopRun, np.ndarray]:
    """The per-block lists as the arrays of a LoopRun, and the blocks'
    own codes stacked (blocks x N): the oracle for `LoopRun.codes`, which
    a LoopRun rebuilds from its centered samples and sums."""
    def column(name, dtype):
        return np.array([getattr(r, name) for r in trace], dtype=dtype)

    def stack(name, dtype):
        rows = [getattr(b, name) for b in blocks]
        return (np.array(rows, dtype=dtype) if rows
                else np.empty((0, block_size_n), dtype=dtype))

    run = LoopRun(centered=stack("centered", np.int16),
                  sums=column("sum", np.int64),
                  dac_before=column("dac_before", np.int64),
                  dac_after=column("dac_after", np.int64),
                  locked=column("locked", bool),
                  saturated=column("saturated", bool))
    return run, stack("codes", np.int64)
