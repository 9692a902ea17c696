"""Per-block feedback that keeps the homodyne output centered.

Every compensation period the controller sums the N ADC codes of the block
and compares SUM against a decision interval [A, B].  SUM below A steps the
DAC code down by c, SUM above B steps it up by c, with wraparound near the
code boundaries (the DAC spans two half-wave voltages, so code wraparound
is a 2*pi phase wrap).  The residual bias that the discrete steps cannot
remove is eliminated afterwards by subtracting the block mean from the N
samples.

Centered samples are kept in half-LSB fixed point (2*code minus the
rounded doubled mean), which keeps the arithmetic exact in integers while
retaining one fractional bit of the mean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .optics import DeviceParams
from .signal_chain import (AdcSpec, DacSpec, SignalChainState,
                           adc_convert, advance_drift, dac_to_phase,
                           detector_block)


@dataclass(frozen=True)
class ControllerConfig:
    block_size_n: int = 1000
    interval_a: int = 2043000
    interval_b: int = 2053000
    step_c: int = 5
    dac_bits_n: int = 14
    dac_init: int = 8092
    invert_loop: bool = False

    def __post_init__(self) -> None:
        if self.block_size_n < 1:
            raise ParameterError("block_size_n must be >= 1")
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
class ControllerState:
    dac_data: int
    blocks_processed: int = 0
    last_sum: int = 0
    locked: bool = False


@dataclass(frozen=True)
class SampleBlock:
    """One compensation block: raw codes, their sum, and centered values.

    `centered` is in half-LSB units: 2*code_i - round(2*sum/N), stored as
    int16.  `saturated` marks blocks containing clipped ADC samples.
    """

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


def initial_state(cfg: ControllerConfig) -> ControllerState:
    return ControllerState(dac_data=cfg.dac_init)


def decide(sum_value: int, cfg: ControllerConfig,
           state: ControllerState) -> ControllerState:
    """Apply the per-block decision to the DAC register.

    SUM in [A, B]: hold and mark locked.  SUM < A: step the code down by c,
    jumping to 2^n - c when the code is below c.  SUM > B: step up by c,
    jumping to c when the code is above 2^n - c.  The register is n bits,
    so the residual boundary case (code exactly 2^n - c stepping up) wraps
    modulo 2^n like the hardware adder would.
    """
    dac = state.dac_data
    mod = cfg.dac_modulus
    if cfg.interval_a <= sum_value <= cfg.interval_b:
        return ControllerState(dac_data=dac,
                               blocks_processed=state.blocks_processed + 1,
                               last_sum=sum_value, locked=True)
    decrease = sum_value < cfg.interval_a
    if cfg.invert_loop:
        decrease = not decrease
    if decrease:
        dac = mod - cfg.step_c if dac < cfg.step_c else dac - cfg.step_c
    else:
        dac = cfg.step_c if dac > mod - cfg.step_c else (dac + cfg.step_c) % mod
    return ControllerState(dac_data=dac,
                           blocks_processed=state.blocks_processed + 1,
                           last_sum=sum_value, locked=False)


def center_codes(codes: np.ndarray, block_sum: int) -> np.ndarray:
    """Half-LSB centered values: 2*code_i - round(2*sum/N)."""
    n = len(codes)
    doubled_mean = int(np.rint(2.0 * block_sum / n))
    centered = 2 * codes.astype(np.int64) - doubled_mean
    if centered.size and (centered.max() > 32767 or centered.min() < -32768):
        raise ParameterError("centered values overflow the int16 stream format")
    return centered.astype(np.int16)


def process_block(codes: np.ndarray, cfg: ControllerConfig,
                  state: ControllerState,
                  saturated: bool = False) -> tuple[SampleBlock, ControllerState]:
    """Sum a block, run the decision, and produce centered samples.

    The updated DAC code applies from the next block (one-block actuation
    latency); the returned SampleBlock reflects the block just measured.
    """
    codes = np.asarray(codes)
    if len(codes) != cfg.block_size_n:
        raise ParameterError(
            f"expected {cfg.block_size_n} codes, got {len(codes)}")
    block_sum = int(codes.sum())
    new_state = decide(block_sum, cfg, state)
    block = SampleBlock(codes=codes, sum=block_sum,
                        centered=center_codes(codes, block_sum),
                        saturated=saturated)
    return block, new_state


def run_closed_loop(params: DeviceParams, chain: SignalChainState,
                    cfg: ControllerConfig, n_blocks: int,
                    adc: AdcSpec | None = None,
                    dac: DacSpec | None = None,
                    frozen: bool = False,
                    initial: ControllerState | None = None,
                    ) -> tuple[list[SampleBlock], list[BlockRecord]]:
    """Simulate n_blocks compensation periods of the closed loop.

    Per block: sample block_size_n detector outputs at the current total
    phase (ambient drift + DAC phase), quantize, decide, then advance the
    drift by one block period.  `frozen=True` holds the DAC code fixed
    (noise-only runs, where SUM carries no phase information).
    """
    adc = adc or AdcSpec()
    dac = dac or DacSpec()
    tau = cfg.block_size_n / adc.sample_rate
    phase_per_step = 2 * np.pi * cfg.step_c / cfg.dac_modulus
    drift_per_tau = chain.drift_rate_std * np.sqrt(tau)
    if drift_per_tau > 0.5 * phase_per_step:
        warnings.warn(
            f"drift per block ({drift_per_tau:.2e} rad) is not small against "
            f"the correction step ({phase_per_step:.2e} rad); the loop may "
            "not keep up", stacklevel=2)

    state = initial if initial is not None else initial_state(cfg)
    blocks: list[SampleBlock] = []
    trace: list[BlockRecord] = []
    for i in range(n_blocks):
        phase = dac_to_phase(state.dac_data, dac, params.v_pi)
        volts = detector_block(params, chain, phase, cfg.block_size_n)
        codes, clipped = adc_convert(volts, adc)
        saturated = clipped > 0
        dac_before = state.dac_data
        block, new_state = process_block(codes, cfg, state, saturated=saturated)
        if frozen:
            new_state = replace(new_state, dac_data=dac_before)
        trace.append(BlockRecord(index=i, sum=block.sum,
                                 dac_before=dac_before,
                                 dac_after=new_state.dac_data,
                                 locked=new_state.locked,
                                 saturated=saturated))
        blocks.append(block)
        state = new_state
        advance_drift(chain, tau)
    return blocks, trace
