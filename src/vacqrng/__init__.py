"""Bias-free vacuum-fluctuation QRNG: signal-chain simulator and toolkit.

Models the optical/electrical chain of a homodyne vacuum-noise random
number generator, runs the phase-compensation feedback loop, estimates
conditional min-entropy, applies Toeplitz-hashing extraction, and
statistically validates the output bits.
"""

from .config import PipelineConfig, load_config
from .controller import ControllerConfig, LoopRun, decide, run_closed_loop
from .entropy import (EntropyReport, build_report, extractor_budget,
                      min_entropy, sample_variance)
from .errors import (ConfigError, DataError, DegenerateDeviceError,
                     NoExtractableEntropyError, ParameterError)
from .optics import (DeviceParams, balance_phase, db_to_amplitude,
                     homodyne_difference, is_unreachable, pd1_current,
                     pd2_current)
from .pipeline import run_pipeline
from .signal_chain import AdcSpec, DacSpec, SignalChainState, dac_to_phase
from .stattests import (SuiteVerdict, TestOutcome, approximate_entropy_test,
                        block_frequency_test, cumulative_sums_test,
                        monobit_test, pass_proportion_interval, run_suite,
                        runs_test)
from .toeplitz import (ExtractorParams, ToeplitzSeed, extract_block,
                       extract_block_dense, extract_blocks, extract_stream,
                       generate_test_seed, load_seed, pack_bits, save_seed,
                       toeplitz_matrix, toeplitz_row, unpack_bits)

__version__ = "0.1.0"
