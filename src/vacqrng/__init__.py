"""Bias-free vacuum-fluctuation QRNG: signal-chain simulator and toolkit.

Models the optical/electrical chain of a homodyne vacuum-noise random
number generator, runs the phase-compensation feedback loop, estimates
conditional min-entropy, applies Toeplitz-hashing extraction, and
statistically validates the output bits.  The stages live in the
submodules; the package exports the run, its configuration and errors,
and the extractor and suite entry points.
"""

from .config import PipelineConfig, load_config
from .errors import (ConfigError, DataError, NoExtractableEntropyError,
                     ParameterError)
from .pipeline import run_pipeline
from .stattests import SuiteVerdict, run_suite
from .toeplitz import (ExtractorParams, ToeplitzSeed, generate_test_seed,
                       load_seed, save_seed, write_stream)

__version__ = "0.1.0"
