"""Property test: a configuration that loads runs `all` to its end.

`vacqrng all` has three outcomes: exit 0 with a manifest status that
starts "complete", exit 3 with one that starts "degenerate" (a measured
shortfall), and exit 2 for a configuration that does not load, before
anything is written.  A value validation could have seen must fail at
load, never mid-run, and no config may end in an uncaught exception.
The strategy reaches two-sample blocks, LO-off and silent-vacuum devices,
and extractor blocks narrower than one sample.  Kept apart from
test_config_pipeline.py so that an environment without hypothesis loses
only this test.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vacqrng.cli import main
from vacqrng.config import load_config
from vacqrng.errors import ConfigError
from vacqrng.signal_chain import SIGMA_E_CALIBRATED, SIGMA_VAC_CALIBRATED

# Per stream; the loop's cost is per block.  At these sizes an example
# runs in ~10 ms.
MAX_SAMPLES = 50_000
MAX_BLOCKS = 400
EDGE_KNOBS = ["block_size_n", "adc_bits", "dac_bits", "extractor_n",
              "interval", "extractor_m", "dac_init", "step_c", "p_lo",
              "sigma_vac", "sigma_e", "drift_rate_std", "invert_loop",
              "discard_unlocked", "epsilon_log2", "sequence_length",
              "n_sequences", "beta"]

# Configs that exited 2 only after both loops had run and written four
# artifacts; the property must hold for each of them.
ONE_SAMPLE_BLOCKS = {"block_size_n": 1, "samples": 1000, "noise_samples": 1,
                     "p_lo": 0, "interval_a": 0, "interval_b": 1_000_000_000}
H_MIN_ROUNDS_TO_ZERO = {"adc_bits": 4, "sigma_vac": 0, "dac_init": 5182,
                        "interval_a": 0, "interval_b": 1_000_000_000}
BLOCK_BELOW_ONE_SAMPLE = {"sigma_vac": 0, "extractor_n": 10,
                          "extractor_m": 5, "samples": 200_000,
                          "noise_samples": 200_000, "dac_init": 5182}


@st.composite
def configs(draw):
    """Config file fields around the default operating point.  Every knob
    takes a working value except up to three, which take an edge value
    instead: a boundary, a degenerate device or an invalid setting."""
    edges = draw(st.sets(st.sampled_from(EDGE_KNOBS), max_size=3))

    def pick(name, working, edge):
        return draw(edge if name in edges else st.sampled_from(working))

    n = pick("block_size_n", [1000, 100, 7], st.integers(1, 3))
    adc_bits = pick("adc_bits", [12, 8, 14], st.sampled_from([3, 4, 15]))
    dac_bits = pick("dac_bits", [14, 12, 16], st.sampled_from([3, 4, 24, 25]))
    extractor_n = pick("extractor_n", [2400, 240],
                       st.integers(1, 2 * adc_bits))
    mid_sum = n * 2 ** (adc_bits - 1)
    half_width = pick("interval", [5 * n, n * 2 ** adc_bits],
                      st.sampled_from([0, -1]))
    blocks = st.integers(1, min(MAX_BLOCKS, MAX_SAMPLES // n))
    fields = {
        "block_size_n": n,
        "samples": n * draw(blocks),
        "noise_samples": n * draw(blocks),
        "interval_a": mid_sum - half_width,
        "interval_b": mid_sum + half_width,
        "adc_bits": adc_bits,
        "dac_bits": dac_bits,
        "extractor_n": extractor_n,
        "extractor_m": pick("extractor_m", [max(1, extractor_n // 4)],
                            st.integers(1, extractor_n)),
        # the balance code of the default device, which the loop holds
        "dac_init": pick("dac_init", [round(5182 * 2.0 ** (dac_bits - 14))],
                         st.integers(0, 2 ** dac_bits)),
        "step_c": pick("step_c", [5], st.sampled_from([1, 64, 2 ** dac_bits])),
        "p_lo": pick("p_lo", [5.0, 20.0], st.sampled_from([0.0, 1.0])),
        "sigma_vac": pick("sigma_vac", [SIGMA_VAC_CALIBRATED],
                          st.sampled_from([0.0, SIGMA_VAC_CALIBRATED / 100])),
        "sigma_e": pick("sigma_e", [SIGMA_E_CALIBRATED],
                        st.sampled_from([0.0, 0.05])),
        "drift_rate_std": pick("drift_rate_std", [0.05, 0.0], st.just(50.0)),
        "invert_loop": pick("invert_loop", [False], st.just(True)),
        "discard_unlocked": pick("discard_unlocked", [False], st.just(True)),
        "epsilon_log2": pick("epsilon_log2", [48, 8], st.just(1)),
        "sequence_length": pick("sequence_length", [1000, 128],
                                st.sampled_from([127, 100_000])),
        "n_sequences": pick("n_sequences", [1, 3], st.just(0)),
        "beta": pick("beta", [0.01, 0.3], st.just(1.0)),
        "write_raw": draw(st.booleans()),
        "discretized_entropy": draw(st.booleans()),
    }
    # Leave some knobs at their defaults, so that the defaults meet the
    # drawn values too; the sample counts and the interval stay, to keep
    # the run small and the interval around the ADC's mid code.
    dropped = draw(st.sets(st.sampled_from(list(fields)[5:]), max_size=3))
    return {key: value for key, value in fields.items()
            if key not in dropped}


def _run_all(fields: dict, seed: int, work: Path) -> tuple[int, str]:
    config = work / "run.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = main(["all", "--config", str(config), "--seed", str(seed),
                   "--out", str(work / "out")])
    return rc, sink.getvalue()


class TestConfigSpace:
    @settings(max_examples=100, deadline=None, database=None)
    @given(configs(), st.integers(0, 2 ** 32 - 1))
    @example(ONE_SAMPLE_BLOCKS, 7)
    @example(H_MIN_ROUNDS_TO_ZERO, 7)
    @example(BLOCK_BELOW_ONE_SAMPLE, 3)
    def test_loaded_config_runs_all_to_an_outcome(self, fields, seed):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            work = Path(tmp)
            rc, output = _run_all(fields, seed, work)
            out = work / "out"
            if rc == 2:
                assert "configuration error" in output
                assert not out.exists(), output
                with pytest.raises(ConfigError):
                    load_config(work / "run.cfg")
                return
            assert rc in (0, 3), output
            status = json.loads((out / "manifest.json").read_text())["status"]
            want = "complete" if rc == 0 else "degenerate"
            assert status.startswith(want), status
