"""Configuration loading/validation, pipeline artifacts, CLI behavior."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import vacqrng
from vacqrng import cli, pipeline, toeplitz
from vacqrng.cli import main
from vacqrng.config import PipelineConfig, load_config, parse_config_text
from vacqrng.controller import ControllerConfig, LoopRun
from vacqrng.errors import (ConfigError, DataError,
                            NoExtractableEntropyError, ParameterError)
from vacqrng.pipeline import (LoopSummary, run_pipeline, select_centered,
                              simulate_run, suite_on_file, write_extracted)
from vacqrng.optics import DeviceParams
from vacqrng.signal_chain import AdcSpec, SignalChainState
from vacqrng.stattests import run_suite
from vacqrng.toeplitz import ExtractorParams, pack_bits, unpack_bits

QUICK = dict(samples=200_000, noise_samples=100_000, dac_init=5182,
             sequence_length=100_000, n_sequences=2)

# m = 100 at n = 203: the packed output ends inside a byte.
ODD = dict(QUICK, samples=201_000, extractor_m=100, extractor_n=203,
           epsilon_log2=24)

# ODD with two 100,050-bit suite sequences: `test` hashes 2001 blocks.
ODD_SUITE = dict(ODD, sequence_length=100_050)

SYMMETRIC_SILENT = """
eta_ab1_db = 0
eta_ab2_db = 0
eta_pm_db = 0
eta_c1d1_db = 0
eta_c1d2_db = 0
eta_c2d1_db = 0
eta_c2d2_db = 0
g_pd1 = 1.0
g_pd2 = 1.0
sigma_vac = 0
sigma_e = 0
drift_rate_std = 0
samples = 50000
noise_samples = 50000
"""


def copied(run: LoopRun) -> LoopRun:
    """A run whose samples `select_centered` may consume, leaving `run`'s."""
    return replace(run, centered=run.centered.copy())


class TestConfigParsing:
    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = load_config(path)
        assert config == PipelineConfig()
        assert config.interval_a == 2043000
        assert config.step_c == 5
        assert config.dac_init == 8092

    def test_comments_and_overrides(self):
        config = parse_config_text(
            "# device under test\n"
            "p_lo = 7.5  # mW\n"
            "\n"
            "master_seed = 99\n"
            "invert_loop = true\n")
        assert config.p_lo == 7.5
        assert config.master_seed == 99
        assert config.invert_loop is True

    def test_lo_off_config_is_valid(self):
        config = parse_config_text("p_lo = 0\n")
        assert config.p_lo == 0.0

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config_text("bogus_key = 1\n")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="adc_bits"):
            parse_config_text("adc_bits = twelve\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_field_error_propagates(self):
        with pytest.raises(ParameterError):
            parse_config_text("eta_pm_db = -2\n")


class TestConfigValidation:
    def test_budget_violation_rejected(self):
        with pytest.raises(ConfigError, match="leftover-hash"):
            parse_config_text("extractor_m = 2400\nextractor_n = 2400\n")
        # 2410 bits hold 200 whole 12-bit samples, not 200.8: the budget
        # is 1920 bits, as a run would measure it.
        with pytest.raises(ConfigError, match="leftover-hash"):
            parse_config_text("extractor_m = 1925\nextractor_n = 2410\n")

    def test_default_geometry_admitted(self):
        PipelineConfig()
        PipelineConfig(extractor_m=1920, extractor_n=2410)

    def test_checked_once_when_built(self):
        # a config is checked when it is built and cannot change after
        config = PipelineConfig()
        with pytest.raises(FrozenInstanceError):
            config.samples = 1500
        assert config.samples == 10_000_000
        with pytest.raises(ConfigError, match="^samples = 1500 is not"):
            PipelineConfig(samples=1500)

    def test_dac_range_warning(self):
        with pytest.warns(UserWarning, match="2\\*v_pi"):
            parse_config_text("dac_v_range = 2.0\n")

    def test_drift_warning_when_loop_cannot_keep_up(self):
        with pytest.warns(UserWarning, match="drift per block"):
            parse_config_text("drift_rate_std = 50\n")

    def test_interval_order(self):
        with pytest.raises((ConfigError, ParameterError)):
            parse_config_text("interval_a = 3000000\n")

    @pytest.mark.parametrize("line, message", [
        ("adc_bits = 15", "ADC bits must be in \\[4, 14\\]"),
        ("p_lo = 1.0", "leftover-hash budget 1688"),
        ("sequence_length = 120", "sequence_length >= 128"),
        ("block_size_n = 1\nsamples = 1000\nnoise_samples = 1\np_lo = 0\n"
         "interval_a = 0\ninterval_b = 1000000000",
         "block_size_n must be >= 2"),
        ("sigma_vac = 0\nextractor_n = 10\nextractor_m = 5",
         "an input block must hold a whole sample")])
    def test_limits_rejected_at_load(self, tmp_path, capsys, line, message):
        # each failed only after the loops had run: the overflow scan in
        # centering, admission of the measured h_min, the suite, the
        # variance of one-sample blocks, admission of an extractor block
        # narrower than a sample (the LO-off and silent-vacuum configs skip
        # the load-time admission)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_expected_h_min_scales_with_p_lo(self):
        # the default is what the benchmark checks measured entropy against
        assert PipelineConfig().expected_h_min() == 10.077575192548618
        # var_Q scales with p_lo / p_ref: a quarter of the power is one bit
        # (at that power the budget is 1720 bits, below the default m)
        assert PipelineConfig(p_lo=1.25, extractor_m=1600).expected_h_min() \
            == pytest.approx(10.077575192548618 - 1.0, abs=1e-9)

    def test_samples_must_cover_block(self):
        with pytest.raises(ConfigError):
            parse_config_text("samples = 10\n")

    @pytest.mark.parametrize("line", [
        "p_ref = 0", "sigma_e = -0.001", "drift_rate_std = -1",
        "sample_rate = 0", "sample_rate = -80e6"])
    def test_chain_values_rejected_at_load(self, tmp_path, capsys, line):
        # rejected before a run writes anything, not mid-run
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_config(cfg)
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -7, 999])
    def test_noise_samples_must_cover_block(self, tmp_path, capsys, value):
        # rejected at load, not run as one silent 1000-sample LO-off block
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"noise_samples = {value}\n")
        with pytest.raises(ConfigError, match="noise_samples"):
            load_config(cfg)
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_counts_must_be_block_multiples(self, tmp_path, capsys):
        # rejected at load, not cut to whole blocks without notice
        for key in ("samples", "noise_samples"):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = 1500\n")
            with pytest.raises(ConfigError,
                               match=rf"^{key} = 1500 is not a multiple"):
                load_config(cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--samples", "1500", "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


class TestSeedsAndHash:
    def test_stream_seeds_deterministic_and_distinct(self):
        a = PipelineConfig(master_seed=5).stream_seeds()
        b = PipelineConfig(master_seed=5).stream_seeds()
        c = PipelineConfig(master_seed=6).stream_seeds()
        assert a == b
        assert a != c
        assert len(set(a.values())) == len(a)

    def test_config_hash_tracks_content(self):
        assert PipelineConfig().config_hash() \
            == PipelineConfig().config_hash()
        assert PipelineConfig().config_hash() \
            != PipelineConfig(p_lo=5.1).config_hash()

    def test_default_config_format_pinned(self):
        # config.txt of the defaults, whose hash every JSON artifact embeds
        assert PipelineConfig().config_hash() == "1fbc0983f67b0e78"

    def test_views_match_component_defaults(self):
        # PipelineConfig and each component spell out the reference defaults
        config = PipelineConfig()
        assert config.device_params() == DeviceParams()
        assert config.adc_spec() == AdcSpec()
        assert config.controller_config() == ControllerConfig()
        assert config.extractor_params() == ExtractorParams()
        # the chain's generator compares by identity: compare init fields
        names = [f.name for f in fields(SignalChainState) if f.init]
        state, default = config.chain_state(0), SignalChainState()
        assert ([getattr(state, name) for name in names]
                == [getattr(default, name) for name in names])

    def test_views_take_prefixed_fields(self):
        # a consistent operating point: 2 * v_pi = dac_v_range and an
        # interval a 10-bit block can reach, so construction warns of none
        config = PipelineConfig(adc_bits=10, adc_v_range=2.0, sample_rate=4e7,
                                dac_bits=12, dac_v_range=3.0, dac_init=7,
                                v_pi=1.5, interval_a=510000, interval_b=513000,
                                extractor_m=100, extractor_n=200,
                                epsilon_log2=20, sigma_e=0.01)
        assert config.adc_spec() == AdcSpec(bits=10, v_range=2.0,
                                            sample_rate=4e7)
        assert config.controller_config() == ControllerConfig(
            interval_a=510000, interval_b=513000, dac_bits_n=12,
            dac_v_range=3.0, dac_init=7)
        assert config.extractor_params() == ExtractorParams(
            m=100, n=200, epsilon_log2=20)
        state = config.chain_state(5)
        assert (state.rng_seed, state.sigma_e) == (5, 0.01)

    def test_text_roundtrip(self):
        config = PipelineConfig(p_lo=6.6, invert_loop=True, master_seed=17)
        assert parse_config_text(config.to_text()) == config


class TestPipeline:
    def test_artifacts_written_and_parse(self, tmp_path):
        config = PipelineConfig(**QUICK, write_raw=True)
        result = run_pipeline(config, tmp_path)
        assert result.status.startswith("complete")

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config.config_hash()
        assert manifest["master_seed"] == config.master_seed
        for entry in manifest["artifacts"].values():
            data = (tmp_path / entry["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "block-trace"
        assert header["config_hash"] == config.config_hash()
        first = json.loads(lines[1])
        assert first["index"] == 0 and "dac_after" in first

        centered = np.frombuffer((tmp_path / "centered.i16").read_bytes(),
                                 dtype="<i2")
        assert centered.size == config.samples
        raw = np.frombuffer((tmp_path / "raw_codes.u16").read_bytes(),
                            dtype="<u2")
        assert raw.size == config.samples
        assert int(raw.max()) <= 4095

        entropy = json.loads((tmp_path / "entropy.json").read_text())
        assert 10.03 <= entropy["h_min_per_sample"] <= 10.13
        assert entropy["budget_bits_per_block"] == 1920

        extracted = (tmp_path / "extracted.bin").read_bytes()
        assert len(extracted) == (result.extracted_bits + 7) // 8

    def test_byte_identical_reruns(self, tmp_path):
        config = PipelineConfig(**QUICK)
        run_pipeline(config, tmp_path / "a")
        run_pipeline(config, tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes(), name

    def test_seed_changes_artifacts(self, tmp_path):
        run_pipeline(PipelineConfig(**QUICK), tmp_path / "a")
        run_pipeline(PipelineConfig(**QUICK, master_seed=123), tmp_path / "b")
        assert (tmp_path / "a" / "extracted.bin").read_bytes() \
            != (tmp_path / "b" / "extracted.bin").read_bytes()

    def test_degenerate_zero_variance_flagged(self, tmp_path):
        config = parse_config_text(SYMMETRIC_SILENT)
        with pytest.raises(NoExtractableEntropyError):
            run_pipeline(config, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"].startswith("degenerate")

    def test_manifest_hashes_in_bounded_memory(self, tmp_path):
        # each artifact is hashed in fixed-size reads, never held whole
        size = 32 << 20
        artifact = tmp_path / "centered.i16"
        with artifact.open("wb") as fh:
            fh.truncate(size)
        tracemalloc.start()
        try:
            pipeline._write_manifest(tmp_path, PipelineConfig(),
                                     {"centered": artifact}, "complete", 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"]["centered"] == {
            "path": "centered.i16", "bytes": size,
            "sha256": hashlib.sha256(bytes(size)).hexdigest()}

    def test_loop_summary(self):
        config = PipelineConfig(**QUICK)
        summary = LoopSummary.from_run(simulate_run(config), warmup_blocks=10)
        assert summary.n_blocks == 200
        assert summary.first_locked_block is not None
        assert 0.0 <= summary.locked_fraction <= 1.0

    def test_suite_on_file_reads_only_whole_sequences(self, monkeypatch,
                                                      tmp_path):
        config = PipelineConfig(sequence_length=1_000, n_sequences=3)
        bits = np.random.default_rng(4).integers(0, 2, size=2_500,
                                                 dtype=np.uint8)
        path = tmp_path / "extracted.bin"
        path.write_bytes(pack_bits(bits))
        seen = []

        def recording_suite(*args, **kwargs):
            seen.append((args, kwargs))
            return run_suite(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_suite", recording_suite)
        verdict = suite_on_file(path, bits.size, config)
        [(args, kwargs)] = seen
        # only the bytes of the two whole sequences are read
        head = np.frombuffer(pack_bits(bits[:2_000]), dtype=np.uint8)
        assert args[0].tobytes() == head.tobytes()
        assert args[1:] == (2_000, 1_000)
        assert kwargs == {"n_sequences": 2, "beta": config.beta}
        # the same verdict as from the first two sequences' bits alone
        assert verdict == run_suite(head, 2_000, 1_000, 2, beta=config.beta)
        assert suite_on_file(path, 999, config) is None

    def test_select_centered_filters(self):
        config = PipelineConfig(**QUICK)
        run = simulate_run(config)
        # from the balance code the first block locks and none saturates,
        # so every block passes, the unlocked ones too
        assert run.first_locked() == 0 and not run.saturated.any()
        assert not run.locked.all()
        assert select_centered(run).size == config.samples
        # blocks before the first lock and saturated blocks never pass
        locked = np.array([0, 0, 1, 0, 1, 0], dtype=bool)
        saturated = np.array([1, 0, 0, 1, 0, 0], dtype=bool)
        rows = np.arange(6, dtype=np.int16)[:, None].repeat(2, axis=1)
        synthetic = LoopRun(centered=rows, sums=rows[:, 0],
                            dac_before=rows[:, 0], dac_after=rows[:, 0],
                            locked=locked, saturated=saturated)
        assert select_centered(synthetic).tolist() \
            == [2, 2, 4, 4, 5, 5]

    def test_select_compacts_in_place(self):
        # blocks before the first lock and saturated blocks after it:
        # several runs of kept blocks
        rng = np.random.default_rng(43)
        n_blocks, n = 2_000, 500
        locked = rng.random(n_blocks) < 0.6
        locked[:37], locked[37] = False, True
        saturated = rng.random(n_blocks) < 0.05
        zeros = np.zeros(n_blocks, dtype=np.int64)
        run = LoopRun(centered=rng.integers(-4000, 4000, size=(n_blocks, n),
                                            dtype=np.int16),
                      sums=zeros, dac_before=zeros, dac_after=zeros,
                      locked=locked, saturated=saturated)
        keep = ~saturated
        keep[:37] = False
        expected = run.centered.copy()[keep].reshape(-1)
        assert run.centered.size >= 1_000_000
        assert not saturated[:37].all() and np.count_nonzero(
            np.diff(keep)) > 100
        tracemalloc.start()
        try:
            stream = select_centered(run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(stream, expected)
        assert np.shares_memory(stream, run.centered)
        assert peak < 1 << 20, peak


class TestCli:
    def test_estimate_command(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 200000\nnoise_samples = 100000\n"
                       "dac_init = 5182\n")
        code = main(["estimate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "entropy.json").exists()
        assert "leftover-hash budget" in capsys.readouterr().out

    def test_flags_apply_before_the_check(self, tmp_path, capsys):
        # the effective config is the one checked: a file count that a
        # flag replaces is never checked on its own
        cfg = tmp_path / "odd.cfg"
        cfg.write_text("samples = 1500\n")
        with pytest.raises(ConfigError, match="^samples = 1500 is not"):
            load_config(cfg)
        assert load_config(cfg, samples=2000).samples == 2000
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--samples", "2000",
                     "--out", str(out)]) == 0
        assert (out / "centered.i16").stat().st_size == 2 * 2_000

    @pytest.mark.parametrize("flags", [["all", "--seed", "3"],
                                       ["simulate", "--samples", "4000"]])
    def test_load_time_warning_once(self, tmp_path, capsys, flags):
        # each command builds, and so checks, its config once
        cfg = tmp_path / "dac.cfg"
        cfg.write_text("samples = 200000\nnoise_samples = 100000\n"
                       "sequence_length = 100000\nn_sequences = 2\n"
                       # the balance code 5182 of 2.480 V, at 2.0 V
                       "dac_v_range = 2.0\ndac_init = 6426\n")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main([*flags, "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
        assert [str(w.message) for w in seen] == [
            "DAC range 2.0 V != 2*v_pi = 2.48 V: code wraparound will not "
            "be an exact phase wrap"]

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        parser = cli._parser()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 200000\nnoise_samples = 100000\n"
                       "dac_init = 5182\n")
        assert main(["simulate", "--samples", "5000", "--out",
                     str(tmp_path / "a")]) == 0
        assert main(["estimate", "--config", str(cfg), "--out",
                     str(tmp_path / "b")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--seed", "seven"])
        assert exc.value.code == 2
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "c")]) == 0
        assert cli._parser() is parser
        # no option of an earlier call carries over to a later one
        assert (tmp_path / "a" / "centered.i16").stat().st_size == 10_000
        assert (tmp_path / "b" / "entropy.json").exists()
        assert (tmp_path / "c" / "centered.i16").stat().st_size == 400_000
        assert "invalid int value: 'seven'" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_field = 1\n")
        assert main(["estimate", "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_degenerate_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "silent.cfg"
        cfg.write_text(SYMMETRIC_SILENT)
        assert main(["all", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert "data error" in capsys.readouterr().err

    def test_external_bits_testing(self, tmp_path, capsys):
        bits = np.random.default_rng(3).integers(0, 2, size=600_000,
                                                 dtype=np.uint8)
        path = tmp_path / "stream.bin"
        path.write_bytes(pack_bits(bits))
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("sequence_length = 100000\nn_sequences = 5\n")
        code = main(["test", "--config", str(cfg), "--bits", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
        assert verdict["n_sequences"] == 5
        assert "acceptance band" in capsys.readouterr().out

    def test_extract_writes_each_chunk(self, tmp_path, monkeypatch):
        # 8-block chunks: many of them, the last one short, each ending
        # inside a byte at m = 100
        config = PipelineConfig(**ODD)
        cfg = tmp_path / "odd.cfg"
        cfg.write_text(config.to_text())
        with monkeypatch.context() as patch:
            patch.setattr(toeplitz, "_CHUNK_BLOCKS", 8)
            assert main(["extract", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
        # the same bytes as from whole 4096-block chunks
        reference = tmp_path / "reference"
        reference.mkdir()
        n_bits = write_extracted(
            config, select_centered(simulate_run(config)), reference)
        n_blocks = n_bits // config.extractor_m
        assert n_blocks > 2 * 8 and n_blocks % 8 and n_bits % 8
        assert (tmp_path / "out" / "extracted.bin").read_bytes() \
            == (reference / "extracted.bin").read_bytes()
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) \
            == ["extracted.bin", "extractor_seed.bin"]

    @pytest.mark.parametrize("command", ["extract", "all", "test"])
    def test_failed_extraction_leaves_no_output(self, tmp_path, monkeypatch,
                                                command):
        monkeypatch.setattr(toeplitz, "_CHUNK_BLOCKS", 8)
        kernel = toeplitz._hash
        calls = []

        def failing_hash(*args):
            calls.append(1)
            if len(calls) == 5:  # after some chunks have been written
                raise RuntimeError("injected")
            return kernel(*args)

        monkeypatch.setattr(toeplitz, "_hash", failing_hash)
        cfg = tmp_path / "odd.cfg"
        cfg.write_text(PipelineConfig(**ODD).to_text())
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="injected"):
            main([command, "--config", str(cfg), "--out", str(out)])
        assert len(calls) >= 5
        assert not (out / "extracted.bin").exists()
        assert not (out / "extracted.bin.part").exists()

    def test_test_hashes_only_the_blocks_its_suite_reads(self, tmp_path):
        # 2001 blocks of m = 100 hold the two sequences: the output ends
        # inside a byte, and the selection holds many more blocks
        config = PipelineConfig(**ODD_SUITE)
        cfg = tmp_path / "odd.cfg"
        cfg.write_text(config.to_text())
        whole, out = tmp_path / "whole", tmp_path / "out"
        assert main(["extract", "--config", str(cfg),
                     "--out", str(whole)]) == 0
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 0
        total = config.extractor_params().output_bits(
            select_centered(simulate_run(config)).size
            * config.adc_bits)
        length = config.sequence_length
        head = min(config.n_sequences, total // length) * length
        blocks = -(-head // config.extractor_m)
        assert blocks == 2_001 and 4 * blocks < total // config.extractor_m
        assert sorted(p.name for p in out.iterdir()) \
            == ["extracted.bin", "extractor_seed.bin", "verdict.json"]
        # exactly blocks * m bits, zero-padded, the front of `extract`'s
        bits = unpack_bits((out / "extracted.bin").read_bytes(),
                           blocks * config.extractor_m)
        assert np.array_equal(bits, unpack_bits(
            (whole / "extracted.bin").read_bytes(), total)[:bits.size])
        assert (out / "extractor_seed.bin").read_bytes() \
            == (whole / "extractor_seed.bin").read_bytes()

    def test_test_verdict_reproduced_from_its_bits(self, tmp_path, capsys):
        cfg = tmp_path / "odd.cfg"
        cfg.write_text(PipelineConfig(**ODD_SUITE).to_text())
        fresh, again = tmp_path / "fresh", tmp_path / "again"
        assert main(["test", "--config", str(cfg), "--out", str(fresh)]) == 0
        printed = capsys.readouterr().out
        assert main(["test", "--config", str(cfg), "--bits",
                     str(fresh / "extracted.bin"), "--out", str(again)]) == 0
        assert capsys.readouterr().out == printed
        assert (again / "verdict.json").read_bytes() \
            == (fresh / "verdict.json").read_bytes()

    def test_test_too_short_for_one_sequence_writes_nothing(self, tmp_path,
                                                            capsys):
        config = PipelineConfig(**dict(QUICK, sequence_length=2_000_000))
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(config.to_text())
        total = config.extractor_params().output_bits(
            select_centered(simulate_run(config)).size
            * config.adc_bits)
        assert 0 < total < config.sequence_length
        out = tmp_path / "out"
        out.mkdir()
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"data error: only {total} bits available" \
            in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="reads the peak RSS from /proc")
    @pytest.mark.parametrize("command", ["all", "test"])
    def test_run_memory_grows_by_the_lo_on_stream(self, command):
        # A fresh `all` or `test` holds each LO-on sample once (2 B,
        # int16): the selection compacts the run's own array and
        # extraction writes its output as it is hashed (`test` hashes
        # only the blocks its suite reads).  A copied selection or a
        # whole packed output each adds over 1 B per sample on this scale.
        # VmHWM, not ru_maxrss: a child's ru_maxrss can include the peak of
        # the test process that spawned it.
        code = ("import re, sys; from vacqrng.cli import main; "
                "assert main(sys.argv[1:]) == 0; print(re.search("
                "r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])")
        env = {**os.environ,
               "PYTHONPATH": str(Path(vacqrng.__file__).parents[1])}
        peak_kib = {}
        with tempfile.TemporaryDirectory() as tmp:
            for samples in (2_000_000, 6_000_000):
                proc = subprocess.run(
                    [sys.executable, "-c", code, command, "--seed", "7",
                     "--samples", str(samples), "--out", tmp],
                    env=env, capture_output=True, text=True, check=True)
                peak_kib[samples] = int(proc.stdout.split()[-1])
        per_sample = ((peak_kib[6_000_000] - peak_kib[2_000_000]) * 1024
                      / 4_000_000)
        assert per_sample < 3.25, per_sample

    def test_bits_file_counted_from_manifest(self, tmp_path, capsys):
        # m = 100 at n = 203 ends the packed output inside a byte; the
        # manifest's bit count keeps that padding out of the suite
        cfg = tmp_path / "odd.cfg"
        cfg.write_text(PipelineConfig(**ODD).to_text())
        run = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out", str(run)]) == 0
        entry = json.loads((run / "manifest.json").read_text()
                           )["artifacts"]["extracted"]
        n_bits, n_bytes = entry["bits"], entry["bytes"]
        assert n_bits % 8 and n_bytes == (n_bits + 7) // 8
        unpack_bits((run / "extracted.bin").read_bytes(), n_bits)

        # one sequence of data; a second only if the padding is counted
        suite = tmp_path / "suite.cfg"
        suite.write_text(f"sequence_length = {4 * n_bytes}\n"
                         "n_sequences = 5\n")

        def sequences(path, out):
            assert main(["test", "--config", str(suite), "--bits", str(path),
                         "--out", str(tmp_path / out)]) == 0
            return json.loads((tmp_path / out / "verdict.json").read_text()
                              )["n_sequences"]

        assert n_bits // (4 * n_bytes) == 1
        assert sequences(run / "extracted.bin", "in_run") == 1
        # without a manifest beside it, every bit of the bytes is data
        loose = tmp_path / "loose" / "extracted.bin"
        loose.parent.mkdir()
        loose.write_bytes((run / "extracted.bin").read_bytes())
        assert sequences(loose, "loose_out") == 2
        # a file the manifest does not describe is refused
        (run / "extracted.bin").write_bytes(loose.read_bytes()[:-1])
        assert main(["test", "--config", str(suite), "--bits",
                     str(run / "extracted.bin"),
                     "--out", str(tmp_path / "bad")]) == 3
        assert "data error" in capsys.readouterr().err

    def test_bits_file_read_in_bounded_memory(self, tmp_path, capsys):
        # the manifest check hashes in fixed-size reads and the suite
        # reads only its sequences' bytes: a 32 MiB file is never held
        size = 32 << 20
        path = tmp_path / "extracted.bin"
        with path.open("wb") as fh:
            fh.truncate(size)
        (tmp_path / "manifest.json").write_text(json.dumps({"artifacts": {
            "extracted": {"path": path.name, "bytes": size, "bits": 8 * size,
                          "sha256": hashlib.sha256(bytes(size)).hexdigest()}}}))
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("sequence_length = 1000\nn_sequences = 3\n")
        tracemalloc.start()
        try:
            assert main(["test", "--config", str(cfg), "--bits", str(path),
                         "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
        assert verdict["n_sequences"] == 3
        capsys.readouterr()

    @pytest.mark.parametrize("bits", [25, 16, 17, -1, "20", 20.0, True, None])
    def test_bits_file_manifest_count_checked(self, tmp_path, capsys, bits):
        # 3 bytes, the last padded above bit 4: only 20 bits fill them
        data = pack_bits(np.r_[np.ones(16), np.zeros(3), 1])
        path = tmp_path / "extracted.bin"
        path.write_bytes(data)
        entry = {"path": path.name, "bytes": len(data),
                 "sha256": hashlib.sha256(data).hexdigest()}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"artifacts": {"extracted": {
            **entry, "bits": 20}}}))
        assert pipeline.packed_bits(path) == 20

        # a count past the bytes, short of them, over set padding bits,
        # or not an int is refused
        manifest.write_text(json.dumps({"artifacts": {"extracted": {
            **entry, "bits": bits}}}))
        with pytest.raises(DataError, match="bits for extracted.bin"):
            pipeline.packed_bits(path)
        assert main(["test", "--bits", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert "data error" in capsys.readouterr().err

        # an entry whose sha256 is not the file's is a stale manifest
        manifest.write_text(json.dumps({"artifacts": {"extracted": {
            **entry, "sha256": "0" * 64, "bits": 20}}}))
        with pytest.raises(DataError, match="sha256"):
            pipeline.packed_bits(path)

    @pytest.mark.parametrize("command, loops", [
        ("simulate", ["on"]), ("extract", ["on"]), ("test", ["on"]),
        ("estimate", ["off", "on"]), ("all", ["off", "on"])])
    def test_loops_each_command_runs(self, tmp_path, monkeypatch, capsys,
                                     command, loops):
        # only `estimate` and `all` run the LO-off loop, and they run it
        # first (simulate_pair)
        loop = pipeline.run_closed_loop
        seen = []

        def recording_loop(*args, frozen=False, **kwargs):
            seen.append("off" if frozen else "on")
            return loop(*args, frozen=frozen, **kwargs)

        monkeypatch.setattr(pipeline, "run_closed_loop", recording_loop)
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(PipelineConfig(**QUICK).to_text())
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert seen == loops

    def test_estimate_budget_matches_all(self, tmp_path, capsys):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(PipelineConfig(**QUICK).to_text())
        assert main(["estimate", "--config", str(cfg),
                     "--out", str(tmp_path / "est")]) == 0
        printed = re.search(r"leftover-hash budget: (\d+) bits",
                            capsys.readouterr().out)
        assert main(["all", "--config", str(cfg),
                     "--out", str(tmp_path / "all")]) == 0
        entropy = json.loads((tmp_path / "all" / "entropy.json").read_text())
        assert int(printed.group(1)) == entropy["budget_bits_per_block"]

    def test_estimate_reads_whole_lo_off_run(self, tmp_path):
        # With the decision interval moved off the balance point, the
        # frozen LO-off run never reports a locked block; its samples are
        # the noise estimate all the same.
        cfg = tmp_path / "moved.cfg"
        cfg.write_text(PipelineConfig(**QUICK, interval_a=2_060_000,
                                      interval_b=2_070_000).to_text())
        assert main(["estimate", "--config", str(cfg),
                     "--out", str(tmp_path / "est")]) == 0
        assert main(["all", "--config", str(cfg),
                     "--out", str(tmp_path / "all")]) == 0
        est = json.loads((tmp_path / "est" / "entropy.json").read_text())
        full = json.loads((tmp_path / "all" / "entropy.json").read_text())
        assert est == {key: full[key] for key in est}

    def test_import_starts_no_thread(self):
        # Worker threads start only inside the loop and the extractor.
        code = ("import threading, vacqrng.cli; "
                "print(threading.active_count())")
        env = {**os.environ,
               "PYTHONPATH": str(Path(vacqrng.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "1"

    def test_paper_repro_command(self, tmp_path, capsys):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text("samples = 300000\nnoise_samples = 100000\n"
                       "dac_init = 5182\nsequence_length = 100000\n"
                       "n_sequences = 2\n")
        code = main(["paper-repro", "--config", str(cfg),
                     "--out", str(tmp_path / "repro")])
        assert code == 0
        out = capsys.readouterr().out
        assert "H_min (bits/sample)" in out
        assert "0.9805608" in out  # reference boundary column
        assert "locked-block fraction" in out
