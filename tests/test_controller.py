"""Feedback controller: DAC phase, decisions, centering, the closed loop."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vacqrng import controller
from vacqrng.config import PipelineConfig
from vacqrng.controller import (CHUNK_BLOCKS, ControllerConfig, LoopRun,
                                center_codes, dac_to_phase, decide,
                                run_closed_loop)
from vacqrng.errors import ParameterError
from vacqrng.optics import DeviceParams, homodyne_curve
from vacqrng.signal_chain import AdcSpec, SignalChainState, block_noise_width
from tests.loop_reference import as_loop_run, process_block, run_per_block
from tests.optics_reference import balance_phase
from tests.test_optics import symmetric_params

CFG = ControllerConfig()


def oracle_decide(sum_value: int, cfg: ControllerConfig, dac: int) -> int:
    """Straight-line reimplementation of the decision rules, kept
    deliberately dumb and independent of the production code path."""
    n = cfg.dac_bits_n
    c = cfg.step_c
    if sum_value < cfg.interval_a:
        if dac < c:
            return 2 ** n - c
        return dac - c
    if sum_value > cfg.interval_b:
        if dac > 2 ** n - c:
            return c
        return (dac + c) % 2 ** n  # n-bit register addition
    return dac


class TestDacToPhase:
    def test_zero_code(self):
        assert dac_to_phase(0, CFG, 1.240) == 0.0

    def test_half_scale_is_pi(self):
        # 8192/16384 * 2.480 V = 1.240 V = v_pi
        assert dac_to_phase(8192, CFG, 1.240) == pytest.approx(math.pi)

    def test_three_quarter_scale(self):
        assert dac_to_phase(12288, CFG, 1.240) == pytest.approx(
            3 * math.pi / 2)

    def test_out_of_range_code(self):
        with pytest.raises(ParameterError):
            dac_to_phase(16384, CFG, 1.240)
        with pytest.raises(ParameterError):
            dac_to_phase(-1, CFG, 1.240)


class TestDecide:
    def test_sum_inside_interval_locks(self):
        assert decide(2048000, CFG, CFG.dac_init) == (8092, True)

    def test_sum_below_interval_steps_down(self):
        assert decide(2000000, CFG, CFG.dac_init) == (8087, False)

    def test_sum_above_interval_steps_up(self):
        assert decide(2060000, CFG, CFG.dac_init) == (8097, False)

    def test_wraparound_below_step(self):
        assert decide(2000000, CFG, 3)[0] == 2 ** 14 - 5  # 16379

    def test_wraparound_above_complement(self):
        assert decide(2060000, CFG, 16382)[0] == 5

    def test_boundary_codes_take_plain_step(self):
        # codes exactly c and 2^n - c are not special-cased; the register
        # wraps modulo 2^n where the plain step would overflow
        assert decide(2000000, CFG, 5)[0] == 0
        assert decide(2060000, CFG, 16379)[0] == 0

    def test_pure_function(self):
        outs = {decide(1999999, CFG, 123) for _ in range(5)}
        assert outs == {(118, False)}

    def test_invert_loop_flips_directions(self):
        cfg = replace(CFG, invert_loop=True)
        assert decide(2000000, cfg, cfg.dac_init)[0] == 8097
        assert decide(2060000, cfg, cfg.dac_init)[0] == 8087

    def test_boundary_lattice_in_range_and_matches_oracle(self):
        c, n = CFG.step_c, CFG.dac_bits_n
        lattice = list(range(0, 2 * c + 1)) \
            + list(range(2 ** n - 2 * c, 2 ** n))
        sums = [CFG.interval_a - 1, CFG.interval_a,
                CFG.interval_b, CFG.interval_b + 1]
        for dac in lattice:
            for s in sums:
                new = decide(s, CFG, dac)[0]
                assert 0 <= new < 2 ** n
                assert new == oracle_decide(s, CFG, dac)

    def test_random_states_match_oracle(self):
        rng = np.random.default_rng(77)
        dacs = rng.integers(0, 2 ** 14, size=100_000)
        sums = rng.integers(0, 4095 * 1000, size=100_000)
        for dac, s in zip(dacs, sums):
            got, _ = decide(int(s), CFG, int(dac))
            assert got == oracle_decide(int(s), CFG, int(dac))


class TestProcessBlock:
    def test_mid_code_block_locks_with_zero_centered(self):
        codes = np.full(1000, 2048, dtype=np.int64)
        block, _, locked = process_block(codes, CFG, CFG.dac_init)
        assert block.sum == 2048000
        assert locked
        assert np.all(block.centered == 0)

    def test_alternating_codes_center_symmetrically(self):
        codes = np.tile([2047, 2049], 500).astype(np.int64)
        block, _, _ = process_block(codes, CFG, CFG.dac_init)
        assert block.sum == 2048000
        # half-LSB units: one LSB away from the mean is two units
        assert np.array_equal(block.centered, np.tile([-2, 2], 500))
        assert block.centered.sum() == 0

    def test_biased_block_steps_controller(self):
        rng = np.random.default_rng(123)
        codes = np.rint(rng.normal(2053, 10, size=1000)).astype(np.int64)
        assert codes.sum() > CFG.interval_b  # mean 2053 over 1000 samples
        block, dac, _ = process_block(codes, CFG, CFG.dac_init)
        assert dac == 8097
        assert dac == oracle_decide(block.sum, CFG, 8092)

    def test_wrong_length_rejected(self):
        with pytest.raises(ParameterError):
            process_block(np.zeros(999, dtype=np.int64), CFG, CFG.dac_init)

    def test_centered_sum_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            codes = rng.integers(0, 4096, size=1000)
            block, _, _ = process_block(codes, CFG, CFG.dac_init)
            assert abs(int(block.centered.sum())) <= 500
            # consistency of the half-LSB representation
            doubled_mean = int(np.rint(2 * block.sum / 1000))
            assert np.array_equal(block.centered,
                                  2 * codes - doubled_mean)

    def test_exact_half_mean_is_exact(self):
        codes = np.concatenate([np.full(500, 2048), np.full(500, 2049)])
        block, _, _ = process_block(codes, CFG, CFG.dac_init)
        # mean 2048.5 is representable in half-LSB: residual sum is 0
        assert block.centered.sum() == 0
        assert set(np.unique(block.centered)) == {-1, 1}


class TestCenterCodes:
    def test_overflow_guard(self):
        # 2 * max_code of a 15-bit ADC leaves int16: refused at the spec
        with pytest.raises(ParameterError, match="14"):
            AdcSpec(bits=15)
        # a 14-bit ADC's extreme blocks center within int16, exactly
        top = AdcSpec(bits=14).max_code
        codes = np.array([[0] * 999 + [top], [top] * 999 + [0],
                          [0] * 1000, [top] * 1000], dtype=np.uint16)
        sums = codes.sum(axis=1, dtype=np.int64)
        want = (2 * codes.astype(np.int64)
                - np.rint(2.0 * sums / 1000).astype(np.int64)[:, None])
        assert want.min() == -32733 and want.max() == 32733
        got = center_codes(codes, sums)
        assert got.dtype == np.int16
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bits", [4, 14])
    @pytest.mark.parametrize("n", [1000, 7])
    def test_codes_round_trip(self, bits, n):
        # codes -> center_codes -> LoopRun.codes, through the one doubled
        # mean rule: railed (saturated) blocks, one sample off either rail,
        # half-way means and random blocks over the full range
        top = AdcSpec(bits=bits).max_code
        rng = np.random.default_rng(bits)
        rows = [[0] * n, [top] * n, [0] * (n - 1) + [top],
                [top] * (n - 1) + [0], ([0, top] * n)[:n],
                [top // 2] * (n // 2) + [top // 2 + 1] * (n - n // 2),
                *rng.integers(0, top + 1, size=(8, n)).tolist()]
        codes = np.array(rows, dtype=np.uint16)
        sums = codes.sum(axis=1, dtype=np.int64)
        flags = np.zeros(len(rows), dtype=bool)
        run = LoopRun(centered=center_codes(codes, sums), sums=sums,
                      dac_before=sums, dac_after=sums, locked=flags,
                      saturated=flags)
        assert run.codes.dtype == np.uint16
        assert np.array_equal(run.codes, codes)


class TestClosedLoop:
    def test_run_holds_two_bytes_per_sample(self):
        # numpy reports its buffers to tracemalloc: beyond the int16
        # centered samples, a run holds only its fixed chunk buffers (two
        # noise fills, the raw and clipped voltages) and ~1 MB of chunk
        # temporaries and per-block lists, whatever its length
        config = PipelineConfig(dac_init=5182)
        n_blocks, n = 2000, config.block_size_n
        buffers = 8 * CHUNK_BLOCKS * (2 * block_noise_width(n) + 2 * n)
        chain = config.chain_state(3)
        tracemalloc.start()
        try:
            run_closed_loop(config.device_params(), chain,
                            config.controller_config(), n_blocks,
                            config.adc_spec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n_blocks * n + buffers + 2_000_000, peak

    def test_noiseless_symmetric_device_locks_immediately(self):
        chain = SignalChainState(sigma_vac=0.0, sigma_e=0.0,
                                 drift_rate_std=0.0, rng_seed=1)
        run = run_closed_loop(symmetric_params(), chain, CFG, 50, AdcSpec())
        assert run.locked.all()
        assert np.all(run.dac_after == CFG.dac_init)
        assert np.all(run.sums == 2048000)
        assert not run.saturated.any()

    def test_acquisition_reaches_interval_and_holds(self):
        # low-noise configuration so the hold behavior is observable
        chain = SignalChainState(sigma_vac=0.002, sigma_e=0.0005,
                                 drift_rate_std=0.0, rng_seed=21)
        run = run_closed_loop(DeviceParams(), chain, CFG, 800, AdcSpec())
        first = run.first_locked()
        assert first < 700
        assert np.mean(run.locked[first:]) > 0.99

    def test_acquisition_settles_at_balance_phase(self):
        chain = SignalChainState(sigma_vac=0.002, sigma_e=0.0005,
                                 drift_rate_std=0.0, rng_seed=22)
        params = DeviceParams()
        run = run_closed_loop(params, chain, CFG, 800, AdcSpec())
        dac = int(run.dac_after[-1])
        phase = math.pi * dac * 2.480 / (2 ** 14 * 1.240)
        assert phase == pytest.approx(balance_phase(params), abs=0.01)

    def test_step_response_recovers_within_step_budget(self):
        # 0.3 rad ambient step needs about 0.3 / (2*pi*c/2^14) ~ 157 blocks
        chain = SignalChainState(sigma_vac=0.002, sigma_e=0.0005,
                                 drift_rate_std=0.0, rng_seed=23)
        params = DeviceParams()
        run = run_closed_loop(params, chain, CFG, 800, AdcSpec())
        assert run.locked[-1]
        settled = int(run.dac_after[-1])
        chain.delta_phi_ambient += 0.3
        run2 = run_closed_loop(params, chain, replace(CFG, dac_init=settled),
                               400, AdcSpec())
        phase_per_step = 2 * math.pi * CFG.step_c / 2 ** CFG.dac_bits_n
        budget = math.ceil(0.3 / phase_per_step) + 40
        relock = run2.first_locked()
        assert relock is not None and relock <= budget

    def test_corrective_direction_is_negative_feedback(self):
        # near the operating point, raising dac_data must lower the
        # expected SUM, making "SUM > B -> increase dac" corrective
        params = DeviceParams()
        dac_grid = range(5100, 5260, 5)
        difference = homodyne_curve(params)
        means = []
        for dac in dac_grid:
            phase = math.pi * dac * 2.480 / (2 ** 14 * 1.240)
            volts = difference(phase)
            means.append(2048 + volts * 4096)
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_one_block_actuation_latency(self):
        # dac_before of block k+1 equals dac_after of block k
        chain = SignalChainState(rng_seed=31)
        run = run_closed_loop(DeviceParams(), chain, CFG, 100, AdcSpec())
        assert np.array_equal(run.dac_before[1:], run.dac_after[:-1])

    def test_frozen_loop_for_noise_runs(self):
        chain = SignalChainState(rng_seed=32)
        params = replace(DeviceParams(), p_lo=0.0)
        run = run_closed_loop(params, chain, CFG, 100, AdcSpec(), frozen=True)
        assert np.all(run.dac_after == CFG.dac_init)


RUN_FIELDS = ("centered", "sums", "dac_before", "dac_after", "locked",
              "saturated")


def _loop_pair(config: PipelineConfig, n_blocks: int, lo_off: bool = False):
    """Run the array loop and the per-block oracle on twin chains."""
    seed = config.stream_seeds()["lo_off" if lo_off else "lo_on"]
    params = config.device_params()
    if lo_off:
        params = replace(params, p_lo=0.0)
    chains = [config.chain_state(seed) for _ in range(2)]
    cfg, adc = config.controller_config(), config.adc_spec()
    run = run_closed_loop(params, chains[0], cfg, n_blocks, adc, frozen=lo_off)
    blocks, trace = run_per_block(params, chains[1], cfg, n_blocks, adc,
                                  frozen=lo_off)
    return (run, *as_loop_run(blocks, trace, cfg.block_size_n), chains)


def _assert_same_run(run, ref, ref_codes, chains):
    for name in RUN_FIELDS:
        got, want = getattr(run, name), getattr(ref, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    # the rebuilt codes against the per-block loop's own, not against
    # codes rebuilt from the oracle's centered samples and sums
    assert run.codes.shape == ref_codes.shape
    assert np.array_equal(run.codes, ref_codes)
    assert run.codes.dtype == np.uint16 and run.centered.dtype == np.int16
    assert chains[0].delta_phi_ambient == chains[1].delta_phi_ambient
    # both chains stand at the same point of their streams
    assert np.array_equal(chains[0]._rng.standard_normal(3),
                          chains[1]._rng.standard_normal(3))


class TestArrayLoopMatchesPerBlockOracle:
    """The chunked, prefetched loop reproduces the per-block loop exactly."""

    def test_default_lo_on_acquisition(self):
        # from dac_init 8092: acquisition with railed (saturated) blocks,
        # then the first locks around block 580
        run, ref, ref_codes, chains = _loop_pair(PipelineConfig(), 700)
        assert ref.saturated.any() and ref.locked.any()
        _assert_same_run(run, ref, ref_codes, chains)

    def test_frozen_lo_off(self):
        _assert_same_run(*_loop_pair(PipelineConfig(), 150, lo_off=True))

    def test_invert_loop(self):
        config = PipelineConfig(invert_loop=True, dac_init=5182)
        run, ref, ref_codes, chains = _loop_pair(config, 200)
        assert len(set(ref.dac_after.tolist())) > 1
        _assert_same_run(run, ref, ref_codes, chains)

    @pytest.mark.parametrize("n_blocks", [1, CHUNK_BLOCKS - 1, CHUNK_BLOCKS,
                                          CHUNK_BLOCKS + 1,
                                          3 * CHUNK_BLOCKS + 17])
    def test_chunk_edges(self, n_blocks):
        config = PipelineConfig(dac_init=5182)
        _assert_same_run(*_loop_pair(config, n_blocks))

    def test_zero_blocks(self):
        run, ref, ref_codes, chains = _loop_pair(PipelineConfig(), 0)
        assert len(run) == 0 and run.codes.shape == (0, 1000)
        _assert_same_run(run, ref, ref_codes, chains)

    def test_continued_run_on_same_chain(self):
        config = PipelineConfig()
        first, *ref_first, chains = _loop_pair(config, 90)
        _assert_same_run(first, *ref_first, chains)
        # the second run starts where the first one left the DAC
        cfg = replace(config.controller_config(),
                      dac_init=int(first.dac_after[-1]))
        run = run_closed_loop(config.device_params(), chains[0], cfg, 100,
                              config.adc_spec())
        blocks, trace = run_per_block(config.device_params(), chains[1], cfg,
                                      100, config.adc_spec())
        _assert_same_run(run, *as_loop_run(blocks, trace, 1000), chains)

    def test_concurrent_runs_under_fast_thread_switching(self):
        # four loops (each with its own draw worker) on one process, with
        # the interpreter switching threads every microsecond: a chunk read
        # before its draw finished, or a buffer drawn into while in use,
        # would break equality with the oracle
        config = PipelineConfig(dac_init=5182)
        cfg, params = config.controller_config(), config.device_params()
        seeds = [101, 102, 103, 104]
        n_blocks = 3 * CHUNK_BLOCKS + 5
        runs = {}

        def work(seed):
            runs[seed] = run_closed_loop(params, config.chain_state(seed), cfg,
                                         n_blocks, config.adc_spec())

        threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for seed in seeds:
            blocks, trace = run_per_block(params, config.chain_state(seed),
                                          cfg, n_blocks, config.adc_spec())
            ref, ref_codes = as_loop_run(blocks, trace, cfg.block_size_n)
            for name in RUN_FIELDS:
                assert np.array_equal(getattr(runs[seed], name),
                                      getattr(ref, name)), (seed, name)
            assert np.array_equal(runs[seed].codes, ref_codes), seed

    def test_centering_overflow_raises_without_hanging(self, monkeypatch):
        # a 14-bit ADC cannot overflow int16, so the centering error is
        # injected: it is raised in the first chunk, while the worker is
        # drawing the next one, and must propagate and leave no thread
        def overflow(codes, sums):
            raise ParameterError("centered values overflow")

        monkeypatch.setattr(controller, "center_codes", overflow)
        config = PipelineConfig(dac_init=5182)
        threads = threading.active_count()
        with pytest.raises(ParameterError, match="overflow"):
            run_closed_loop(config.device_params(), config.chain_state(1),
                            config.controller_config(), 4 * CHUNK_BLOCKS,
                            config.adc_spec())
        assert threading.active_count() == threads


class TestConfigValidation:
    def test_interval_order(self):
        with pytest.raises(ParameterError):
            ControllerConfig(interval_a=10, interval_b=5)

    def test_step_range(self):
        with pytest.raises(ParameterError):
            ControllerConfig(step_c=0)
        with pytest.raises(ParameterError):
            ControllerConfig(step_c=2 ** 14)

    def test_dac_init_range(self):
        with pytest.raises(ParameterError):
            ControllerConfig(dac_init=2 ** 14)

    def test_dac_width_and_range(self):
        # the width is checked before the code ranges that are powers of it
        with pytest.raises(ParameterError, match="DAC bits must be in"):
            ControllerConfig(dac_bits_n=3)
        with pytest.raises(ParameterError, match="DAC bits must be in"):
            ControllerConfig(dac_bits_n=10 ** 9)
        with pytest.raises(ParameterError, match="v_range"):
            ControllerConfig(dac_v_range=0.0)

    def test_block_needs_two_samples(self):
        # a one-sample block centers to 0
        with pytest.raises(ParameterError, match="block_size_n must be >= 2"):
            ControllerConfig(block_size_n=1)
        ControllerConfig(block_size_n=2)
