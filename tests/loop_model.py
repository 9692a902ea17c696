"""Lock-in statistics of the closed loop, predicted from the configuration.

Test-side oracle for acceptance criterion 4.  It uses the optics model and
the converter specs only, never the controller or the pipeline, and it
reads nothing from a simulated run except in `judge_lock_in`, which holds
a run (a `LoopRun`) against the prediction.

The loop state that matters is r, the DAC code minus the balance code in
codes.  Each block the sum is Gaussian with mean N*(mid_code + v(r)/LSB)
and variance N*(sigma_v^2/LSB^2 + 1/12); a sum below A steps r by -c, a
sum above B by +c (the other way round for an inverted loop), a sum in
[A, B] holds.  The ambient phase drift moves the balance code, which adds
a Gaussian increment of drift_rate_std*sqrt(N/f_s) rad to r every block.
The chain runs on a grid of GRID_PER_STEP points per DAC step; without
drift it reduces to the chain on the lattice dac_init + k*c.

From that chain come the first-lock distribution (absorbing at the first
sum in [A, B]), the stationary distribution of the dither, and the
autocovariance sums that give the standard error of a mean over n blocks,
so that every bound `judge_lock_in` applies is fixed before the trace is
read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm, poisson

from vacqrng.optics import homodyne_curve
from tests.optics_reference import balance_phase

GRID_PER_STEP = 50
TAIL = 5e-7       # false-fail probability of each side of a two-sided check
Z_BOUND = 5.0     # standard errors allowed on a mean (two-sided 5.7e-7)
WINDOW_BLOCKS = 10_000   # blocks criterion 4 judges
NEGLIGIBLE = 1e-20  # probability mass the chain propagation drops


@dataclass(frozen=True)
class LockInPrediction:
    balance_code: float
    nominal_lock: int                  # ceil(|dac_init - b| / c)
    lock_window: tuple[int, int]       # first locked block, 1e-6 two-sided
    lock_code_window: tuple[float, float]
    in_interval: float                 # stationary fraction of [A, B] sums
    in_interval_asd: float             # asymptotic SD of one block's share
    sum_offset: float                  # stationary mean sum - N*mid_code
    sum_asd: float                     # asymptotic SD of one block's sum
    saturation_rate: float             # saturated blocks per block
    sigma_sum: float                   # block-sum noise at fixed phase


class LoopChain:
    """The dither chain of one configuration on a fine grid of r."""

    def __init__(self, config):
        params = config.device_params()
        adc = config.adc_spec()
        self.n, self.step = config.block_size_n, config.step_c
        self.lower, self.upper = config.interval_a, config.interval_b
        self.invert = config.invert_loop
        self.mid_sum = self.n * adc.mid_code
        self.rad_per_code = (math.pi * config.dac_v_range
                             / 2 ** config.dac_bits / params.v_pi)
        # homodyne_curve(params)(phi) = offset + amp * cos(phi)
        difference = homodyne_curve(params)
        d0, d_pi = difference(0.0), difference(math.pi)
        self.offset, self.amp = (d0 + d_pi) / 2, (d0 - d_pi) / 2
        # The stable balance is where a low sum's step raises the sum: the
        # sum falls with the code for the plain loop, rises for the inverted.
        phases = [balance_phase(params, mirrored=m) for m in (False, True)]
        self.phi_b = next(phi for phi in phases
                          if (self.amp * math.sin(phi) > 0) != self.invert)
        period = 2 * math.pi / self.rad_per_code
        self.balance_code = ((self.phi_b - config.delta_phi_ambient)
                             / self.rad_per_code) % period
        self.sigma_sample = math.hypot(
            config.chain_state(0).quantum_std(params.p_lo),
            config.sigma_e) / adc.lsb
        self.sigma_sum = math.sqrt(self.n * (self.sigma_sample ** 2 + 1 / 12))
        self.lsb, self.mid, self.max_code = adc.lsb, adc.mid_code, adc.max_code
        self.h = self.step / GRID_PER_STEP
        drift = (config.drift_rate_std * math.sqrt(self.n / adc.sample_rate)
                 / self.rad_per_code / self.h)
        half = math.ceil(8 * drift)
        kernel = np.exp(-0.5 * (np.arange(-half, half + 1) / drift) ** 2) \
            if drift > 0 else np.ones(1)
        self.kernel = kernel / kernel.sum()
        self.drift_codes = drift * self.h   # SD of the balance move per block

    def volts_lsb(self, r):
        """Noise-free detector output at offset r, in LSB."""
        return (self.offset + self.amp * np.cos(self.phi_b + r * self.rad_per_code)
                ) / self.lsb

    def _sum_edges(self, r):
        """E[sum] at offset r, and the interval edges in units of sigma_sum."""
        mean = self.n * (self.mid + self.volts_lsb(r))
        return (mean, (self.lower - 0.5 - mean) / self.sigma_sum,
                (self.upper + 0.5 - mean) / self.sigma_sum)

    def outcomes(self, r):
        """P(sum < A), P(A <= sum <= B), P(sum > B) and E[sum] at offset r."""
        mean, a, b = self._sum_edges(r)
        low, high = norm.cdf(a), norm.sf(b)
        return low, 1.0 - low - high, high, mean

    def partial_sums(self, r):
        """E[sum; sum < A], E[sum; A <= sum <= B], E[sum; sum > B] at r."""
        mean, a, b = self._sum_edges(r)
        low = mean * norm.cdf(a) - self.sigma_sum * norm.pdf(a)
        high = mean * norm.sf(b) + self.sigma_sum * norm.pdf(b)
        return low, mean - low - high, high

    def saturation(self, r):
        """P(a block holds a sample beyond the ADC rails) at offset r."""
        v = self.volts_lsb(r)
        below = norm.cdf((-self.mid - 0.5 - v) / self.sigma_sample)
        above = norm.sf((self.max_code - self.mid + 0.5 - v) / self.sigma_sample)
        return -np.expm1(self.n * np.log1p(-(below + above)))

    def move(self, low, hold, high):
        """Carry the mass of each outcome one block on: step, then drift."""
        down, up = (high, low) if self.invert else (low, high)
        k = GRID_PER_STEP
        out = hold.copy()
        out[:-k] += down[k:]
        out[k:] += up[:-k]
        return np.convolve(out, self.kernel, mode="same")

    def stationary_grid(self):
        """Grid of r wide enough that the dither never reaches its edges."""
        slope = abs(self.n * self.amp * math.sin(self.phi_b)
                    * self.rad_per_code / self.lsb)   # counts per code
        reach = ((self.upper - self.lower) / 2 + 12 * self.sigma_sum) / slope
        half = math.ceil(reach / self.step + 2) * GRID_PER_STEP
        return self.h * np.arange(-half, half + 1)

    def stationary(self, r):
        """Stationary distribution of the dither on grid r."""
        pi = np.exp(-0.5 * (r / self.step) ** 2)
        pi /= pi.sum()
        low, hold, high, _ = self.outcomes(r)
        for _ in range(100_000):
            nxt = self.move(pi * low, pi * hold, pi * high)
            nxt /= nxt.sum()
            done = np.abs(nxt - pi).sum() < 1e-13
            pi = nxt
            if done:
                return pi
        raise RuntimeError("dither chain did not settle")

    def asymptotic_variance(self, r, pi, parts, second_moment):
        """n * Var(mean of n blocks' h) for large n, where h is a per-block
        observable with E[h; outcome | r] = parts and E[h^2 | r] given."""
        low, hold, high, _ = self.outcomes(r)
        total = sum(parts)        # E[h | r]
        mean = float(pi @ total)
        centred = total - mean
        var = float(pi @ second_moment) - mean ** 2
        nu = self.move(pi * (parts[0] - mean * low), pi * (parts[1] - mean * hold),
                       pi * (parts[2] - mean * high))
        covariances = 0.0
        for _ in range(100_000):
            cov = float(nu @ centred)
            covariances += cov
            if abs(cov) < 1e-12 * var:
                return mean, var + 2 * covariances
            nu = self.move(nu * low, nu * hold, nu * high)
        raise RuntimeError("autocovariances did not decay")

    def first_lock(self, dac_init):
        """Probability that block t is the first locked one, for each t, and
        the mass that locks at each offset on the returned grid of r."""
        r0 = dac_init - self.balance_code
        margin = self.stationary_grid()[-1]
        j = np.arange(-math.ceil((max(r0, 0) + margin) / self.h),
                      math.ceil((max(-r0, 0) + margin) / self.h) + 1)
        r = r0 + self.h * j
        start = -j[0]             # index of r0
        low, hold, high, _ = self.outcomes(r)
        steps_down = high > low if self.invert else low > high
        if steps_down[start] != (r0 > 0):
            raise ValueError("acquisition crosses the DAC code wrap, which "
                             "this model does not cover")
        mass = np.zeros_like(r)
        mass[start] = 1.0
        pad = GRID_PER_STEP + self.kernel.size
        by_block, by_offset = [], np.zeros_like(r)
        while mass.sum() > NEGLIGIBLE:
            # propagate only where the mass lives: a few hundred codes
            live = np.flatnonzero(mass > NEGLIGIBLE * 1e-6)
            s = slice(max(live[0] - pad, 0), live[-1] + pad + 1)
            m = mass[s]
            by_offset[s] += m * hold[s]
            by_block.append(float(m @ hold[s]))
            mass = np.zeros_like(mass)
            mass[s] = self.move(m * low[s], np.zeros_like(m), m * high[s])
        return np.array(by_block), r, by_offset


def predict_lock_in(config) -> LockInPrediction:
    """Everything criterion 4 asserts, from the configuration alone."""
    chain = LoopChain(config)
    by_block, r, by_offset = chain.first_lock(config.dac_init)
    cdf = np.cumsum(by_block)
    lock_window = (int(np.searchsorted(cdf, TAIL, side="right")),
                   int(np.searchsorted(cdf, 1 - TAIL)))
    # The code at first lock is the balance code of that moment plus r.
    # Half the 1e-6 budget goes to the tails of r, half to the balance's
    # random-walk excursion over lock_window[1] blocks, bounded by the
    # reflection principle: P(max |W| > x) <= 4 * P(W > x).
    r_cdf = np.cumsum(by_offset) / by_offset.sum()
    excursion = (chain.drift_codes * math.sqrt(lock_window[1])
                 * norm.isf(TAIL / 4))
    code_window = (
        chain.balance_code + r[np.searchsorted(r_cdf, TAIL / 2)] - excursion,
        chain.balance_code + r[np.searchsorted(r_cdf, 1 - TAIL / 2)]
        + excursion)

    r = chain.stationary_grid()
    pi = chain.stationary(r)
    low, hold, high, mean = chain.outcomes(r)
    zeros = np.zeros_like(r)
    in_interval, var_in = chain.asymptotic_variance(
        r, pi, (zeros, hold, zeros), hold)
    sum_mean, var_sum = chain.asymptotic_variance(
        r, pi, chain.partial_sums(r), chain.sigma_sum ** 2 + mean ** 2)
    return LockInPrediction(
        balance_code=chain.balance_code,
        nominal_lock=math.ceil(abs(config.dac_init - chain.balance_code)
                               / config.step_c),
        lock_window=lock_window,
        lock_code_window=code_window,
        in_interval=in_interval, in_interval_asd=math.sqrt(var_in),
        sum_offset=sum_mean - chain.mid_sum, sum_asd=math.sqrt(var_sum),
        saturation_rate=float(pi @ chain.saturation(r)),
        sigma_sum=chain.sigma_sum)


@dataclass(frozen=True)
class LockInVerdict:
    failures: list[str]   # one line per failed check, tagged (a)-(d)
    detail: str           # predicted vs measured, for the report line
    prediction: LockInPrediction


def judge_lock_in(config, run) -> LockInVerdict:
    """Hold the first WINDOW_BLOCKS blocks of a run against the model.

    (a) the first lock falls in the predicted block window, at a DAC code
        near the balance code the configured loop sign makes stable;
    (b) after it, the mean block sum is within Z_BOUND standard errors of
        N*mid_code (the loop is unbiased on average);
    (c) the in-interval fraction is within Z_BOUND standard errors of the
        dither chain's stationary fraction;
    (d) the saturated-block count lies in the two-sided Poisson interval
        of the predicted rate.
    Under the model, (a) fails a correct loop with probability at most 2e-6
    (1e-6 for the block, 1e-6 for the code), (b) and (c) with 5.7e-7 each
    and (d) with at most 1e-6.
    """
    p = predict_lock_in(config)
    window = min(WINDOW_BLOCKS, len(run))
    locked = run.locked[:window]
    first = int(np.argmax(locked)) if locked.any() else None
    lo, hi = p.lock_window
    code_lo, code_hi = p.lock_code_window
    acquisition = (f"acquisition from dac_init={config.dac_init} to balance "
                   f"code {p.balance_code:.1f} at step {config.step_c}")
    if first is None:
        return LockInVerdict(
            [f"(a) {acquisition}: no lock in {window} blocks, predicted "
             f"first lock in [{lo}, {hi}]"], "no lock", p)
    failures = []
    code = int(run.dac_before[first])
    if not lo <= first <= hi:
        failures.append(f"(a) {acquisition}: first lock at block {first}, "
                        f"predicted in [{lo}, {hi}]")
    if not code_lo <= code <= code_hi:
        failures.append(f"(a) {acquisition}: first lock at code {code}, "
                        f"predicted in [{code_lo:.0f}, {code_hi:.0f}]")
    after = slice(first + 1, window)
    sums = run.sums[after]
    n = sums.size
    if n == 0:
        failures.append("(b)-(d) no blocks after the first lock")
        return LockInVerdict(failures, f"first lock at block {first}", p)
    mid_sum = config.block_size_n * config.adc_spec().mid_code
    offset = float(sums.mean()) - mid_sum
    sum_se = p.sum_asd / math.sqrt(n)
    if abs(offset) > Z_BOUND * sum_se:
        failures.append(f"(b) mean block sum is N*mid_code{offset:+.0f}, "
                        f"beyond {Z_BOUND:g} x {sum_se:.0f}")
    in_interval = float(np.mean((sums >= config.interval_a)
                                & (sums <= config.interval_b)))
    in_se = p.in_interval_asd / math.sqrt(n)
    if abs(in_interval - p.in_interval) > Z_BOUND * in_se:
        failures.append(f"(c) in-interval fraction {in_interval:.4f}, "
                        f"predicted {p.in_interval:.4f} +/- {Z_BOUND:g} x "
                        f"{in_se:.4f}")
    saturated = int(run.saturated[after].sum())
    rate = n * p.saturation_rate
    sat_lo, sat_hi = int(poisson.ppf(TAIL, rate)), int(poisson.isf(TAIL, rate))
    if not sat_lo <= saturated <= sat_hi:
        failures.append(f"(d) {saturated} saturated blocks, predicted "
                        f"[{sat_lo}, {sat_hi}] (mean {rate:.1f})")
    detail = (f"first lock {first} in [{lo}, {hi}] (nominal {p.nominal_lock}) "
              f"at code {code} in [{code_lo:.0f}, {code_hi:.0f}]; after it, "
              f"over {n} blocks: mean sum N*mid{offset:+.0f} vs "
              f"{p.sum_offset:+.0f} (SE {sum_se:.0f}), "
              f"in-interval {in_interval:.4f} vs {p.in_interval:.4f} "
              f"(SE {in_se:.4f}), {saturated} saturated in "
              f"[{sat_lo}, {sat_hi}] (mean {rate:.1f})")
    return LockInVerdict(failures, detail, p)
