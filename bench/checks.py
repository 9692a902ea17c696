"""Output checks of the benchmark, run outside the timed interval.

Each check returns a list of failure messages (empty when it passes).  The
re-derivations here read the artifacts the commands wrote and apply the
documented formats independently of the program's own pipeline code; only
the dense extractor oracle is taken from the program.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

WARMUP_BLOCKS = 500      # acceptance criterion 4: warm-up before the tail
WINDOW_BLOCKS = 10_000   # acceptance criterion 4: blocks judged


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_trace(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(locked, saturated) per block from a trace.jsonl block trace."""
    locked, saturated = [], []
    with open(path) as fh:
        next(fh)  # provenance header
        for line in fh:
            record = json.loads(line)
            locked.append(record["locked"])
            saturated.append(record["saturated"])
    return np.array(locked, dtype=bool), np.array(saturated, dtype=bool)


def loop_numbers(trace_path: Path) -> dict[str, float | int | None]:
    """Acceptance criterion 4's three numbers, as that criterion defines
    them: first locked block within the window, then locked fraction and
    saturated blocks after the warm-up.  A run no longer than the warm-up
    is judged over all its blocks instead."""
    locked, saturated = read_trace(trace_path)
    window = slice(0, WINDOW_BLOCKS)
    first = int(np.argmax(locked[window])) if locked[window].any() else None
    tail = slice(WARMUP_BLOCKS if locked.size > WARMUP_BLOCKS else 0,
                 WINDOW_BLOCKS)
    return {
        "controller.first_locked_block": first,
        "controller.locked_fraction": float(locked[tail].mean())
        if locked[tail].size else 0.0,
        "controller.saturated_blocks": int(saturated[tail].sum()),
    }


def verify_manifest(out_dir: Path) -> list[str]:
    """Re-hash every artifact manifest.json lists."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    errors = []
    for name, entry in manifest["artifacts"].items():
        path = out_dir / entry["path"]
        if not path.is_file():
            errors.append(f"{out_dir.name}: manifest lists missing {name}")
        elif (path.stat().st_size != entry["bytes"]
              or sha256_file(path) != entry["sha256"]):
            errors.append(f"{out_dir.name}: {name} does not match manifest")
    return errors


def selected_samples(out_dir: Path, block_n: int) -> np.ndarray:
    """Centered samples feeding the extractor: from the first locked block
    on, saturated blocks excluded (the default `discard_unlocked = false`)."""
    centered = np.fromfile(out_dir / "centered.i16", dtype="<i2")
    locked, saturated = read_trace(out_dir / "trace.jsonl")
    keep = ~saturated
    keep[:int(np.argmax(locked)) if locked.any() else keep.size] = False
    return centered.reshape(-1, block_n)[keep].reshape(-1)


def _block_bits(samples: np.ndarray, k: int, n: int, b: int) -> np.ndarray:
    """Input block k: low b bits of each sample, LSB first, in time order."""
    s0, s1 = k * n // b, -(-(k + 1) * n // b)
    chunk = samples[s0:s1].astype(np.int64)
    bits = ((chunk[:, None] >> np.arange(b)) & 1).astype(np.uint8).reshape(-1)
    offset = k * n - s0 * b
    return bits[offset:offset + n]


def rederive_blocks(out_dir: Path, block_n: int, adc_bits: int, m: int, n: int,
                    picks: int, rng: np.random.Generator) -> list[str]:
    """Re-derive a sample of extracted.bin blocks with the dense oracle."""
    from vacqrng.toeplitz import (ExtractorParams, ToeplitzSeed,
                                  extract_block_dense)

    params = ExtractorParams(m=m, n=n)
    samples = selected_samples(out_dir, block_n)
    n_blocks = samples.size * adc_bits // n
    extracted = np.unpackbits(np.fromfile(out_dir / "extracted.bin",
                                          dtype=np.uint8), bitorder="little")
    if extracted.size != n_blocks * m:
        return [f"{out_dir.name}: extracted.bin holds {extracted.size} bits, "
                f"expected {n_blocks} blocks x {m}"]
    seed_bits = np.unpackbits(np.fromfile(out_dir / "extractor_seed.bin",
                                          dtype=np.uint8),
                              bitorder="little")[:m + n - 1]
    seed = ToeplitzSeed(bits=seed_bits)
    chosen = {0, n_blocks - 1, *rng.integers(0, n_blocks, max(0, picks - 2))}
    errors = []
    for k in sorted(chosen):
        want = extract_block_dense(_block_bits(samples, int(k), n, adc_bits),
                                   seed, params)
        if not np.array_equal(want, extracted[k * m:(k + 1) * m]):
            errors.append(f"{out_dir.name}: block {k} differs from the "
                          f"dense oracle")
    return errors


def h_min_tolerance(sigma_m_sq: float, sigma_e_sq: float, n_on: int,
                    n_off: int, block_n: int) -> float:
    """Allowed |h_min - expected_h_min()| for the given sample counts.

    Six standard errors of h = 0.5*log2(2*pi*(s_m^2 - s_e^2)) under
    Gaussian sampling (Var(s^2) = 2*sigma^4/(n-1)), plus the known bias
    of per-block centering, which scales both variances by 1 - 1/N.
    """
    var_q = 2 * sigma_m_sq ** 2 / (n_on - 1) + 2 * sigma_e_sq ** 2 / (n_off - 1)
    std_h = math.sqrt(var_q) / (sigma_m_sq - sigma_e_sq) / (2 * math.log(2))
    return 6 * std_h + abs(0.5 * math.log2(1 - 1 / block_n))


def check_entropy(out_dir: Path, expected_h: float, n_off: int,
                  block_n: int) -> list[str]:
    report = json.loads((out_dir / "entropy.json").read_text())
    tol = h_min_tolerance(report["sigma_m_sq"], report["sigma_e_sq"],
                          report["sample_count"], n_off, block_n)
    h = report["h_min_per_sample"]
    if abs(h - expected_h) > tol:
        return [f"{out_dir.name}: h_min {h:.5f} is {abs(h - expected_h):.5f} "
                f"from expected {expected_h:.5f} (tolerance {tol:.5f})"]
    return []
