"""End-to-end orchestration: simulate, center, estimate, extract, test.

A run executes a frozen LO-off noise run and the LO-on closed-loop
simulation, estimates conditional min-entropy from the two centered streams,
Toeplitz-extracts the LO-on stream, and judges the output with the
statistical suite.  All artifacts are deterministic functions of the
config (a fixed master seed reproduces byte-identical outputs) and carry
the config hash and seed for provenance: JSON artifacts embed them, raw
binary streams stay headerless and are indexed by manifest.json.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .controller import LoopRun, run_closed_loop
from .entropy import EntropyReport, block_budget, build_report
from .errors import DataError, NoExtractableEntropyError
from .stattests import SuiteVerdict, pass_proportion_interval, run_suite
from .toeplitz import generate_test_seed, load_seed, save_seed, write_stream

# Headline figures of the reference hardware experiment this simulator
# models; `paper-repro` prints measured values against them.
REFERENCE = {
    "sigma_m_sq": 1.86e5,
    "sigma_e_sq": 166.09,
    "h_min_bits": 10.08,
    "bits_per_raw_bit": 0.84,
    "extractor_m": 1920,
    "extractor_n": 2400,
    "epsilon_log2": 48,
    "proportion_lo_n1000": 0.9805608,
    "raw_rate_mbps": 640.0,
}


@dataclass
class LoopSummary:
    """Lock/saturation statistics of a closed-loop trace."""

    n_blocks: int
    first_locked_block: int | None
    locked_fraction: float
    locked_fraction_after_warmup: float
    warmup_blocks: int
    saturated_blocks: int

    @classmethod
    def from_run(cls, run: LoopRun,
                 warmup_blocks: int = 500) -> "LoopSummary":
        tail = run.locked[warmup_blocks:]
        return cls(
            n_blocks=len(run),
            first_locked_block=run.first_locked(),
            locked_fraction=float(run.locked.mean()) if len(run) else 0.0,
            locked_fraction_after_warmup=float(tail.mean()) if tail.size else 0.0,
            warmup_blocks=warmup_blocks,
            saturated_blocks=int(run.saturated.sum()),
        )


@dataclass
class RunResult:
    config: PipelineConfig
    loop: LoopSummary
    entropy: EntropyReport | None
    budget_bits: int | None
    verdict: SuiteVerdict | None
    extracted_bits: int
    extract_seconds: float
    status: str

    def summary_text(self) -> str:
        cfg = self.config
        lines = [
            f"run status: {self.status}",
            f"config hash: {cfg.config_hash()}   master seed: {cfg.master_seed}",
            f"closed loop: {self.loop.n_blocks} blocks, locked fraction "
            f"{self.loop.locked_fraction:.4f} "
            f"({self.loop.locked_fraction_after_warmup:.4f} after "
            f"{self.loop.warmup_blocks}-block warmup), "
            f"{self.loop.saturated_blocks} saturated blocks",
        ]
        if self.entropy is not None:
            e = self.entropy
            lines += [
                f"sigma_M^2 = {e.sigma_m_sq:.2f} counts^2   "
                f"(reference {REFERENCE['sigma_m_sq']:.0f})",
                f"sigma_E^2 = {e.sigma_e_sq:.2f} counts^2   "
                f"(reference {REFERENCE['sigma_e_sq']:.2f})",
                f"H_min = {e.h_min_per_sample:.4f} bits/sample   "
                f"(reference {REFERENCE['h_min_bits']:.2f})",
                f"bits per raw bit = {e.bits_per_raw_bit:.4f}",
            ]
        if self.budget_bits is not None:
            lines.append(
                f"leftover-hash budget: {self.budget_bits} bits/block for "
                f"m = {cfg.extractor_m}")
        if self.extracted_bits:
            lines.append(f"extracted {self.extracted_bits} bits")
        if self.verdict is not None:
            lines.append("")
            lines.append(self.verdict.table())
            lines.append(
                f"N=1000 proportion lower bound: "
                f"{pass_proportion_interval(cfg.beta, 1000)[0]:.7f}   "
                f"(reference {REFERENCE['proportion_lo_n1000']})")
        return "\n".join(lines)


def _provenance(config: PipelineConfig) -> dict:
    return {"config_hash": config.config_hash(),
            "master_seed": config.master_seed}


def write_json(path: Path, payload: dict) -> str:
    """Write a JSON artifact, keys sorted and indented by 2, with a
    trailing newline; returns the text written."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    path.write_text(text)
    return text


def _write_with_provenance(path: Path, payload: dict,
                           config: PipelineConfig) -> None:
    """write_json with the config's provenance."""
    write_json(path, {**_provenance(config), **payload})


def write_streams(out: Path, run: LoopRun,
                  config: PipelineConfig) -> dict[str, Path]:
    """Write trace.jsonl (a provenance header line, then one JSON object
    per block with sorted keys dac_after, dac_before, index, locked,
    saturated, sum), centered.i16 and, if `write_raw`, raw_codes.u16.
    Returns the written paths by artifact name."""
    paths = {"trace": out / "trace.jsonl", "centered": out / "centered.i16"}
    flag = {False: "false", True: "true"}
    with paths["trace"].open("w") as fh:
        fh.write(json.dumps({"kind": "block-trace", **_provenance(config)},
                            sort_keys=True) + "\n")
        fh.writelines(
            f'{{"dac_after": {after}, "dac_before": {before}, "index": {i}, '
            f'"locked": {flag[lock]}, "saturated": {flag[sat]}, '
            f'"sum": {total}}}\n'
            for i, (after, before, lock, sat, total) in enumerate(zip(
                run.dac_after.tolist(), run.dac_before.tolist(),
                run.locked.tolist(), run.saturated.tolist(),
                run.sums.tolist())))
    run.centered.astype("<i2", copy=False).tofile(paths["centered"])
    if config.write_raw:
        paths["raw_codes"] = out / "raw_codes.u16"
        run.codes.astype("<u2", copy=False).tofile(paths["raw_codes"])
    return paths


def simulate_run(config: PipelineConfig, lo_off: bool = False) -> LoopRun:
    """One closed-loop (or frozen noise-only) simulation per the config."""
    seeds = config.stream_seeds()
    params = config.device_params()
    if lo_off:
        params = dataclasses.replace(params, p_lo=0.0)
        chain = config.chain_state(seeds["lo_off"])
        total = config.noise_samples
    else:
        chain = config.chain_state(seeds["lo_on"])
        total = config.samples
    return run_closed_loop(params, chain, config.controller_config(),
                           total // config.block_size_n,
                           config.adc_spec(), frozen=lo_off)


def select_centered(run: LoopRun) -> np.ndarray:
    """The LO-on samples that entropy estimation and extraction read,
    the centered samples of the selected blocks concatenated.

    Everything before the first locked block is dropped: during loop
    acquisition the detector sits far off center, and those transient
    blocks (railed or strongly offset) are not representative output.
    Saturated blocks are dropped too: a railed block centers to a
    constant stream that would dilute the output with known bits.
    Steady-state unlocked blocks (the loop dithering around the interval)
    are kept.

    The call consumes `run.centered`: the kept blocks are moved to its
    front and the result is a view of them, so no sample is copied.
    After it only the run's flags, sums and DAC codes stay valid; select
    from a copy of a run that is read again.
    """
    keep = ~run.saturated
    first = run.first_locked()
    keep[:len(run) if first is None else first] = False
    if not keep.any():
        raise DataError("no usable blocks after saturation/lock filtering")
    n = run.centered.shape[1]
    flat = run.centered.reshape(-1)
    # Each run of consecutive kept blocks moves to the front in one 1-D
    # slice assignment.  A block never moves to a later index, and numpy
    # copies overlapping same-direction 1-D slices without a temporary.
    edges = np.flatnonzero(np.diff(keep, prepend=False, append=False)) * n
    kept = 0
    for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
        flat[kept:kept + stop - start] = flat[start:stop]
        kept += stop - start
    return flat[:kept]


def simulate_pair(config: PipelineConfig) -> tuple[np.ndarray, LoopRun]:
    """The LO-off samples the estimate reads, the whole frozen noise run
    (a frozen loop never acts on its lock flags, so none select blocks),
    and the LO-on run.

    LO off runs first, so that the stream held while the other run works
    is the smaller one.  At 2e7 + 4e6 samples six in-process `estimate`
    calls hold their peak RSS at 87.2-87.7 MB, where LO on first starts
    at 86.3 MB and steps up to 93.7-93.8 MB at the fifth call.
    """
    noise = simulate_run(config, lo_off=True).centered.reshape(-1)
    return noise, simulate_run(config)


def estimate_entropy(config: PipelineConfig, measured: np.ndarray,
                     noise: np.ndarray) -> tuple[EntropyReport, int]:
    """Min-entropy report of the measured and noise samples, and the
    leftover-hash budget per extractor block it admits."""
    report = build_report(measured, noise, adc_bits=config.adc_bits)
    return report, block_budget(report.h_min_per_sample, config.extractor_n,
                                config.adc_bits,
                                config.extractor_params().epsilon)


def write_extracted(config: PipelineConfig, measured: np.ndarray,
                    out: Path) -> int:
    """Toeplitz-hash the measured samples, adc_bits per sample, with the
    seed of `seed_file` or else the master seed's test seed.  The output
    goes to out/extracted.bin as it is hashed, never held whole (a failed
    extraction leaves no file there), and then the seed to
    out/extractor_seed.bin.  Returns the output's length in bits."""
    params = config.extractor_params()
    if config.seed_file:
        seed = load_seed(config.seed_file, params)
    else:
        seed = generate_test_seed(params,
                                  config.stream_seeds()["extractor_seed"])
    n_bits = write_stream(out / "extracted.bin", measured, seed, params,
                          bits_per_sample=config.adc_bits)
    save_seed(out / "extractor_seed.bin", seed)
    return n_bits


def suite_head(config: PipelineConfig, n_bits: int) -> int:
    """The bits the suite judges of an `n_bits`-bit stream: as many whole
    sequences from its front as it holds, up to `config.n_sequences`."""
    length = config.sequence_length
    return min(config.n_sequences, n_bits // length) * length


def suite_on_file(path: Path, n_bits: int,
                  config: PipelineConfig) -> SuiteVerdict | None:
    """Statistical suite on the `suite_head` of a packed file of `n_bits`
    bits, reading only its bytes; None if the head is empty."""
    head = suite_head(config, n_bits)
    if not head:
        return None
    n_seq = head // config.sequence_length
    packed = np.fromfile(path, dtype=np.uint8, count=-(-head // 8))
    # n_sequences by keyword: the benchmark's tracer counts it from there.
    return run_suite(packed, head, config.sequence_length,
                     n_sequences=n_seq, beta=config.beta)


def run_pipeline(config: PipelineConfig, out_dir) -> RunResult:
    """Execute every stage and write all artifacts under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    status = "complete"

    (out / "config.txt").write_text(config.to_text())
    artifacts["config"] = out / "config.txt"

    noise, run_on = simulate_pair(config)
    loop = LoopSummary.from_run(run_on)
    artifacts.update(write_streams(out, run_on, config))
    noise.astype("<i2", copy=False).tofile(out / "noise_centered.i16")
    artifacts["noise_centered"] = out / "noise_centered.i16"

    # Entropy estimation on filtered blocks.
    entropy: EntropyReport | None = None
    budget: int | None = None
    verdict: SuiteVerdict | None = None
    extracted_bits = 0
    extract_seconds = 0.0
    try:
        measured = select_centered(run_on)
        # The selection is a view of the run's samples: this frees only
        # the per-block flags, sums and codes; the samples go after
        # extraction.
        del run_on
        entropy, budget = estimate_entropy(config, measured, noise)
        del noise
        if config.extractor_m > budget:
            raise NoExtractableEntropyError(
                f"measured h_min {entropy.h_min_per_sample:.3f} bits/sample "
                f"supports only {budget} output bits per block, below the "
                f"configured m = {config.extractor_m}")
        _write_with_provenance(out / "entropy.json",
                               {**dataclasses.asdict(entropy),
                                "budget_bits_per_block": budget}, config)
        artifacts["entropy"] = out / "entropy.json"

        # Extraction reads the blocks the estimate was made on and writes
        # its output as it is hashed.
        t0 = time.perf_counter()
        extracted_bits = write_extracted(config, measured, out)
        del measured
        extract_seconds = time.perf_counter() - t0
        artifacts["extractor_seed"] = out / "extractor_seed.bin"
        artifacts["extracted"] = out / "extracted.bin"

        # Statistical validation at whatever scale the output supports.
        verdict = suite_on_file(out / "extracted.bin", extracted_bits,
                                config)
        if verdict is not None:
            _write_with_provenance(out / "verdict.json",
                                   dataclasses.asdict(verdict), config)
            artifacts["verdict"] = out / "verdict.json"
        else:
            status = "complete (too few bits for the statistical suite)"
    except (NoExtractableEntropyError, DataError) as exc:
        status = f"degenerate: {exc}"
        _write_manifest(out, config, artifacts, status, extracted_bits)
        raise

    _write_manifest(out, config, artifacts, status, extracted_bits)
    result = RunResult(config=config, loop=loop, entropy=entropy,
                       budget_bits=budget, verdict=verdict,
                       extracted_bits=extracted_bits,
                       extract_seconds=extract_seconds, status=status)
    (out / "summary.txt").write_text(result.summary_text() + "\n")
    return result


def _sha256(path: Path) -> str:
    """A file's sha256, hashed in fixed-size reads: never held whole."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out: Path, config: PipelineConfig,
                    artifacts: dict[str, Path], status: str,
                    extracted_bits: int) -> None:
    """Path, size and sha256 of every artifact; the packed output's entry
    also carries its bit count, which its zero-padded bytes cannot."""
    entries = {name: {"path": path.name, "bytes": path.stat().st_size,
                      "sha256": _sha256(path)}
               for name, path in artifacts.items()}
    if "extracted" in entries:
        entries["extracted"]["bits"] = extracted_bits
    payload = {"status": status, "artifacts": entries}
    _write_with_provenance(out / "manifest.json", payload, config)


def packed_bits(path: Path) -> int:
    """The length in bits of a packed bitstream file: the count that a
    manifest.json beside it records for it, else all its bytes.

    A manifest entry is used only for the file it describes (same sha256)
    and only if its count fills the bytes with zero padding; otherwise
    DataError.  The file is hashed in fixed-size reads and its padding
    checked from its last byte, so it is never held whole.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            size = fh.seek(0, 2)
            fh.seek(max(size - 1, 0))
            last = fh.read(1)
    except OSError as exc:
        raise DataError(f"cannot read bitstream {path}: {exc}") from exc
    manifest = path.parent / "manifest.json"
    if not manifest.is_file():
        return size * 8
    try:
        entries = json.loads(manifest.read_text())["artifacts"].values()
        entry = next((e for e in entries
                      if e.get("path") == path.name and "bits" in e), None)
    except (OSError, ValueError, KeyError, AttributeError) as exc:
        raise DataError(f"cannot read {manifest}: {exc}") from exc
    if entry is None:
        return size * 8
    if entry.get("sha256") != _sha256(path):
        raise DataError(f"{manifest} does not describe {path.name}: "
                        "its sha256 differs")
    bits = entry["bits"]
    if (type(bits) is not int or bits < 0 or (bits + 7) // 8 != size
            or bits % 8 and last[0] >> bits % 8):
        raise DataError(f"{manifest} lists {bits!r} bits for "
                        f"{path.name}, which holds {size} bytes")
    return bits


def paper_repro_table(result: RunResult) -> str:
    """Side-by-side table of measured values against the reference run."""
    cfg = result.config
    e = result.entropy
    lo = pass_proportion_interval(cfg.beta, 1000)[0]
    rate = (result.extracted_bits / result.extract_seconds / 1e6
            if result.extract_seconds > 0 else float("nan"))
    rows = [
        ("sigma_M^2 (counts^2)", f"{REFERENCE['sigma_m_sq']:.4g}",
         f"{e.sigma_m_sq:.4f}" if e else "n/a"),
        ("sigma_E^2 (counts^2)", f"{REFERENCE['sigma_e_sq']:.2f}",
         f"{e.sigma_e_sq:.4f}" if e else "n/a"),
        ("H_min (bits/sample)", f"{REFERENCE['h_min_bits']:.2f}",
         f"{e.h_min_per_sample:.4f}" if e else "n/a"),
        ("bits per raw bit", f"{REFERENCE['bits_per_raw_bit']:.2f}",
         f"{e.bits_per_raw_bit:.4f}" if e else "n/a"),
        ("extractor m x n",
         f"{REFERENCE['extractor_m']}x{REFERENCE['extractor_n']}",
         f"{cfg.extractor_m}x{cfg.extractor_n}"),
        ("security parameter", f"2^-{REFERENCE['epsilon_log2']}",
         f"2^-{cfg.epsilon_log2}"),
        ("proportion lower bound (N=1000)",
         f"{REFERENCE['proportion_lo_n1000']:.7f}", f"{lo:.7f}"),
        ("output rate (Mbit/s)",
         f"{REFERENCE['raw_rate_mbps']:.0f} (dedicated hardware)",
         f"{rate:.1f} (software, this host)"),
        ("locked-block fraction", "qualitatively stable",
         f"{result.loop.locked_fraction_after_warmup:.4f} (dithers; "
         "see README)"),
    ]
    name_w = max(len(r[0]) for r in rows) + 2
    ref_w = max(len(r[1]) for r in rows) + 2
    got_w = max(len(r[2]) for r in rows) + 2
    head = f"{'quantity':<{name_w}}{'reference':>{ref_w}}{'this run':>{got_w}}"
    body = [f"{name:<{name_w}}{ref:>{ref_w}}{got:>{got_w}}"
            for name, ref, got in rows]
    return "\n".join([head, "-" * len(head), *body])
