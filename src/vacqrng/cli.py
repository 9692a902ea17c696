"""Command-line interface.

Subcommands:
  simulate     closed-loop run; writes trace and centered-sample stream
  estimate     LO-on + LO-off runs; writes the entropy report
  extract      simulate and Toeplitz-extract; writes packed output bits
  test         extract the blocks the statistical suite reads and run the
               suite on them (or on --bits FILE)
  all          full pipeline with every artifact and a summary
  paper-repro  full pipeline; prints a comparison with the reference run

The commands share `vacqrng.pipeline`'s stages: one admission rule (also
run when a config is built), one run order (`simulate_pair`: `estimate`
and `all` run LO off first), one extraction writer (`write_extracted`:
`extract`, `test` and `all` write extracted.bin as it is hashed), one
suite head (`suite_head`: `test`, `test --bits` and `all` read back only
the bytes of the sequences they judge) and one JSON artifact writer
(`write_json`).

Exit codes: 0 success, 2 configuration/parameter errors, 3 data errors
(e.g. no extractable entropy).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

from .config import PipelineConfig, load_config
from .errors import (ConfigError, DataError, NoExtractableEntropyError,
                     ParameterError)
from .pipeline import (LoopSummary, estimate_entropy, packed_bits,
                       paper_repro_table, run_pipeline, select_centered,
                       simulate_pair, simulate_run, suite_head,
                       suite_on_file, write_extracted, write_json,
                       write_streams)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process and reused by every `main`
    call: one build is a few hundred objects in reference cycles."""
    parser = argparse.ArgumentParser(
        prog="vacqrng",
        description="Simulator and toolkit for a bias-free "
                    "vacuum-fluctuation quantum random number generator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="key=value config file (defaults when omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--samples", type=int, default=None,
                       help="override the LO-on sample count")
        p.add_argument("--out", type=Path, default=Path("vacqrng-out"),
                       help="artifact directory (default: ./vacqrng-out)")
        return p

    add("simulate", "run the closed loop and write trace/centered streams")
    add("estimate", "estimate conditional min-entropy from LO-on/off runs")
    add("extract", "simulate and extract; write packed output bits")
    t = add("test", "run the statistical suite on extracted output")
    t.add_argument("--bits", type=Path, default=None,
                   help="test an existing packed bitstream instead (its "
                        "bit count from a manifest.json beside it, else "
                        "every bit of its bytes)")
    add("all", "run every stage and write all artifacts")
    add("paper-repro", "reproduce the reference experiment's headline "
                       "figures and print a comparison table")
    return parser


def _cmd_simulate(args, config: PipelineConfig) -> int:
    run = simulate_run(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_streams(out, run, config)
    loop = LoopSummary.from_run(run)
    print(f"{loop.n_blocks} blocks simulated; locked fraction "
          f"{loop.locked_fraction:.4f}; {loop.saturated_blocks} saturated")
    print(f"artifacts in {out}")
    return 0


def _cmd_estimate(args, config: PipelineConfig) -> int:
    noise, run = simulate_pair(config)
    report, budget = estimate_entropy(config, select_centered(run), noise)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(write_json(out / "entropy.json", asdict(report)), end="")
    print(f"leftover-hash budget: {budget} bits per "
          f"{config.extractor_n}-bit block (m = {config.extractor_m})")
    if config.extractor_m > budget:
        print("warning: configured m exceeds the measured budget; "
              "extraction at this geometry is not covered by the "
              "security parameter")
    return 0


def _cmd_extract(args, config: PipelineConfig) -> int:
    samples = select_centered(simulate_run(config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_bits = write_extracted(config, samples, out)
    print(f"extracted {n_bits} bits from {samples.size} samples -> "
          f"{out / 'extracted.bin'}")
    return 0


def _cmd_test(args, config: PipelineConfig) -> int:
    out = Path(args.out)
    if args.bits is not None:
        path, n_bits = args.bits, packed_bits(args.bits)
    else:
        samples = select_centered(simulate_run(config))
        params = config.extractor_params()
        n_bits = params.output_bits(samples.size * config.adc_bits)
    head = suite_head(config, n_bits)
    if not head:
        raise DataError(f"only {n_bits} bits available; need at least one "
                        f"{config.sequence_length}-bit sequence")
    out.mkdir(parents=True, exist_ok=True)
    if args.bits is None:
        # Hash only the blocks that hold the suite's head, from the front
        # of the selection, and write them as `extract` does.
        blocks = -(-head // params.m)
        path = out / "extracted.bin"
        n_bits = write_extracted(
            config, samples[:-(-blocks * params.n // config.adc_bits)], out)
    verdict = suite_on_file(path, n_bits, config)
    write_json(out / "verdict.json", asdict(verdict))
    print(verdict.table())
    return 0


def _cmd_run(args, config: PipelineConfig) -> int:
    """`all` and `paper-repro`: the full pipeline; they differ only in
    what they print."""
    result = run_pipeline(config, args.out)
    print(paper_repro_table(result) if args.command == "paper-repro"
          else result.summary_text())
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "extract": _cmd_extract,
    "test": _cmd_test,
    "all": _cmd_run,
    "paper-repro": _cmd_run,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {key: value for key, value in
                 (("master_seed", args.seed), ("samples", args.samples))
                 if value is not None}
    try:
        config = load_config(args.config, **overrides)
        return _HANDLERS[args.command](args, config)
    except (ConfigError, ParameterError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NoExtractableEntropyError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
