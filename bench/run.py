#!/usr/bin/env python3
"""Benchmark of vacqrng through its CLI entry `vacqrng.cli.main`.

Run from the root of a checkout:

    python3 bench/run.py --workload full_default --seed 1 --seconds 30 --trace 0

One process per run.  After set-up, iterations of the workload run back
to back for --seconds: the first with fixed reference master seeds, whose
outputs are pinned in bench/expected.json, the rest with master seeds
derived from --seed.  With --trace 0 the end-to-end metrics are reported;
with --trace 1 traced and untraced iterations alternate and the per-layer
metrics are reported from spans recorded around calls into each layer.
Outputs are checked after the timed interval.  The last stdout line is
the JSON result; BENCHMARK.json lists the metric names and units.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracer import COMMAND, Tracer, summarize
from workloads import ROOT, SRC, WORKLOADS, master_seeds, setup

WORK = ROOT / ".bench_work"
SETUP_PROBES = 3          # timed set-ups, each in a fresh interpreter
CHECKED_PER_BATCH = 3     # extract_short commands re-derived per iteration
DENSE_PICKS = 3           # blocks re-derived with the oracle per command
SUITE_TESTS = ("monobit", "block_frequency", "runs", "cumulative_sums",
               "approximate_entropy")
LAYERS = ("controller", "pipeline", "entropy", "toeplitz", "stattests")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Run:
    """One benchmark run: the commands, their timings and their checks."""

    def __init__(self, name: str, seed: int, trace: bool, config_path: Path,
                 work: Path) -> None:
        import vacqrng.cli
        from vacqrng.config import load_config

        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.config_path = config_path
        self.config = load_config(config_path)
        self.work = work
        self.main = vacqrng.cli.main
        self.tracer = Tracer() if trace else None
        self.iterations: list[dict] = []
        self.failures: list[str] = []
        self.attempted = self.failed = 0

    def _argv(self, command: str, master: int, out: Path) -> list[str]:
        return [command, "--config", str(self.config_path),
                "--seed", str(master), "--out", str(out)]

    def _invoke(self, argv: list[str], traced: bool) -> tuple[int | str, float]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                if traced:
                    rc = self.tracer.call(COMMAND, self.main, argv)
                else:
                    rc = self.main(argv)
            except Exception as exc:  # a crashing command is a failed one
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        return rc, seconds

    def iteration(self, index: int, traced: bool) -> dict:
        if traced:
            self.tracer.install()
            span_lo = len(self.tracer)
        commands = []
        for j, master in enumerate(master_seeds(self.seed, self.workload,
                                                index)):
            out = self.work / f"it{index}" / f"c{j}"
            rc, seconds = self._invoke(
                self._argv(self.workload.command, master, out), traced)
            commands.append({"master": master, "out": out, "seconds": seconds,
                             "rc": rc})
        if traced:
            self.tracer.uninstall()
        it = {"traced": traced, "commands": commands,
              "wall": sum(c["seconds"] for c in commands),
              "spans": (span_lo, len(self.tracer)) if traced else None}
        self.iterations.append(it)
        return it

    def measure(self, seconds: float) -> None:
        """Iterations back to back until `seconds` is used.

        Iteration 0 runs the reference seeds; an iteration starts only if
        the previous one's duration still fits.  The traced run alternates
        traced and untraced iterations, starting traced, and runs at least
        two traced and one untraced.
        """
        minimum = 3 if self.tracer is not None else 1
        t0 = time.perf_counter()
        index = 0
        while True:
            it = self.iteration(index, traced=self.tracer is not None
                                and index % 2 == 0)
            index += 1
            spent = time.perf_counter() - t0
            if index >= minimum and spent + it["wall"] > seconds:
                break

    # -- accounting and checks (outside the timed interval) ---------------

    def _check(self, fn, *args) -> None:
        """Run one check; a missing or malformed artifact fails it."""
        self.attempted += 1
        try:
            errors = fn(*args)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            errors = [f"{fn.__name__}{args}: {type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            self.failures.extend(errors)

    def _primary(self) -> str:
        return ("entropy.json" if self.workload.command == "estimate"
                else "extracted.bin")

    def _samples_per_command(self) -> int:
        cfg = self.config
        n = cfg.block_size_n
        total = max(1, cfg.samples // n) * n
        if self.workload.command in ("all", "estimate"):
            total += max(1, cfg.noise_samples // n) * n
        return total

    def _output_bits(self, out: Path) -> int:
        """Extracted bits, or for `estimate` the bits its budget certifies:
        m-bit blocks of the measured stream at min(m, budget) bits each."""
        cfg = self.config
        if self.workload.command != "estimate":
            return (out / "extracted.bin").stat().st_size * 8
        report = json.loads((out / "entropy.json").read_text())
        per_block = cfg.extractor_n // cfg.adc_bits
        budget = math.floor(per_block * round(report["h_min_per_sample"], 2)
                            - 2 * cfg.epsilon_log2)
        blocks = report["sample_count"] * cfg.adc_bits // cfg.extractor_n
        return blocks * max(0, min(cfg.extractor_m, budget))

    def _completed(self, c: dict) -> list[str]:
        if c["rc"] != 0:
            return [f"{c['out']}: exit {c['rc']}"]
        if not (c["out"] / self._primary()).is_file():
            return [f"{c['out']}: exit 0 without {self._primary()}"]
        return []

    def account(self) -> None:
        """Exit codes, output sizes and artifact bytes of every command."""
        for it in self.iterations:
            it["bits"] = it["artifact_bytes"] = 0
            for c in it["commands"]:
                c["ok"] = not self._completed(c)
                self._check(self._completed, c)
                if c["ok"]:
                    it["bits"] += self._output_bits(c["out"])
                    it["artifact_bytes"] += sum(
                        p.stat().st_size for p in c["out"].iterdir())
            it["samples"] = self._samples_per_command() * len(it["commands"])

    def _simulate_into(self, c: dict) -> None:
        """Write centered.i16 and trace.jsonl for a command's seed and
        config next to its outputs, with the CLI `simulate` command."""
        rc, _ = self._invoke(self._argv("simulate", c["master"], c["out"]),
                             traced=False)
        if rc != 0:
            raise OSError(f"simulate for {c['out']} exited {rc}")

    def _rederive(self, c: dict, rng: np.random.Generator) -> list[str]:
        cfg = self.config
        if self.workload.command == "extract":
            self._simulate_into(c)
        return checks.rederive_blocks(
            c["out"], cfg.block_size_n, cfg.adc_bits, cfg.extractor_m,
            cfg.extractor_n, DENSE_PICKS, rng)

    def check_outputs(self) -> None:
        cfg = self.config
        command = self.workload.command
        rng = np.random.default_rng([self.seed, self.workload.index])
        expected_h = cfg.expected_h_min()
        for it in self.iterations:
            done = [c for c in it["commands"] if c["ok"]]
            if command == "extract":
                picks = rng.choice(len(done), min(CHECKED_PER_BATCH, len(done)),
                                   replace=False)
                done = [done[k] for k in sorted(picks)]
            for c in done:
                if command == "all":
                    self._check(checks.verify_manifest, c["out"])
                if command in ("all", "estimate"):
                    self._check(checks.check_entropy, c["out"], expected_h,
                                cfg.noise_samples, cfg.block_size_n)
                if command in ("all", "extract"):
                    self._check(self._rederive, c, rng)

    def reference_values(self) -> dict:
        """Exact simulated statistics and digests of the reference seeds."""
        commands = self.iterations[0]["commands"]
        first = commands[0]
        if not all(c["ok"] for c in commands):
            return {}
        if self.workload.command != "all":
            self._simulate_into(first)
        out = first["out"]
        values = {"centered.i16": checks.sha256_file(out / "centered.i16"),
                  **checks.loop_numbers(out / "trace.jsonl")}
        if self.workload.command == "all":
            values["noise_centered.i16"] = checks.sha256_file(
                out / "noise_centered.i16")
        if self.workload.command == "estimate":
            values["entropy.json"] = checks.sha256_file(out / "entropy.json")
        else:
            digest = hashlib.sha256()
            for c in commands:
                digest.update(checks.sha256_file(c["out"] / "extracted.bin")
                              .encode())
            values["extracted.bin"] = digest.hexdigest()
        return values

    def check_reference(self) -> dict:
        """Compare the reference statistics exactly with expected.json."""
        expected = json.loads((Path(__file__).parent / "expected.json")
                              .read_text())["reference"].get(self.name)
        values: dict = {}
        self._check(lambda: values.update(self.reference_values()) or [])
        for key, want in (expected or {"recorded reference": None}).items():
            got = values.get(key)
            self._check(lambda: [] if got == want else
                        [f"reference {key}: got {got}, recorded {want}"])
        return values

    def run_digests(self) -> list[str]:
        """Per-iteration digest of the primary outputs.  Iteration i of any
        run with the same --seed must repeat it exactly."""
        digests = []
        for it in self.iterations:
            digest = hashlib.sha256()
            for c in it["commands"]:
                if c["ok"]:
                    digest.update(checks.sha256_file(
                        c["out"] / self._primary()).encode())
            digests.append(digest.hexdigest()[:16])
        return digests

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict:
        its = self.iterations
        latencies = [c["seconds"] for it in its for c in it["commands"]]
        p50, p90 = np.percentile(latencies, [50, 90])
        return {
            "wall_s": _median([it["wall"] for it in its]),
            "out_mbit_s": _median([it["bits"] / it["wall"] / 1e6 for it in its]),
            "sim_msample_s": _median([it["samples"] / it["wall"] / 1e6
                                      for it in its]),
            "run_p50_s": float(p50),
            "run_p90_s": float(p90),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }

    def _layer_metrics(self, it: dict) -> dict:
        s = summarize(self.tracer, *it["spans"])
        cfg = self.config

        def get(name: str, key: str = "total") -> float:
            return s.get(name, {}).get(key, 0.0)

        def layer_self(layer: str) -> float:
            return sum(v["self"] for k, v in s.items()
                       if k.split(".")[0] == layer and k != COMMAND)

        blocks = get("controller.loop_on", "count") + get(
            "controller.loop_off", "count")
        loop_s = get("controller.loop_on") + get("controller.loop_off")
        chain_s = sum(v["total"] for k, v in s.items()
                      if k.startswith("signal_chain."))
        hash_blocks, hash_s = get("toeplitz.hash", "count"), get("toeplitz.hash")
        per_block = 1e6 / blocks if blocks else 0.0
        values = {
            "controller.loop_on_s": get("controller.loop_on"),
            "controller.loop_off_s": get("controller.loop_off"),
            "controller.self_s": layer_self("controller"),
            "controller.blocks": blocks,
            "controller.us_per_block": loop_s * per_block,
            "signal_chain.detector_block_s": get("signal_chain.detector_block"),
            "signal_chain.adc_s": get("signal_chain.adc"),
            "signal_chain.drift_s": get("signal_chain.drift"),
            "signal_chain.self_s": layer_self("signal_chain"),
            "signal_chain.us_per_block": chain_s * per_block,
            "pipeline.select_s": get("pipeline.select"),
            "pipeline.self_s": get(COMMAND, "self"),
            "pipeline.commands": get(COMMAND, "calls"),
            "pipeline.artifact_bytes": float(it["artifact_bytes"]),
            "entropy.report_s": get("entropy.report"),
            "toeplitz.to_bits_s": get("toeplitz.to_bits"),
            "toeplitz.hash_s": hash_s,
            "toeplitz.self_s": layer_self("toeplitz"),
            "toeplitz.blocks": hash_blocks,
            "toeplitz.hash_mbit_s":
                hash_blocks * cfg.extractor_m / hash_s / 1e6 if hash_s else 0.0,
            "toeplitz.bit_products":
                hash_blocks * cfg.extractor_m * cfg.extractor_n,
            "stattests.suite_s": get("stattests.suite"),
            "stattests.self_s": layer_self("stattests"),
            "stattests.sequences": get("stattests.suite", "count"),
            **{f"stattests.{t}_s": get(f"stattests.{t}") for t in SUITE_TESTS},
            "trace.wall_s": it["wall"],
            "trace.spans": float(it["spans"][1] - it["spans"][0]),
        }
        accounted = (values["pipeline.self_s"] + values["pipeline.select_s"]
                     + values["entropy.report_s"] + sum(
                         values[f"{layer}.self_s"] for layer in
                         ("controller", "signal_chain", "toeplitz",
                          "stattests")))
        values["trace.accounted_frac"] = accounted / it["wall"]
        return values

    def _rss_by_layer(self) -> dict:
        """High-water RSS at the end of each layer's last span within the
        run's first command, the reference one, traced from a fresh process.
        In call order, the first layer reading the peak is the one that
        reached it."""
        ref = self.iterations[0]
        a = self.tracer.arrays(*ref["spans"])
        top = np.flatnonzero(a["parent"] == -1)
        end = int(top[1]) if top.size > 1 else a["name"].size
        first = summarize(self.tracer, ref["spans"][0],
                          ref["spans"][0] + end)
        return {f"{layer}.rss_hwm_mb": max(
            [v["rss"] for k, v in first.items()
             if k.split(".")[0] == layer and k != COMMAND],
            default=0.0) for layer in LAYERS}

    def per_layer(self) -> dict:
        traced = [it for it in self.iterations if it["traced"]]
        plain = [it for it in self.iterations if not it["traced"]]
        rows = [self._layer_metrics(it) for it in traced]
        values = {key: _median([r[key] for r in rows]) for key in rows[0]}
        values["trace.untraced_wall_s"] = _median([it["wall"] for it in plain])
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - values["trace.untraced_wall_s"])
        values["trace.absent"] = float(len(self.tracer.absent))
        values.update(self._rss_by_layer())
        return values


def measure_setup(name: str, work: Path) -> tuple[list[float], Path]:
    """Time set-up in fresh interpreters, then set up this process."""
    times = []
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "workloads.py"),
             name, str(work / f"setup{k}")],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times, setup(name, work)


def provenance(run: Run, args) -> dict:
    import scipy

    cfg = dataclasses.replace(run.config,
                              master_seed=run.workload.reference_seeds[0])
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "config_hash_reference_seed": cfg.config_hash(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "scipy_fft_workers": "-1 = os.cpu_count() threads at most",
    }


def emit(result: dict, values: dict, group: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[group]
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in spec}
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vacqrng" / "cli.py").is_file():
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_times, config_path = measure_setup(args.workload, work)
    import vacqrng

    if Path(vacqrng.__file__).resolve().parent != (SRC / "vacqrng").resolve():
        print(f"benchmark: imported {vacqrng.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace), config_path, work)
    run.measure(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.account()
    if args.trace:
        values = run.per_layer()
        run.tracer.save(WORK / f"{args.workload}-spans.npz")
        print(f"absent: {run.tracer.absent}")
    else:
        values = run.end_to_end(_median(setup_times), peak_rss_mb)
    reference = run.check_reference()
    run.check_outputs()

    its = run.iterations
    print(f"provenance: {json.dumps(provenance(run, args))}")
    print(f"reference: {json.dumps(reference)}")
    print(f"iterations: {len(its)} timed, "
          f"{sum(len(it['commands']) for it in its)} commands, walls "
          f"{[round(it['wall'], 4) for it in its]} s; "
          f"setup samples {[round(t, 4) for t in setup_times]} s")
    print(f"iteration digests: {run.run_digests()}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    shutil.rmtree(work, ignore_errors=True)
    emit({"correct": run.failed == 0, "attempted": run.attempted,
          "failed": run.failed}, values,
         "per_layer" if args.trace else "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
