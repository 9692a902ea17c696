"""Workload definitions and the set-up step of the vacqrng benchmark.

Every workload is a closed-loop, single-caller batch: each CLI command
starts when the previous one returns.  The commands of timed iteration i
get master seeds derived from (workload seed, workload, i); the reference
iteration uses fixed master seeds whose outputs are pinned in
expected.json.

Run as a script, this module performs one set-up (import, config build and
validation, writing the config file) in a fresh interpreter and prints its
duration in seconds:

    python3 bench/workloads.py WORKLOAD OUT_DIR
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    index: int
    command: str                 # vacqrng subcommand
    overrides: dict              # config-file keys on top of the defaults
    commands: int                # commands per iteration
    reference_seeds: tuple       # master seeds of the reference iteration


WORKLOADS = {
    "full_default": Workload(0, "all", {}, 1, (7,)),
    "estimate_long": Workload(
        1, "estimate", {"samples": 20_000_000, "noise_samples": 4_000_000},
        1, (7,)),
    "extract_short": Workload(
        2, "extract", {"samples": 200_000, "dac_init": 5182}, 100,
        tuple(range(7, 107))),
}


def master_seeds(seed: int, workload: Workload, iteration: int) -> list[int]:
    """Master seeds of one iteration's commands; iteration 0 is reference."""
    if iteration == 0:
        return list(workload.reference_seeds)
    # Imported here so that the timed set-up below pays numpy's import.
    import numpy as np

    state = np.random.SeedSequence([seed, workload.index, iteration])
    return [int(s) for s in state.generate_state(workload.commands, np.uint32)]


def config_text(workload: Workload) -> str:
    return "".join(f"{key} = {value}\n"
                   for key, value in workload.overrides.items())


def setup(name: str, out_dir: Path) -> Path:
    """Import the program, write the workload's config file and load it
    back; loading builds and validates the config as the CLI does."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vacqrng.cli  # noqa: F401  (the entry point the commands use)
    from vacqrng.config import load_config

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.txt"
    path.write_text(config_text(WORKLOADS[name]))
    load_config(path)
    return path


if __name__ == "__main__":
    t0 = time.perf_counter()
    setup(sys.argv[1], Path(sys.argv[2]))
    print(time.perf_counter() - t0)
