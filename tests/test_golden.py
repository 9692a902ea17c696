"""Golden pins: the artifacts of fixed-seed runs, byte for byte.

"The same" means that a fixed seed gives byte-identical artifacts.  These
tests run `vacqrng.cli.main` into temporary directories and compare the
sha256 of every artifact with a digest recorded before.  A change moves
a pin only on purpose: it re-records only the digests it means to move,
and CHANGES.md lists each one, old -> new, with the reason.

The streams rest on numpy's PCG64 generator and ziggurat normal sampler
and on libm's `cos`, so another numpy (or platform) may move every pin
without any change to this code; the failure message names the numpy
version the pins were made with.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from vacqrng.cli import main

PINNED_WITH_NUMPY = "2.4.6"

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"

# `all --seed 7` at the default configuration.  Its two sample streams
# are pinned in bench/expected.json alone, and read from there.
DEFAULT_ALL = {
    "config.txt": "eeaaa4ec556eb165e7602e803c63e80af4d66b0c78207afcc6e5c00a4e69f6ce",
    "entropy.json": "c1dbb09937a611a9261e5d08782d0b0a280c6370722adbe3612d1daa44b5c150",
    "extracted.bin": "34f3c596bd57e7b2b43ee20d67332cafbe00739faaa011e4e672242318e8865a",
    "extractor_seed.bin": "449e5c7e51fc660431d6da4bf7fd4216d10dce4a5a580af80f1b7da9bf856292",
    "manifest.json": "0cf00f29dd40e53e87ebf2efbbe3db7677e0856d6f99f32b0e35095df1efd476",
    "summary.txt": "32fe70b0deb4e55f9b9fe43268ee37a8f9c1ffd2c4159f5249b2ad9a157128c7",
    "trace.jsonl": "7e811d61614173e1201ddc8e5a04bdfaef3e9f49e46783db1d185362f7e7a015",
    "verdict.json": "def16111ef599ab69cfe94a5e42f2111f92547caee0ba56f69a0d1fd9a5d077d",
}

# `all --seed 7` on a short warm-started run whose suite sequences are
# 1001 bits long, so that every sequence but the first starts inside a
# byte; beta = 0.3 makes the pass proportions depend on many p-values.
SMALL_CONFIG = """\
samples = 300000
noise_samples = 100000
dac_init = 5182
sequence_length = 1001
n_sequences = 100
beta = 0.3
"""
SMALL_ALL = {
    "centered.i16": "47449cb7a61bf82dea10504e5e103dca1695384a23c0894b5b6e9ffcda664ee5",
    "config.txt": "3d7529460ed9151cb6c9c5cd557715bc7b4ff84da1bf05b388a3d69517d6b678",
    "entropy.json": "1e316568fc6ba84271e6fa9cbe0abc7651fb16feefae4e506918d5f9f605784a",
    "extracted.bin": "fe5c0fcac663531de95bd28ebc7f1a315baf322ae4d94fe7a4e9251514f6d8b9",
    "extractor_seed.bin": "449e5c7e51fc660431d6da4bf7fd4216d10dce4a5a580af80f1b7da9bf856292",
    "manifest.json": "d6b1d24332a9fd11c3deef5dc5ac45d37be386e61df52afdbdd552fe74f178c8",
    "noise_centered.i16": "9268ddfeffc4947159006c698925670efb25d50d10792338f00c702bbed81097",
    "summary.txt": "36523373d86bab84f28f12ef6c02bbefc3aec6265ef2b3a0130a4781b01ecee0",
    "trace.jsonl": "428d2248c110556d6aabb6736b89c16f6c1cd39225bd9d095176018ccdf11577",
    "verdict.json": "d1168d8954483b5dff2d0be24b79556c7962df14bb62b28bd4f463f3cb35549a",
}


def benchmark_pins() -> dict:
    return json.loads(EXPECTED.read_text())["reference"]["full_default"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_all(out: Path, *extra: str) -> str:
    """`vacqrng all --seed 7` into out; returns its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["all", "--seed", "7", "--out", str(out), *extra])
    assert code == 0
    return stdout.getvalue()


def check_pins(out: Path, pins: dict[str, str]) -> None:
    assert sorted(p.name for p in out.iterdir()) == sorted(pins)
    moved = {name: sha256(out / name) for name, want in pins.items()
             if sha256(out / name) != want}
    assert not moved, (
        f"artifacts moved: {moved}; the pins were recorded with numpy "
        f"{PINNED_WITH_NUMPY}, this run has numpy {np.__version__}")


@pytest.fixture(scope="module")
def default_all(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "all"
    return out, run_all(out)


@pytest.fixture(scope="module")
def small_all(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_small")
    config = root / "small.txt"
    config.write_text(SMALL_CONFIG)
    out = root / "all"
    return out, run_all(out, "--config", str(config))


def test_default_all_artifacts_pinned(default_all):
    out, _ = default_all
    streams = ("centered.i16", "noise_centered.i16")
    reference = benchmark_pins()
    check_pins(out, {**DEFAULT_ALL, **{s: reference[s] for s in streams}})


def test_default_all_stdout_is_summary(default_all):
    out, stdout = default_all
    assert stdout == (out / "summary.txt").read_text()


def test_default_all_output_agrees_with_benchmark_pin():
    """The benchmark pins the sha256 of the hex digests of its commands'
    outputs; for this one-command run that is the digest above, hashed."""
    assert (benchmark_pins()["extracted.bin"] == hashlib.sha256(
        DEFAULT_ALL["extracted.bin"].encode()).hexdigest())


def test_unaligned_sequences_all_pinned(small_all):
    out, stdout = small_all
    check_pins(out, SMALL_ALL)
    assert stdout == (out / "summary.txt").read_text()
