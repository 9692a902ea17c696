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
from tests.test_config_pipeline import SYMMETRIC_SILENT

PINNED_WITH_NUMPY = "2.4.6"

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"

# `all --seed 7` at the default configuration.  Its two sample streams
# are pinned in bench/expected.json alone, and read from there.
DEFAULT_ALL = {
    "config.txt": "1fbc0983f67b0e7856d3edf499c91fc68bc8659639e9f2a8eea2e4fb8ca14d2f",
    "entropy.json": "c198a7657b778ba618e4079239f87972fb62558eb0db9c2c9b8a4b91a39c8397",
    "extracted.bin": "34f3c596bd57e7b2b43ee20d67332cafbe00739faaa011e4e672242318e8865a",
    "extractor_seed.bin": "449e5c7e51fc660431d6da4bf7fd4216d10dce4a5a580af80f1b7da9bf856292",
    "manifest.json": "cdbd4c5383127effc544dc1242560e46da28f90a6be094273f47554bb1ea420e",
    "summary.txt": "20a73edb8bd6803d0710ff33bb4abf089a191fad83e3b262183ac99d3cd8b890",
    "trace.jsonl": "2d6feccd37f648e1fd4abfff197b7224561900f30371fd645443ca75316ca6d4",
    "verdict.json": "5d89a95dd3ed5fe67d4093261b88cd59ffbd24cf9349df86fd6d477d20a7a5fe",
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
    "config.txt": "4b21609e05c1330ec87a5815ef24b6e97f8e289406e9513b2e17b196d89c3c2e",
    "entropy.json": "eca614742f2f979e96942946e538087f6f302e4bf249bdc30388ca8da40e50d2",
    "extracted.bin": "fe5c0fcac663531de95bd28ebc7f1a315baf322ae4d94fe7a4e9251514f6d8b9",
    "extractor_seed.bin": "449e5c7e51fc660431d6da4bf7fd4216d10dce4a5a580af80f1b7da9bf856292",
    "manifest.json": "180500648f1a5b8e4112e49c69c4fe268f360bd6b16519f5dd5560becf53dd61",
    "noise_centered.i16": "9268ddfeffc4947159006c698925670efb25d50d10792338f00c702bbed81097",
    "summary.txt": "f3b00c62ae355dc0796cd3666c0357a93d11fae4b515cb9e4b8447ea71077f3f",
    "trace.jsonl": "ef902647a34f0dbaac78a7a1aa2f9431d8e03a4c1dbd1e43b4f62bf1966acf7a",
    "verdict.json": "1e1f89377e68a7299db50211dedd3ac57cc12f688ee6f6dd37a119f0d79d6f74",
}


def benchmark_pins() -> dict:
    return json.loads(EXPECTED.read_text())["reference"]["full_default"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(command: str, out: Path, *extra: str,
            code: int = 0) -> tuple[str, str]:
    """`vacqrng COMMAND --seed 7` into out; asserts its exit code and
    returns its stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        got = main([command, "--seed", "7", "--out", str(out), *extra])
    assert got == code, stderr.getvalue()
    return stdout.getvalue(), stderr.getvalue()


def run_all(out: Path, *extra: str) -> str:
    """`vacqrng all --seed 7` into out; returns its stdout."""
    return run_cli("all", out, *extra)[0]


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


# The other commands at seed 7, each as (command, config text, exit code),
# pinned by their artifacts and by the sha256 of their stdout and stderr
# with the output directory written as "OUT".
COMMANDS = {
    # raw_codes.u16 from the uint16 code array
    "simulate_raw": ("simulate", SMALL_CONFIG + "write_raw = true\n", 0),
    "simulate_inverted": ("simulate", SMALL_CONFIG + "invert_loop = true\n",
                          0),
    "estimate": ("estimate", SMALL_CONFIG, 0),
    # one command of the benchmark's extract_short workload
    "extract_short": ("extract", "samples = 200000\ndac_init = 5182\n", 0),
    # the extraction helper thread, m % 8 != 0 and a padded last byte
    "odd_geometry_all": ("all", SMALL_CONFIG
                         + "extractor_m = 60\nextractor_n = 203\n", 0),
    # no quantum noise: exits 3 after writing the loop's artifacts
    "degenerate_all": ("all", SYMMETRIC_SILENT, 3),
    # the suite on the extracted blocks its sequences fill; the verdict
    # and stdout equal those of `test --bits` on the small `all` below
    "test_small": ("test", SMALL_CONFIG, 0),
}
COMMAND_PINS = {
    "simulate_raw": {
        "files": {
            "centered.i16": "47449cb7a61bf82dea10504e5e103dca1695384a23c0894b5b6e9ffcda664ee5",
            "raw_codes.u16": "76ba795404b75fd1636c0ddeae9a811bfce0d5984db720b228540b5cf2d679e4",
            "trace.jsonl": "21aa1eebc5ad6841630ce4cd1a0c8a08f2e7d159f2e8f3e56986e75e5556531e",
        },
        "stdout": "97bbf78422a5f7bfaef55ef68392462f30a54d650dfc95c91d94d03033ab4f13",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "simulate_inverted": {
        "files": {
            "centered.i16": "8e64f92c2360d6b80695cca0146cac53b59ec7642e1a9d6a8e0bb415c915175e",
            "trace.jsonl": "0d94cc5464887c810ab179aa0d3522d4d778d7c60be5d5c4e495a7c690bf9510",
        },
        "stdout": "22ff8fab978f159ab34c2783f2e881067ae42549914d98a5f726f11e0ffc0b69",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "estimate": {
        "files": {
            "entropy.json": "15d47421e20769a065765f394fcbc00e5aab8b1e9c2c841f03a64788c158df11",
        },
        "stdout": "b11bf872d1c0acb7b3a42f347f250da8c4ce1810daa3e7b00ff2166da81dd473",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "extract_short": {
        "files": {
            "extracted.bin": "e6ac2802c84aaffa1d2bf65761fe7f3aedd294d0ad59021380e5392a70796efb",
            "extractor_seed.bin": "449e5c7e51fc660431d6da4bf7fd4216d10dce4a5a580af80f1b7da9bf856292",
        },
        "stdout": "9c8c8029934249966d67022d4d530ac8fbc55100e9c2166f2ecec9b0bccdac38",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "odd_geometry_all": {
        "files": {
            "centered.i16": "47449cb7a61bf82dea10504e5e103dca1695384a23c0894b5b6e9ffcda664ee5",
            "config.txt": "064f3157cf5adb3dfa25ba4179bc1db834140eb34eb6aea554470f6240a3f151",
            "entropy.json": "2de7eaa8879404b9f0b8a9de34d2703bcb273ec211e2e06c3be48bb3c96abfd0",
            "extracted.bin": "d669562f4eca9d21dd3b2fd02837c603ec6b46d7c5e0e21ac2f6f5676b5fa039",
            "extractor_seed.bin": "b38511a792e2cdae156bd22e2d14f5a911d4f9e28762f619159e18c0c9bfe4b2",
            "manifest.json": "f6441124ee0854da752205f07f1af003402c92587b81ce13b4cc842a6b11f452",
            "noise_centered.i16": "9268ddfeffc4947159006c698925670efb25d50d10792338f00c702bbed81097",
            "summary.txt": "178d4761d7cda029ba669ee7a0e2e0109a91bb1889c37a7b1cc81ea9d92725c1",
            "trace.jsonl": "83d84a6b8b7f56b0c21e61dd8865696f5cdc13f36fd2d90ef17274119a0b3bce",
            "verdict.json": "2c4e87337a61899522f4f2f8d48ccf7b4e8c9453f6dd217a9138c116bc6e2fb5",
        },
        "stdout": "178d4761d7cda029ba669ee7a0e2e0109a91bb1889c37a7b1cc81ea9d92725c1",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "degenerate_all": {
        "files": {
            "centered.i16": "9192c25b734fcbadbe32dadc28089c60db0e39f90cc20ce2e5733f57261acc0c",
            "config.txt": "c35d2a927de90d676dfe395612617dc58b76df96f7afd23ca21060ea8cf2472a",
            "manifest.json": "5fa244ba4c087e79a976f6104ebdd3080cdf6a62e743578048ada641c75c4df5",
            "noise_centered.i16": "9192c25b734fcbadbe32dadc28089c60db0e39f90cc20ce2e5733f57261acc0c",
            "trace.jsonl": "082e711b320b00de9c2a763e551ed6121315dd4f72fa7240c8932824172259b8",
        },
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "3755699ea9761db19146d77d187baf8ed53d886afc9aa88ee8d2f1f31213948c",
    },
    "test_small": {
        "files": {
            "extracted.bin": "293bc1b28a44b68ea1f10678bcefb5aa399a2ec0dbedb82169042e33e5447682",
            "extractor_seed.bin": "449e5c7e51fc660431d6da4bf7fd4216d10dce4a5a580af80f1b7da9bf856292",
            "verdict.json": "d7173cebdf470c778764f6e54915cca40dc0972e06d492cadad3c934b5cca338",
        },
        "stdout": "30e20cee4ccbe7f8ad95bc9639185e6bbb22f766851765fb4a5afc6d95560e2e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}
TEST_BITS_PINS = {
    "files": {
        "verdict.json": "d7173cebdf470c778764f6e54915cca40dc0972e06d492cadad3c934b5cca338",
    },
    "stdout": "30e20cee4ccbe7f8ad95bc9639185e6bbb22f766851765fb4a5afc6d95560e2e",
}


def masked_sha256(text: str, out: Path) -> str:
    return hashlib.sha256(text.replace(str(out), "OUT").encode()).hexdigest()


@pytest.mark.parametrize("name", COMMANDS)
def test_command_artifacts_pinned(name, tmp_path):
    command, config_text, code = COMMANDS[name]
    config = tmp_path / "config.txt"
    config.write_text(config_text)
    out = tmp_path / "out"
    stdout, stderr = run_cli(command, out, "--config", str(config),
                             code=code)
    pins = COMMAND_PINS[name]
    check_pins(out, pins["files"])
    assert masked_sha256(stdout, out) == pins["stdout"]
    assert masked_sha256(stderr, out) == pins["stderr"]


def test_bits_file_in_run_directory_pinned(small_all, tmp_path):
    """`test --bits` on a run's extracted.bin: the suite through
    `packed_bits`.  At m = 1920 the manifest's bit count fills the
    bytes; the tests of `test_config_pipeline` check the count rule."""
    run_dir, _ = small_all
    config = tmp_path / "small.txt"
    config.write_text(SMALL_CONFIG)
    out = tmp_path / "out"
    stdout, _ = run_cli("test", out, "--config", str(config),
                        "--bits", str(run_dir / "extracted.bin"))
    check_pins(out, TEST_BITS_PINS["files"])
    assert masked_sha256(stdout, out) == TEST_BITS_PINS["stdout"]
