"""Byte-exact text of the CLI artifacts for the college scenario-2 instance.

The expected files under ``golden/expected`` pin the number formats:
rationals as "p/q", reals at 12 significant digits, summary rationals as
"<12 digits> = p/q".  Any change to how numbers or tables are written
shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from scoremech import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

ARTIFACTS = {  # expected file -> artifact path under the run directory
    "college.txt": "example/college.txt",
    "college_scenario2.json": "example/college_scenario2.json",
    "summary.txt": "finite/summary.txt",
    "mechanism.tsv": "finite/mechanism.tsv",
    "scorerule.tsv": "canon/scorerule.tsv",
    "falsification.tsv": "canon/falsification.tsv",
    "derandomized_mechanism.tsv": "derand/mechanism.tsv",
    "rebalanced_mechanism.tsv": "rebal/mechanism.tsv",
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cfg = str(root / "example" / "college_scenario2.json")
    mech = str(root / "finite" / "mechanism.tsv")
    commands = [
        ["example", "college"],
        ["solve-finite", "--instance", cfg],
        ["solve-finite", "--mode", "float", "--instance", cfg],
        ["canonicalize", "--op", "score-based", "--instance", cfg,
         "--mechanism", mech],
        ["canonicalize", "--op", "derandomize", "--instance", cfg,
         "--mixture", str(INPUTS / "mixture.tsv")],
        ["canonicalize", "--op", "rebalance",
         "--instance", str(INPUTS / "rebalance_instance.json"),
         "--mechanism", str(INPUTS / "rebalance_mechanism.tsv")],
    ]
    outs = ["example", "finite", "float", "canon", "derand", "rebal"]
    for argv, out in zip(commands, outs):
        assert cli.main(argv + ["--out", str(root / out)]) == 0
    return root


@pytest.mark.parametrize("expected", sorted(ARTIFACTS))
def test_college_artifacts_are_byte_identical(run_dir, expected):
    got = (run_dir / ARTIFACTS[expected]).read_bytes()
    assert got == (GOLDEN / "expected" / expected).read_bytes()


def test_float_mode_mechanism_line(run_dir):
    lines = (run_dir / "float" / "mechanism.tsv").read_text().splitlines()
    assert "F\tsL\tsH\tadmit\t1\t1\t1" in lines
