"""The README command examples print exactly the bytes recorded in bench/golden.json.

The digests were taken from the output of the original implementation, so
any change to a printed digit of these examples fails here.  This test only
reads the file.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lexopt.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"

#: The README's examples, in the order of the "readme" digests.
README_EXAMPLES = [
    ["solve", "--alpha", "2", "--beta", "1", "--p1", "1", "--p2", "1", "--P_C", "6"],
    ["bargain", "--p", "0.5", "--W_B", "100", "--S_B", "60", "--C_b", "4", "--C_a", "10",
     "--format", "csv"],
    ["sweep", "--seed", "0", "--format", "csv"],
]


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_example_matches_golden_digest(capsys, index):
    digests = json.loads(GOLDEN.read_text(encoding="utf-8"))["readme"]
    assert len(digests) == len(README_EXAMPLES)
    assert main(README_EXAMPLES[index]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests[index]
