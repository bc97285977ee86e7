"""Pins of the demos' output: each demo's stdout, byte for byte.

Every demo runs from fixed seeds, so a change that keeps these digests keeps
what the demos print.  A change that must move one says so and why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of each demo's stdout.
DEMO_DIGESTS = {
    "01_atomic_signaling.py": "c11234e1d8ffbcbfcb4524caf75d5307b6496d8a5f6919cfaff53f7d73618d55",
    "02_replacement_conventional.py": "19f86a49964d03e29a77e1aa13570caf4059590af52335bea5d6577bb1b4c561",
    "03_receiver_architectures.py": "08a88f1d4431c0a48a6e38bff2dd574b20e003a2808eb5fb75dd7c6f900d4043",
    "04_information_tables.py": "7fa4cfc56e8e2c327e314a0033e615ac72f0acc6dbadc9e3de94bd5042257c64",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_DIGESTS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_output_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, check=True, capture_output=True
    )
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_DIGESTS[demo]
