"""The package runs on numpy alone: no import of scipy anywhere on the fit path."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
sys.path.insert(0, sys.argv[1])
import numpy as np
import proxkern

matrix, labels = proxkern.ball_dataset(20, seed=1)
model = proxkern.fit_corrected_model(matrix, m=10, mode="flip")
assert model.r is not None
report = proxkern.crossvalidate(matrix, labels, m=10, mode="flip", folds=2, repeats=1)
assert len(report.accuracies) == 2
print("ok")
"""


def test_fit_and_crossvalidate_without_scipy():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
