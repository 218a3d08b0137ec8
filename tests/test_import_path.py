"""scipy.stats stays off the import path and the verify-clt path.

Importing scipy.stats costs about a second, several times what a verify-clt
run spends on its work, and only the exact layer and Gaussian quadrature
use it.  The checks run in a fresh interpreter, since this test process
has long since loaded scipy.stats.  That interpreter refuses every import
of scipy.stats, so the first caller that tries one is named without paying
for the load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json, sys, tempfile
from pathlib import Path

class RefuseScipyStats:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.stats" or name.startswith("scipy.stats."):
            raise ImportError("import of scipy.stats refused")
        return None

sys.meta_path.insert(0, RefuseScipyStats())

def loaded():
    return "scipy.stats" in sys.modules

stages = {}
import votelim, votelim.cli
stages["import"] = loaded()

from votelim import (CLAMP, ContractedSequence, DeFinettiModel, GroupStructure,
                     PowerLawSchedule, UniformBox, exact_margin_pmf, ks_statistic,
                     limit_for, sample_margins)

model = DeFinettiModel(
    GroupStructure(2, [0.5, 0.5]),
    ContractedSequence(UniformBox([-1, -1], [1, 1]), PowerLawSchedule([1.0, 1.0], [0.75, 0.5])),
    CLAMP,
)
sample = sample_margins(model, 400, 3000, 5)
with tempfile.TemporaryDirectory() as tmp:
    sample.to_csv(Path(tmp) / "margins.csv")
law = limit_for(model)
kinds = []
for g in range(2):
    marginal = law.marginal(g)
    kinds.append([marginal.gauss_mask[0], marginal.base is not None])
    ks_statistic(sample.normalized[:, g], marginal.cdf)
stages["verify-clt"] = loaded()

try:
    exact_margin_pmf(model, 6)
    stages["exact"] = "no import"
except ImportError as exc:
    stages["exact"] = str(exc)
print(json.dumps({"stages": stages, "kinds": kinds}))
"""


def test_scipy_stats_loads_only_with_the_exact_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # a fast and a critical group: Gaussian noise alone, and Gaussian noise
    # convolved with the uniform base (the quadrature-refined CDF)
    assert result["kinds"] == [[True, False], [True, True]]
    assert result["stages"] == {
        "import": False,
        "verify-clt": False,
        "exact": "import of scipy.stats refused",
    }
