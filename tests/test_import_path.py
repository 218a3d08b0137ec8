"""scipy.stats stays off the import path, the verify-clt path and the exact layer.

Importing scipy.stats costs about a second, several times what a verify-clt,
verify-llt or verify-cwm run spends on its work.  No path uses it: binomial
tables come from the ufunc behind ``scipy.stats.binom.pmf`` and Gaussian
quadrature nodes compute their density in numpy.  The run-time checks run in
a fresh interpreter, since this test process has long since loaded
scipy.stats.  That interpreter refuses every import of scipy.stats, so the
first caller that tries one is named without paying for the load.  A static
check finds the one import the source may hold: the public fallback inside
``_binom_table``, for a scipy without the private ufunc.

The package's modules also import each other without a cycle, lazy imports
inside functions included.
"""

import ast
import graphlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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

from votelim import (CLAMP, ContractedSequence, DeFinettiModel, Gaussian, GroupStructure,
                     PowerLawSchedule, UniformBox, brute_force_pmf, exact_margin_pmf,
                     ks_statistic, limit_for, sample_margins)
from votelim.config import load_config

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

def attempt(call):
    try:
        call()
    except ImportError as exc:
        return str(exc)
    return "no import"

correlated = Gaussian([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
stages["gaussian-nodes"] = attempt(lambda: correlated.quad_nodes(64))
stages["exact"] = attempt(lambda: exact_margin_pmf(model, 6))
stages["brute-force"] = attempt(lambda: brute_force_pmf(model, 6))
codes = {}

def run_config(name):
    with tempfile.TemporaryDirectory() as tmp:
        codes[name] = votelim.cli.run(load_config(Path(sys.argv[1]) / f"{name}.yaml"), tmp)

for name in ("llt_baseline", "cwm_equivalence"):
    stages[name] = attempt(lambda: run_config(name))
print(json.dumps({"stages": stages, "kinds": kinds, "codes": codes}))
"""


def test_no_stage_loads_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "configs")], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # a fast and a critical group: Gaussian noise alone, and Gaussian noise
    # convolved with the uniform base (the quadrature-refined CDF)
    assert result["kinds"] == [[True, False], [True, True]]
    assert result["stages"] == {
        "import": False,
        "verify-clt": False,
        "gaussian-nodes": "no import",
        "exact": "no import",
        "brute-force": "no import",
        "llt_baseline": "no import",
        "cwm_equivalence": "no import",
    }
    assert result["codes"] == {"llt_baseline": 0, "cwm_equivalence": 0}


# -- layering -------------------------------------------------------------------

MODULES = {p.stem: p for p in (SRC / "votelim").glob("*.py") if p.stem != "__init__"}


def package_imports(source: str) -> set[str]:
    """The package's modules that ``source`` imports, in function bodies too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level and not module) or module == "votelim":
                found.update(alias.name for alias in node.names)
            elif node.level:
                found.add(module.split(".")[0])
            elif module.startswith("votelim."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("votelim."))
    return found & MODULES.keys()


def test_package_modules_import_without_cycles():
    lazy = "def f():\n    from . import cwm\n    from .models import x\n    import votelim.limits\n"
    assert package_imports(lazy) == {"cwm", "models", "limits"}
    graph = {name: package_imports(path.read_text()) for name, path in MODULES.items()}
    assert "models" in graph["cwm"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def scipy_stats_imports(source: str) -> list[tuple]:
    """(enclosing function, inside ``except ImportError``) for each import of scipy.stats."""
    found = []

    def is_stats(name: str) -> bool:
        return name == "scipy.stats" or name.startswith("scipy.stats.")

    def visit(node, function, guarded):
        if isinstance(node, ast.Import):
            hit = any(is_stats(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = is_stats(module) or (module == "scipy" and any(a.name == "stats" for a in node.names))
        else:
            hit = False
        if hit:
            found.append((function, guarded))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler):
            guarded = isinstance(node.type, ast.Name) and node.type.id == "ImportError"
        for child in ast.iter_child_nodes(node):
            visit(child, function, guarded)

    visit(ast.parse(source), None, False)
    return found


def test_scipy_stats_is_imported_only_as_the_binomial_fallback():
    sample = (
        "import scipy.stats\n"
        "def f():\n"
        "    try:\n"
        "        pass\n"
        "    except ImportError:\n"
        "        from scipy import stats\n"
        "    from scipy.stats import norm\n"
    )
    assert scipy_stats_imports(sample) == [(None, False), ("f", True), ("f", False)]
    found = {p.stem: scipy_stats_imports(p.read_text()) for p in (SRC / "votelim").glob("*.py")}
    assert {name: hits for name, hits in found.items() if hits} == {
        "models": [("_binom_table", True)]
    }
