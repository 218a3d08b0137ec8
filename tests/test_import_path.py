"""scipy stays off the import path; scipy.stats off every run.

``import votelim, votelim.cli`` loads numpy and PyYAML and nothing else
heavy.  Bare ``scipy`` loads when a run writes its manifest, which records
its version.  ``scipy.special`` (about a quarter second to import) loads at
first use: the first Gaussian or Gaussian-smoothed CDF (``ndtr``) or an
exact binomial table.  So ``subcritical_base``, ``subcritical_decay`` and
``decay_negative_control`` never load it, nor does the default KS threshold,
a stored constant.  ``scipy.stats`` (about a second) loads on no path:
binomial tables come from the ufunc behind ``scipy.stats.binom.pmf`` and
Gaussian quadrature nodes compute their density in numpy.

The run-time checks run in a fresh interpreter, since this test process has
long since loaded both.  That interpreter refuses every import of the
modules under test, so the first caller that tries one is named without
paying for the load.  Static checks find the imports the source may hold:
``scipy.special`` only inside functions, and ``scipy.stats`` only as the
public fallback inside ``_binom_table``, for a scipy without the private
ufunc.

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

#: the head of every fresh-interpreter script: ``refuse(name)`` makes every
#: later import of module ``name`` or its submodules raise ImportError, and
#: ``run_config(name)`` runs a shipped config through ``cli.run``
REFUSE = r"""
import json, sys, tempfile
from pathlib import Path

class Refuse:
    def __init__(self, name):
        self.name = name

    def find_spec(self, name, path=None, target=None):
        if name == self.name or name.startswith(self.name + "."):
            raise ImportError(f"import of {self.name} refused")
        return None

def refuse(name):
    sys.meta_path.insert(0, Refuse(name))

def run_config(name):
    from votelim.cli import run
    from votelim.config import load_config

    with tempfile.TemporaryDirectory() as tmp:
        return run(load_config(Path(sys.argv[1]) / f"{name}.yaml"), tmp)
"""


def run_script(body: str) -> dict:
    """Run ``REFUSE + body`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE + body, str(ROOT / "configs")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


STATS_SCRIPT = r"""
refuse("scipy.stats")

def loaded():
    return "scipy.stats" in sys.modules

stages = {}
import votelim, votelim.cli
stages["import"] = loaded()

from votelim import (CLAMP, ContractedSequence, DeFinettiModel, Gaussian, GroupStructure,
                     PowerLawSchedule, UniformBox, brute_force_pmf, exact_margin_pmf,
                     ks_statistic, limit_for, sample_margins)

model = DeFinettiModel(
    GroupStructure(2, [0.5, 0.5]),
    ContractedSequence(UniformBox([-1, -1], [1, 1]), PowerLawSchedule([1.0, 1.0], [0.75, 0.5])),
    CLAMP,
)
sample = sample_margins(model, 400, 3000, 5)
with tempfile.TemporaryDirectory() as tmp:
    sample.to_npy(Path(tmp) / "margins.npy")
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

def record(name):
    codes[name] = run_config(name)

for name in ("llt_baseline", "cwm_equivalence"):
    stages[name] = attempt(lambda: record(name))
print(json.dumps({"stages": stages, "kinds": kinds, "codes": codes}))
"""


def test_no_stage_loads_scipy_stats():
    result = run_script(STATS_SCRIPT)
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


SCIPY_SCRIPT = r"""
refuse("scipy")
import votelim, votelim.cli
print(json.dumps({"loaded": sorted(name for name in sys.modules if name.split(".")[0] == "scipy")}))
"""


def test_the_package_imports_without_scipy():
    """The manifest's scipy version is read when a run writes it, not at import."""
    assert run_script(SCIPY_SCRIPT) == {"loaded": []}


SPECIAL_SCRIPT = r"""
refuse("scipy.special")
import votelim, votelim.cli
loaded = "scipy.special" in sys.modules
codes = {name: run_config(name)
         for name in ("subcritical_base", "subcritical_decay", "decay_negative_control")}
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_subcritical_configs_run_without_scipy_special():
    """The import and the three configs that evaluate no Phi, KS quantile or binomial table."""
    result = run_script(SPECIAL_SCRIPT)
    assert result == {
        "loaded": False,
        "codes": {"subcritical_base": 0, "subcritical_decay": 0, "decay_negative_control": 1},
    }


DEFAULT_KS_SCRIPT = r"""
refuse("scipy.special")
import yaml
from votelim.cli import run
from votelim.config import config_from_dict

doc = yaml.safe_load((Path(sys.argv[1]) / "subcritical_base.yaml").read_text())
del doc["thresholds"]["ks"]
with tempfile.TemporaryDirectory() as tmp:
    code = run(config_from_dict(doc), tmp)
    reports = [json.loads(line) for line in Path(tmp, "reports.jsonl").read_text().splitlines()]
print(json.dumps({"loaded": "scipy.special" in sys.modules, "code": code,
                  "thresholds": [r["threshold"] for r in reports]}))
"""


def test_the_default_ks_threshold_loads_no_scipy_special():
    """subcritical_base without ``thresholds.ks`` computes the default as a stored constant."""
    from votelim.verify import ks_threshold

    result = run_script(DEFAULT_KS_SCRIPT)
    assert result == {"loaded": False, "code": 0, "thresholds": [ks_threshold(100_000)]}


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


def scipy_imports(source: str, sub: str) -> list[tuple]:
    """(enclosing function, inside ``except ImportError``) for each import of ``scipy.<sub>``."""
    found = []
    target = f"scipy.{sub}"

    def is_target(name: str) -> bool:
        return name == target or name.startswith(target + ".")

    def visit(node, function, guarded):
        if isinstance(node, ast.Import):
            hit = any(is_target(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = is_target(module) or (module == "scipy" and any(a.name == sub for a in node.names))
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


def source_imports(sub: str) -> dict[str, list[tuple]]:
    """``scipy_imports`` of every module of the package that has any."""
    found = {p.stem: scipy_imports(p.read_text(), sub) for p in (SRC / "votelim").glob("*.py")}
    return {name: hits for name, hits in found.items() if hits}


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
    assert scipy_imports(sample, "stats") == [(None, False), ("f", True), ("f", False)]
    assert source_imports("stats") == {"models": [("_binom_table", True)]}


def test_scipy_special_is_imported_only_inside_functions():
    sample = (
        "from scipy.special import ndtr\n"
        "import scipy.special._ufuncs\n"
        "from scipy import special, stats\n"
        "import scipy\n"
        "def f():\n"
        "    from scipy.special import kolmogi\n"
    )
    assert scipy_imports(sample, "special") == [(None, False)] * 3 + [("f", False)]
    found = source_imports("special")
    assert {"limits", "measures", "models"} <= found.keys()
    assert {name for name, hits in found.items() if any(f is None for f, _ in hits)} == set()
