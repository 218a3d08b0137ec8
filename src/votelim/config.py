"""Declarative experiment configs: YAML loading, validation, and hashing.

One file describes one experiment (model, experiment kind, n or n grid,
sample count, mandatory seed, thresholds).  Validation errors cite the
line of the offending key when the config came from a file.  The config
hash is the SHA-256 of the canonical JSON form of the effective document
and is embedded in every output artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import yaml

from .cwm import CouplingSpec
from .errors import ConfigError
from .measures import (
    ExplicitSchedule,
    Gaussian,
    Mixture,
    PointMassMixture,
    PowerLawSchedule,
    Product,
    UniformBox,
    bias_map,
)
from .models import (
    ContractedSequence,
    CurieWeissSequence,
    DeFinettiModel,
    GroupStructure,
    StaticSequence,
)

EXPERIMENT_KINDS = (
    "simulate",
    "verify-clt",
    "verify-llt",
    "verify-cwm",
    "estimate-alpha",
    "correlation-decay",
)

#: the keys a config document may carry; any other key is an error
TOP_LEVEL_KEYS = (
    "experiment", "seed", "model", "n", "n_grid", "count", "workers", "out",
    "thresholds", "input", "points", "delta", "concentration_grid",
)
THRESHOLD_KEYS = (
    "target_law", "ks", "cross_correlation", "llt", "equivalence", "r2",
    "alpha_range", "correlation",
)


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _yaml_line_map(text: str) -> dict[str, int]:
    """Map dotted key paths to 1-based line numbers of a YAML document."""
    lines: dict[str, int] = {}

    def walk(node, path):
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                sub = f"{path}.{key_node.value}" if path else str(key_node.value)
                lines[sub] = key_node.start_mark.line + 1
                walk(value_node, sub)
        elif isinstance(node, yaml.SequenceNode):
            for idx, item in enumerate(node.value):
                sub = f"{path}[{idx}]"
                lines[sub] = item.start_mark.line + 1
                walk(item, sub)

    root = yaml.compose(text)
    if root is not None:
        walk(root, "")
    return lines


class _Doc:
    """A dict wrapper that anchors validation errors to config lines."""

    def __init__(self, doc, lines=None, path=""):
        self.doc = doc
        self.lines = lines or {}
        self.path = path

    def error(self, message: str, key: str | None = None):
        path = f"{self.path}.{key}" if key and self.path else (key or self.path)
        line = self.lines.get(path)
        anchor = f"line {line}: " if line else ""
        where = f"{path}: " if path else ""
        raise ConfigError(f"{anchor}{where}{message}")

    def child(self, key):
        if not isinstance(self.doc, dict) or key not in self.doc:
            self.error(f"missing required key {key!r}")
        return _Doc(self.doc[key], self.lines, f"{self.path}.{key}" if self.path else key)

    def item(self, idx):
        if not isinstance(self.doc, (list, tuple)) or idx >= len(self.doc):
            self.error(f"expected a list with at least {idx + 1} entries")
        return _Doc(self.doc[idx], self.lines, f"{self.path}[{idx}]")

    def entries(self, key):
        """The items of the list under ``key``, each anchored to its own line."""
        items = self.child(key)
        if not isinstance(items.doc, list):
            items.error("expected a list")
        return [items.item(i) for i in range(len(items.doc))]

    def get(self, key, default=None):
        if not isinstance(self.doc, dict):
            self.error("expected a mapping")
        return self.doc.get(key, default)

    def require(self, key):
        if not isinstance(self.doc, dict) or key not in self.doc:
            self.error(f"missing required key {key!r}")
        return self.doc[key]

    def wrap(self, fn, key=None):
        """Run a constructor, re-anchoring any ConfigError it raises."""
        try:
            return fn()
        except ConfigError as exc:
            self.error(str(exc), key)


def _build_measure(node: _Doc):
    variant = node.require("variant")
    if variant == "point-mass-mixture":
        _reject_unknown_keys(node, ("variant", "atoms"))
        atoms = []
        for atom in node.entries("atoms"):
            _reject_unknown_keys(atom, ("location", "weight"))
            atoms.append((atom.require("location"), atom.require("weight")))
        return node.wrap(lambda: PointMassMixture(atoms), "atoms")
    if variant == "uniform-box":
        _reject_unknown_keys(node, ("variant", "lower", "upper"))
        return node.wrap(lambda: UniformBox(node.require("lower"), node.require("upper")))
    if variant == "gaussian":
        _reject_unknown_keys(node, ("variant", "mean", "covariance"))
        return node.wrap(lambda: Gaussian(node.require("mean"), node.require("covariance")))
    if variant == "product":
        _reject_unknown_keys(node, ("variant", "factors"))
        factors = [_build_measure(factor) for factor in node.entries("factors")]
        return node.wrap(lambda: Product(factors), "factors")
    if variant == "mixture":
        _reject_unknown_keys(node, ("variant", "components"))
        built = []
        for component in node.entries("components"):
            _reject_unknown_keys(component, ("measure", "weight"))
            built.append((_build_measure(component.child("measure")), component.require("weight")))
        return node.wrap(lambda: Mixture(built), "components")
    node.error(f"unknown measure variant {variant!r}", "variant")


def _build_schedule(node: _Doc):
    kind = node.require("kind")
    if kind == "power-law":
        _reject_unknown_keys(node, ("kind", "coefficient", "exponent"))
        return node.wrap(
            lambda: PowerLawSchedule(node.require("coefficient"), node.require("exponent"))
        )
    if kind == "explicit":
        _reject_unknown_keys(node, ("kind", "table", "regimes", "h"))
        return node.wrap(
            lambda: ExplicitSchedule(
                node.require("table"), node.require("regimes"), node.get("h")
            )
        )
    node.error(f"unknown schedule kind {kind!r}", "kind")


def _build_coupling(node: _Doc) -> CouplingSpec:
    _reject_unknown_keys(node, ("beta", "j"))
    if "beta" in node.doc and "j" in node.doc:
        node.error("coupling takes either 'beta' or a matrix 'j', not both")
    if "beta" in node.doc:
        return node.wrap(lambda: CouplingSpec.single_group(node.doc["beta"]), "beta")
    if "j" in node.doc:
        return node.wrap(lambda: CouplingSpec(node.doc["j"]), "j")
    node.error("coupling needs either 'beta' or a matrix 'j'")


def build_model(node: _Doc) -> DeFinettiModel:
    _reject_unknown_keys(node, ("groups", "bias_map", "sequence"))
    groups_node = node.child("groups")
    _reject_unknown_keys(groups_node, ("m", "proportions"))
    groups = groups_node.wrap(
        lambda: GroupStructure(groups_node.require("m"), groups_node.require("proportions"))
    )
    bmap = node.wrap(lambda: bias_map(node.require("bias_map")), "bias_map")
    seq_node = node.child("sequence")
    kind = seq_node.require("kind")
    if kind == "static":
        _reject_unknown_keys(seq_node, ("kind", "base"))
        base = _build_measure(seq_node.child("base"))
        sequence = seq_node.wrap(lambda: StaticSequence(base), "base")
    elif kind == "contracted":
        _reject_unknown_keys(seq_node, ("kind", "base", "schedule"))
        base = _build_measure(seq_node.child("base"))
        schedule = _build_schedule(seq_node.child("schedule"))
        m = groups.m
        if isinstance(schedule, PowerLawSchedule) and schedule.m == 1 and m > 1:
            schedule = PowerLawSchedule(
                schedule.coefficients * m, schedule.exponents * m, m=m
            )
        sequence = ContractedSequence(base, schedule)
    elif kind == "curie-weiss":
        _reject_unknown_keys(seq_node, ("kind", "coupling"))
        sequence = CurieWeissSequence(_build_coupling(seq_node.child("coupling")))
    else:
        seq_node.error(f"unknown sequence kind {kind!r}", "kind")
    return node.wrap(lambda: DeFinettiModel(groups, sequence, bmap))


@dataclass
class ExperimentConfig:
    """A validated experiment plus the raw document it was built from."""

    experiment: str
    seed: int
    raw: dict
    model: DeFinettiModel | None = None
    n: int | None = None
    n_grid: tuple[int, ...] | None = None
    count: int | None = None
    workers: int = 1
    out: str | None = None
    thresholds: dict = field(default_factory=dict)
    input_path: str | None = None
    delta: float | None = None
    concentration_grid: tuple[int, ...] | None = None

    def hash(self) -> str:
        return config_hash(self.raw)


_NEEDS_MODEL = {"simulate", "verify-clt", "verify-llt", "verify-cwm", "correlation-decay"}
_NEEDS_COUNT = {"simulate", "verify-clt"}
_NEEDS_GRID = {"verify-llt", "correlation-decay"}


def _reject_unknown_keys(node: _Doc, known) -> None:
    if not isinstance(node.doc, dict):
        node.error("expected a mapping")
    for key in node.doc:
        if key not in known:
            node.error(f"unknown key {key!r}; expected one of {tuple(known)}", key)


def _is_number(value, kind=(int, float)) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def config_from_dict(doc: dict, lines: dict | None = None) -> ExperimentConfig:
    root = _Doc(doc, lines)
    _reject_unknown_keys(root, TOP_LEVEL_KEYS)
    thresholds = doc.get("thresholds") or {}
    if not isinstance(thresholds, dict):
        root.error("expected a mapping of threshold names to values", "thresholds")
    _reject_unknown_keys(_Doc(thresholds, lines, "thresholds"), THRESHOLD_KEYS)
    delta = doc.get("delta")
    if delta is not None and not (_is_number(delta) and 0 < delta < float("inf")):
        root.error("delta must be a positive number", "delta")
    grid = doc.get("concentration_grid")
    if grid is not None and not (
        isinstance(grid, list) and all(_is_number(x, int) and x > 0 for x in grid)
    ):
        root.error("concentration_grid must be a list of positive integers", "concentration_grid")
    experiment = root.require("experiment")
    if experiment not in EXPERIMENT_KINDS:
        root.error(f"unknown experiment kind {experiment!r}; expected one of {EXPERIMENT_KINDS}", "experiment")
    seed = root.require("seed")
    if not isinstance(seed, int):
        root.error("seed must be an integer (no wall-clock default is provided)", "seed")

    model = None
    if experiment in _NEEDS_MODEL:
        if "model" not in doc:
            root.error("this experiment needs a model", "model")
        model = build_model(root.child("model"))
        if experiment == "verify-cwm" and model.sequence.kind != "curie-weiss":
            root.error("verify-cwm needs a curie-weiss sequence", "model")

    cfg = ExperimentConfig(
        experiment=experiment,
        seed=int(seed),
        raw=doc,
        model=model,
        n=int(doc["n"]) if doc.get("n") is not None else None,
        n_grid=tuple(int(x) for x in doc["n_grid"]) if "n_grid" in doc else None,
        count=int(doc["count"]) if doc.get("count") is not None else None,
        workers=int(doc.get("workers", 1)),
        out=doc.get("out"),
        thresholds=thresholds,
        input_path=doc.get("input"),
        delta=delta,
        concentration_grid=tuple(grid) if grid is not None else None,
    )
    if experiment in _NEEDS_COUNT and not cfg.count:
        root.error("this experiment needs a sample count", "count")
    if experiment in _NEEDS_GRID and not cfg.n_grid:
        root.error("this experiment needs an n_grid", "n_grid")
    if experiment in _NEEDS_MODEL and experiment != "verify-cwm" and cfg.n is None and cfg.n_grid is None:
        root.error("this experiment needs n or n_grid", "n")
    if experiment == "verify-cwm" and cfg.n is None and cfg.n_grid is None:
        root.error("verify-cwm needs n or n_grid for the equivalence check", "n")
    if experiment == "estimate-alpha" and not cfg.input_path and "points" not in doc:
        root.error("estimate-alpha needs an input CSV path or inline points", "input")
    if cfg.workers < 1:
        root.error("workers must be at least 1", "workers")
    return cfg


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a YAML config; non-None ``overrides`` replace its top-level keys.

    Errors in keys read from the file cite their line.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    doc.update({key: value for key, value in (overrides or {}).items() if value is not None})
    return config_from_dict(doc, _yaml_line_map(text))
