"""Declarative experiment configs: YAML loading, validation, and hashing.

One file describes one experiment (model, experiment kind, n or n grid,
sample count, mandatory seed, thresholds); ``KINDS`` says which keys and
thresholds each kind takes, and any other is an error; ``VALUES`` says what
each key's value must be, wherever the key appears.  Validation errors
cite the line of the offending key when the config came from a file.  The config
hash is the SHA-256 of the canonical JSON form of the effective document
without ``out`` and ``workers`` (results are the same for any output
directory and worker count) and is embedded in every output artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

import yaml

from .cwm import CouplingSpec, CurieWeissSequence
from .errors import ConfigError, DataError
from .limits import limit_for
from .measures import (
    CRITICAL,
    SUBCRITICAL,
    ExplicitSchedule,
    Gaussian,
    Mixture,
    PointMassMixture,
    PowerLawSchedule,
    Product,
    UniformBox,
    bias_map,
)
from .models import ContractedSequence, DeFinettiModel, GroupStructure, StaticSequence
from .verify import estimate_alpha


@dataclass(frozen=True)
class Kind:
    """What one experiment kind reads besides ``experiment``, ``seed``, ``workers`` and ``out``.

    Its ``required`` keys, exactly one key of ``one_of``, the keys of ``pair``
    all or none, and ``thresholds``, each with its default (None: ``ks`` is
    computed from ``count``; without ``alpha_range`` no range is checked).  A
    ``sequence`` names the only sequence kind its model may have; the
    ``pair_thresholds`` are read only when the ``pair`` is given.
    """

    required: tuple[str, ...] = ()
    one_of: tuple[str, ...] = ()
    pair: tuple[str, ...] = ()
    thresholds: dict = field(default_factory=dict)
    sequence: str | None = None
    pair_thresholds: tuple[str, ...] = ()

    @property
    def keys(self) -> tuple[str, ...]:
        """Every top-level key the kind takes; ``workers`` and ``out`` change no result."""
        return (("experiment", "seed", "workers", "out") + self.required + self.one_of
                + self.pair + (("thresholds",) if self.thresholds else ()))


#: what each experiment kind reads; its keys are the subcommands
KINDS = {
    "simulate": Kind(("model", "n", "count")),
    "verify-clt": Kind(("model", "n", "count"), thresholds={
        "target_law": "auto", "ks": None, "cross_correlation": 0.02}),
    "verify-llt": Kind(("model", "n_grid"), thresholds={"llt": 0.01}),
    "verify-cwm": Kind(("model",), ("n", "n_grid"), ("delta", "concentration_grid"),
                       {"equivalence": 1e-8, "r2": 0.999}, "curie-weiss", ("r2",)),
    "estimate-alpha": Kind(one_of=("input", "points"), thresholds={"alpha_range": None}),
    "correlation-decay": Kind(("model", "n_grid"), thresholds={"correlation": 0.01}),
}
TARGET_LAWS = ("auto", "gaussian")


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _yaml_line_map(root: yaml.Node | None) -> dict[str, int]:
    """Map dotted key paths to 1-based line numbers of a composed YAML document.

    A decimal integer longer than ``sys.get_int_max_str_digits()`` is an error at its line.
    """
    lines: dict[str, int] = {}
    limit = sys.get_int_max_str_digits()

    def walk(node, path):
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                walk(key_node, path)
                sub = f"{path}.{key_node.value}" if path else str(key_node.value)
                lines[sub] = key_node.start_mark.line + 1
                walk(value_node, sub)
        elif isinstance(node, yaml.SequenceNode):
            for idx, item in enumerate(node.value):
                sub = f"{path}[{idx}]"
                lines[sub] = item.start_mark.line + 1
                walk(item, sub)
        elif node.tag == "tag:yaml.org,2002:int":
            digits = node.value.lstrip("+-").replace("_", "")
            # a leading 0 reads in base 2, 8 or 16, which Python converts at any length
            if 0 < limit < len(digits) and digits.isdigit() and digits[0] != "0":
                _Doc(None, {path: node.start_mark.line + 1}).error(
                    f"an integer of {len(digits)} digits is past Python's limit of {limit} digits", path)

    if root is not None:
        walk(root, "")
    return lines


class _Doc:
    """A dict wrapper that anchors validation errors to config lines.

    ``lines`` maps a dotted key path to its line number, or to the flag
    that overrode the key; an error in an overridden key names only the flag.
    """

    def __init__(self, doc, lines=None, path=""):
        self.doc = doc
        self.lines = lines or {}
        self.path = path

    def error(self, message: str, key: str | None = None):
        path = f"{self.path}.{key}" if key and self.path else (key or self.path)
        line = self.lines.get(path)
        if isinstance(line, str):
            raise ConfigError(f"{line}: {message}")
        anchor = f"line {line}: " if line else ""
        where = f"{path}: " if path else ""
        raise ConfigError(f"{anchor}{where}{message}")

    def child(self, key):
        return _Doc(self.require(key), self.lines, f"{self.path}.{key}" if self.path else key)

    def entries(self, key):
        """The items of the list under ``key``, each anchored to its own line."""
        items = self.child(key)
        if not isinstance(items.doc, list):
            items.error("expected a list")
        return [_Doc(item, self.lines, f"{items.path}[{i}]") for i, item in enumerate(items.doc)]

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
        _check_keys(node, ("variant", "atoms"))
        atoms = []
        for atom in node.entries("atoms"):
            _check_keys(atom, ("location", "weight"))
            atoms.append((atom.require("location"), atom.require("weight")))
        return node.wrap(lambda: PointMassMixture(atoms), "atoms")
    if variant == "uniform-box":
        _check_keys(node, ("variant", "lower", "upper"))
        return node.wrap(lambda: UniformBox(node.require("lower"), node.require("upper")))
    if variant == "gaussian":
        _check_keys(node, ("variant", "mean", "covariance"))
        return node.wrap(lambda: Gaussian(node.require("mean"), node.require("covariance")))
    if variant == "product":
        _check_keys(node, ("variant", "factors"))
        factors = [_build_measure(factor) for factor in node.entries("factors")]
        return node.wrap(lambda: Product(factors), "factors")
    if variant == "mixture":
        _check_keys(node, ("variant", "components"))
        built = []
        for component in node.entries("components"):
            _check_keys(component, ("measure", "weight"))
            built.append((_build_measure(component.child("measure")), component.require("weight")))
        return node.wrap(lambda: Mixture(built), "components")
    node.error(f"unknown measure variant {variant!r}", "variant")


def _build_schedule(node: _Doc, m: int):
    kind = node.require("kind")
    if kind == "power-law":
        _check_keys(node, ("kind", "coefficient", "exponent"))
        return node.wrap(
            lambda: PowerLawSchedule(node.require("coefficient"), node.require("exponent"), m=m))
    if kind == "explicit":
        _check_keys(node, ("kind", "table", "regimes", "h"))
        table = node.child("table")
        if not isinstance(table.doc, dict):
            table.error("expected a mapping of populations to eps lists")
        # a key follows the rule of n; it and its eps are cited at the table's line
        for n, eps in table.doc.items():
            if not (_is_integer(n) and n > 0):
                table.error(f"key {n!r} must be a positive integer population")
            if not _holds_numbers(eps):
                table.error(f"eps of population {n} must be a number or a list of numbers")
        return node.wrap(
            lambda: ExplicitSchedule(
                node.require("table"), node.require("regimes"), node.doc.get("h")
            )
        )
    node.error(f"unknown schedule kind {kind!r}", "kind")


def _build_coupling(node: _Doc) -> CouplingSpec:
    _check_keys(node, ("beta", "j"))
    if "beta" in node.doc and "j" in node.doc:
        node.error("coupling takes either 'beta' or a matrix 'j', not both")
    if "beta" in node.doc:
        return node.wrap(lambda: CouplingSpec.single_group(node.doc["beta"]), "beta")
    if "j" in node.doc:
        return node.wrap(lambda: CouplingSpec(node.doc["j"]), "j")
    node.error("coupling needs either 'beta' or a matrix 'j'")


def build_model(node: _Doc) -> DeFinettiModel:
    _check_keys(node, ("groups", "bias_map", "sequence"))
    groups_node = node.child("groups")
    _check_keys(groups_node, ("m", "proportions"))
    groups = groups_node.wrap(
        lambda: GroupStructure(int(groups_node.require("m")), groups_node.require("proportions")))
    bmap = node.wrap(lambda: bias_map(node.require("bias_map")), "bias_map")
    seq_node = node.child("sequence")
    kind = seq_node.require("kind")
    if kind == "static":
        _check_keys(seq_node, ("kind", "base"))
        base = _build_measure(seq_node.child("base"))
        sequence = seq_node.wrap(lambda: StaticSequence(base), "base")
    elif kind == "contracted":
        _check_keys(seq_node, ("kind", "base", "schedule"))
        base = _build_measure(seq_node.child("base"))
        schedule = _build_schedule(seq_node.child("schedule"), groups.m)
        sequence = ContractedSequence(base, schedule)
    elif kind == "curie-weiss":
        _check_keys(seq_node, ("kind", "coupling"))
        sequence = CurieWeissSequence(_build_coupling(seq_node.child("coupling")))
    else:
        seq_node.error(f"unknown sequence kind {kind!r}", "kind")
    return node.wrap(lambda: DeFinettiModel(groups, sequence, bmap))


@dataclass
class ExperimentConfig:
    """A validated experiment plus the raw document it was built from.

    ``thresholds`` are those the document gives; a single ``n`` is an ``n_grid`` of one.
    ``workers`` is None when the document gives none, and the sampler then
    uses one per CPU the process may use.
    """

    experiment: str
    seed: int
    raw: dict
    model: DeFinettiModel | None = None
    n: int | None = None
    n_grid: tuple[int, ...] | None = None
    count: int | None = None
    workers: int | None = None
    out: str | None = None
    thresholds: dict = field(default_factory=dict)
    input_path: str | None = None
    delta: float | None = None
    concentration_grid: tuple[int, ...] | None = None
    #: where each key came from: its line, or the flag that overrode it
    anchors: dict = field(default_factory=dict, compare=False, repr=False)

    def error(self, message: str, key: str):
        """Raise a ConfigError about top-level ``key``, anchored as at load time."""
        _Doc(self.raw, self.anchors).error(message, key)

    def hash(self) -> str:
        return config_hash({k: v for k, v in self.raw.items() if k not in ("out", "workers")})

    def threshold(self, name: str):
        """The document's value of threshold ``name``, else its kind's default."""
        return self.thresholds.get(name, KINDS[self.experiment].thresholds[name])


def _llt_regime(model: DeFinettiModel) -> str | None:
    """The regime that keeps verify-llt from judging ``model``, or None if it can.

    ``verify.llt_sup_error`` compares the exact lattice law with the N(0, I)
    density, which is the limit only where ``limit_for`` gives N(0, I).
    """
    try:
        if limit_for(model).kind == "gaussian":
            return None
    except ConfigError:
        pass
    sequence = model.sequence
    if sequence.kind == "contracted":
        regimes = sequence.schedule.regimes
        return " and ".join(r for r in (CRITICAL, SUBCRITICAL) if r in regimes)
    return "mean-field" if sequence.kind == "curie-weiss" else "spread-out static"


def _is_number(value, kind=(int, float)) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """An integer-valued number: 3 and 3.0, not 3.5, "3" or True."""
    return _is_number(value, int) or (_is_number(value, float) and value.is_integer())


def _holds_numbers(value, rows=False) -> bool:
    """A number or list of numbers (no strings, bools or nulls); with ``rows``, also equal-length number lists."""
    if rows and isinstance(value, list) and value and all(isinstance(row, list) for row in value):
        return len(set(map(len, value))) == 1 and all(map(_holds_numbers, value))
    return _is_number(value) or isinstance(value, list) and all(map(_is_number, value))


_INTEGER = [(_is_integer, "must be an integer")]
_GRID = [(lambda v: isinstance(v, list) and all(_is_integer(x) and x > 0 for x in v),
          "must be a list of positive integers")]
# a run against a threshold at or below 0 can only fail; r2 above 1 too
_THRESHOLD = [(_is_number, "must be a number"),
              (lambda v: 0 < v < math.inf, "must be positive and finite, got {}")]

#: what each key's value must be, wherever the key appears: ordered (test,
#: end of message) rules, the first that fails giving the error "<key> <end>"
#: with the value in place of ``{}``; a null in a NULL_IS_ABSENT key is the key left out
VALUES = {
    "seed": [(lambda v: _is_integer(v) and v >= 0,
              "must be a nonnegative integer (no wall-clock default is provided)")],
    "workers": _INTEGER + [(lambda v: v >= 1, "must be at least 1")],
    **dict.fromkeys(("n", "count", "m"), _INTEGER),
    **dict.fromkeys(("n_grid", "concentration_grid"), _GRID),
    # (-1, 1)^M holds all the mixing mass, so from delta = 1 on every tail is 0
    "delta": [(lambda v: _is_number(v) and 0 < v < 1, "must be a positive number below 1")],
    "input": [(lambda v: isinstance(v, str) and v != "", "must be a nonempty path")],
    "out": [(lambda v: isinstance(v, str), "must be a path")],
    "points": [(lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) and p[0] > 0 for p in v),
        "must be a list of [population, margin] number pairs with population > 0")],
    "target_law": [(lambda v: v in TARGET_LAWS, f"must be one of {TARGET_LAWS}")],
    "alpha_range": [(lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))
                     and v[0] <= v[1], "must be two numbers lo <= hi")],
    **dict.fromkeys(("ks", "cross_correlation", "llt", "equivalence", "correlation"), _THRESHOLD),
    "r2": _THRESHOLD[:1] + [(lambda v: 0 < v <= 1, "must be in (0, 1], got {}")],
    **dict.fromkeys(("proportions", "location", "lower", "upper", "mean", "coefficient",
                     "exponent", "h"), [(_holds_numbers, "must be a number or a list of numbers")]),
    **dict.fromkeys(("weight", "beta"), [(_is_number, "must be a number")]),
    **dict.fromkeys(("covariance", "j"), [(lambda v: _holds_numbers(v, rows=True), "must be a number, "
                                           "a list of numbers or a list of number lists of one length")]),
    "thresholds": [(lambda v: isinstance(v, dict), "must be a mapping of threshold names to values")],
    # the names each may take stay with their owners, measures.bias_map and ExplicitSchedule
    "bias_map": [(lambda v: isinstance(v, str), "must be a name")],
    "regimes": [(lambda v: isinstance(v, list) and all(isinstance(r, str) for r in v),
                 "must be a list of regime names")],
}
NULL_IS_ABSENT = {"workers", "out", "n", "count", "n_grid", "concentration_grid", "delta",
                  "points", "h", "thresholds"}
#: the keys whose first rule asks for integers: their numbers stay exact at any
#: size, and every other number is read as a float
_INTEGER_KEYS = {key for key, rules in VALUES.items() if "integer" in rules[0][1]}


def _check_keys(node: _Doc, known) -> None:
    """Each key of the mapping ``node`` is one of ``known`` and keeps its ``VALUES`` rules."""
    if not isinstance(node.doc, dict):
        node.error("expected a mapping")
    for key, value in node.doc.items():
        if key not in known:
            node.error(f"unknown key {key!r}; expected one of {tuple(known)}", key)
        if value is None and key in NULL_IS_ABSENT:
            continue
        for test, end in VALUES.get(key, ()):
            if not test(value):
                node.error(f"{key} {end.format(value)}", key)


def _check_finite(root: _Doc) -> None:
    """Every number read as a float is finite: any other is an error at its own line."""

    def walk(value, path, key):
        if isinstance(value, dict):
            for name, item in value.items():
                walk(item, f"{path}.{name}" if path else str(name), name)
        elif isinstance(value, list):
            for idx, item in enumerate(value):
                walk(item, f"{path}[{idx}]", key)
        # nan compares false, and an integer compares with a float exactly
        elif _is_number(value) and key not in _INTEGER_KEYS and not abs(value) <= sys.float_info.max:
            got = value if isinstance(value, float) else f"an integer of {len(str(abs(value)))} digits"
            root.error(f"must be a finite number, got {got}", path)

    walk(root.doc, "", None)


def config_from_dict(doc: dict, lines: dict | None = None) -> ExperimentConfig:
    root = _Doc(doc, lines)
    experiment = root.require("experiment")
    if not isinstance(experiment, str) or experiment not in KINDS:
        root.error(f"unknown experiment kind {experiment!r}; expected one of {tuple(KINDS)}", "experiment")
    kind = KINDS[experiment]
    _check_keys(root, kind.keys)
    thresholds = doc.get("thresholds") or {}
    _check_keys(_Doc(thresholds, lines, "thresholds"), kind.thresholds)
    seed = root.require("seed")
    # an empty value (a zero count, an empty grid) counts as absent
    for key in kind.required:
        if not doc.get(key):
            root.error(f"this experiment needs {key!r}", key)
    for group, counts, rule in ((kind.one_of, {1}, "exactly one of"),
                                (kind.pair, {0, len(kind.pair)}, "all or none of")):
        given = [key for key in group if doc.get(key)]
        if group and len(given) not in counts:
            root.error(f"this experiment takes {rule} {group}", (given or group)[-1])
    n, count, workers = (int(doc[key]) if doc.get(key) is not None else None
                         for key in ("n", "count", "workers"))
    n_grid, sizes = (tuple(map(int, doc[key])) if doc.get(key) is not None else None
                     for key in ("n_grid", "concentration_grid"))
    # a grid on which a check cannot give a verdict: verify-llt and
    # correlation-decay read the n grid as an order, and a line fits any
    # two points of the concentration profile exactly
    if experiment in ("verify-llt", "correlation-decay"):
        if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
            root.error("n_grid must be strictly increasing", "n_grid")
        if experiment == "verify-llt" and len(n_grid) < 2:
            root.error("n_grid needs at least 2 sizes to compare the error across", "n_grid")
    if sizes and len(set(sizes)) < 3:
        root.error("concentration_grid needs at least 3 distinct sizes", "concentration_grid")
    unread = [name for name in kind.pair_thresholds if name in thresholds]
    if unread and not doc.get(kind.pair[0]):
        _Doc(thresholds, lines, "thresholds").error(
            f"read only with {kind.pair}; give those keys or drop the threshold", unread[0])

    _check_finite(root)

    model = build_model(root.child("model")) if "model" in kind.required else None
    if kind.sequence and model.sequence.kind != kind.sequence:
        root.error(f"{experiment} needs a {kind.sequence} sequence", "model")
    coupling = model.sequence.coupling if model and model.sequence.kind == "curie-weiss" else None
    # mu_n has a density unless the coupling is zero; the concentration profile always reads one
    if coupling is not None and (sizes or not coupling.is_zero):
        root.wrap(coupling.check_density, "model.sequence.coupling")
    if experiment == "verify-clt" and thresholds.get("target_law") != "gaussian":
        root.wrap(lambda: limit_for(model), "model")
    regime = _llt_regime(model) if experiment == "verify-llt" else None
    if regime:
        root.error(f"verify-llt compares the lattice law with the N(0, I) density, "
                   f"which is not the limit of a {regime} model", "model")
    if "count" in kind.required:
        # verify-clt correlates every pair of groups, which takes two samples
        least = 2 if experiment == "verify-clt" and model.groups.m > 1 else 1
        if count < least:
            why = " for the cross-correlation of two groups" if least > 1 else ""
            root.error(f"count must be at least {least}{why}", "count")
    for key, populations in (("n", (n,) if n else ()), ("n_grid", n_grid or ()),
                             ("concentration_grid", sizes or ())):
        for population in populations if model else ():
            # too small for its groups or missing from an explicit table, an
            # error at its key; past the guard, a ResourceError
            root.wrap(lambda: (model.groups.sizes(population), model.mixing_measure(population)), key)
    if doc.get("points"):
        try:
            estimate_alpha(doc["points"])
        except DataError as exc:
            root.error(str(exc), "points")
    return ExperimentConfig(
        experiment=experiment,
        seed=int(seed),
        raw=doc,
        model=model,
        n=n,
        n_grid=n_grid or ((n,) if n is not None else None),
        count=count,
        workers=workers,
        out=doc.get("out"),
        thresholds=thresholds,
        input_path=doc.get("input"),
        delta=doc.get("delta"),
        concentration_grid=sizes,
        anchors=root.lines,
    )


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a YAML config; non-None ``overrides`` replace its top-level keys.

    The text is parsed once: the composed node gives both the document and
    the line of every key, so errors in keys read from the file cite their
    line.  An error in an overridden key names the flag ``--key`` that
    overrides it on the command line instead.  A file that cannot be read
    as UTF-8 text (missing, a directory, other bytes) is a ConfigError too.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot read the config: {reason}") from None
    try:
        loader = yaml.SafeLoader(text)
        node = loader.get_single_node()
        lines = _yaml_line_map(node)
        doc = loader.construct_document(node) if node is not None else None
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    given = {key: value for key, value in (overrides or {}).items() if value is not None}
    doc.update(given)
    lines = {path: line for path, line in lines.items() if path.split(".")[0].split("[")[0] not in given}
    lines.update({key: f"--{key}" for key in given})
    return config_from_dict(doc, lines)
