import contextlib
import copy
import errno
import functools
import io
import json
import operator
import os
import platform
import re
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy
import yaml
from hypothesis import given, settings

import votelim.cli as cli
from votelim import ConfigError, DataError, LimitLaw, models
from votelim.cli import ingest_margins, main, run
from votelim.config import (
    KINDS, NULL_IS_ABSENT, VALUES, canonical_json, config_from_dict, config_hash, load_config)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def small_clt_doc(**overrides):
    doc = {
        "experiment": "verify-clt",
        "seed": 42,
        "model": {
            "groups": {"m": 1, "proportions": [1.0]},
            "bias_map": "clamp",
            "sequence": {
                "kind": "contracted",
                "base": {"variant": "uniform-box", "lower": [-1], "upper": [1]},
                "schedule": {"kind": "power-law", "coefficient": 1.0, "exponent": 0.75},
            },
        },
        "n": 400,
        "count": 2000,
        "thresholds": {"ks": 0.08},
    }
    doc.update(overrides)
    return doc


def small_simulate_doc():
    doc = small_clt_doc(experiment="simulate")
    del doc["thresholds"]
    return doc


def shipped_doc(name, **overrides):
    return {**yaml.safe_load((CONFIGS / f"{name}.yaml").read_text()), **overrides}


# -- config handling --------------------------------------------------------------

def test_config_roundtrips_through_yaml():
    doc = small_clt_doc()
    assert yaml.safe_load(yaml.safe_dump(doc)) == doc
    assert config_hash(doc) == config_hash(yaml.safe_load(yaml.safe_dump(doc)))


def test_canonical_json_is_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_seed_is_mandatory():
    doc = small_clt_doc()
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(doc)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        config_from_dict(small_clt_doc(experiment="frobnicate"))


def test_missing_model_sections_are_anchored_errors():
    doc = small_clt_doc()
    del doc["model"]["groups"]
    with pytest.raises(ConfigError, match="groups"):
        config_from_dict(doc)
    doc = small_clt_doc()
    del doc["model"]["sequence"]["base"]
    with pytest.raises(ConfigError, match="base"):
        config_from_dict(doc)


def test_validation_error_cites_line_and_invariant(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    text = yaml.safe_dump(small_clt_doc(), sort_keys=False)
    text = text.replace("exponent: 0.75", "exponent: -0.75")
    cfg.write_text(text)
    code = main(["verify-clt", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "eps_n -> 0" in err
    line_of_schedule = next(
        i + 1 for i, ln in enumerate(text.splitlines()) if "schedule" in ln
    )
    assert f"line {line_of_schedule}" in err


def test_resource_guard_exit_code(tmp_path, capsys):
    cfg = tmp_path / "huge.yaml"
    doc = {
        "experiment": "verify-llt",
        "seed": 1,
        "model": small_clt_doc()["model"],
        "n_grid": [10**8, 10**9],
    }
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["verify-llt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "resource guard" in capsys.readouterr().err


def test_memory_error_maps_to_resource_exit_code(tmp_path, monkeypatch, capsys):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "run", exhausted)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(small_clt_doc()))
    assert main(["verify-clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "out of memory" in capsys.readouterr().err


def test_a_sample_over_the_budget_exits_3_before_sampling(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(models, "SAMPLE_GUARD", 1000)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(small_clt_doc(count=2000)))
    out = tmp_path / "o"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "resource guard: 2000 samples of 1 group margins exceed the 1000-margin budget\n"
    assert not (out / "margins.npy").exists()
    # a sample of exactly the budget is drawn
    cfg.write_text(yaml.safe_dump({**small_simulate_doc(), "count": 1000}))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "margins.npy").exists()


def test_subcommand_must_match_config(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(small_clt_doc()))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def _line_of(text, fragment):
    return next(i + 1 for i, ln in enumerate(text.splitlines()) if fragment in ln)


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf-8"])
def test_an_unreadable_config_exits_2_naming_its_path(tmp_path, capsys, case):
    path = tmp_path / "c.yaml"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf-8":
        path.write_bytes(yaml.safe_dump(small_clt_doc()).encode() + b"# \xff\n")
    assert main(["verify-clt", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: cannot read the config: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_misspelled_top_level_key_is_an_anchored_error(tmp_path, capsys):
    cfg = tmp_path / "typo.yaml"
    text = yaml.safe_dump(small_clt_doc(), sort_keys=False).replace("thresholds:", "thresholdz:")
    cfg.write_text(text)
    assert main(["verify-clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'thresholdz'" in err
    assert f"line {_line_of(text, 'thresholdz')}" in err


def test_unknown_threshold_name_is_an_anchored_error(tmp_path):
    cfg = tmp_path / "typo.yaml"
    text = yaml.safe_dump(small_clt_doc(thresholds={"ks": 0.08, "kss": 0.01}), sort_keys=False)
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=f"line {_line_of(text, 'kss')}: thresholds.kss: unknown key"):
        load_config(cfg)
    with pytest.raises(ConfigError, match="thresholds: expected a mapping"):
        config_from_dict(small_clt_doc(thresholds=[0.08]))


@pytest.mark.parametrize("delta", [0, -0.5, "0.5", True, float("inf"), 1.0, 1.5])
def test_delta_must_be_a_positive_number(tmp_path, delta):
    cfg = tmp_path / "c.yaml"
    text = yaml.safe_dump(shipped_doc("cwm_equivalence", delta=delta), sort_keys=False)
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=rf"^line {_line_of(text, 'delta:')}: delta: delta must be a positive number"):
        load_config(cfg)


@pytest.mark.parametrize("grid", [[20, 0], [20, 40.5], [True], "20", 20])
def test_concentration_grid_must_hold_positive_integers(grid):
    with pytest.raises(ConfigError, match="concentration_grid must be a list of positive integers"):
        config_from_dict(shipped_doc("cwm_equivalence", concentration_grid=grid))


@pytest.mark.parametrize(
    "kind, key, grid, message",
    [
        ("verify-cwm", "concentration_grid", [20], "at least 3 distinct sizes"),
        ("verify-cwm", "concentration_grid", [20, 40], "at least 3 distinct sizes"),
        ("verify-cwm", "concentration_grid", [20, 20, 40], "at least 3 distinct sizes"),
        ("verify-llt", "n_grid", [100], "at least 2 sizes"),
        ("verify-llt", "n_grid", [1000, 100], "strictly increasing"),
        ("correlation-decay", "n_grid", [1000, 100], "strictly increasing"),
        ("correlation-decay", "n_grid", [100, 100, 1000], "strictly increasing"),
    ],
    ids=["cwm-one-size", "cwm-two-sizes", "cwm-two-distinct-sizes", "llt-one-size", "llt-decreasing",
         "decay-decreasing", "decay-repeated"],
)
def test_a_grid_that_cannot_give_a_verdict_exits_2_citing_its_line(tmp_path, capsys, kind, key, grid,
                                                                   message):
    # two points fit a line exactly, one llt error has nothing to fall from,
    # and both ordered checks read the grid from left to right
    text = yaml.safe_dump({**_KIND_DOCS[kind](), key: grid}, sort_keys=False)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {_key_line(text, key)}: {key}: ") and message in err
    assert err.count("\n") == 1 and not out.joinpath("reports.jsonl").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("n", "abc"),
        ("n", 10000.7),
        ("workers", "two"),
        ("n_grid", 5),
        ("count", 2.5),
        ("seed", True),
        ("seed", -1),
        ("thresholds.ks", "abc"),
        ("thresholds.cross_correlation", [1]),
        ("thresholds.target_law", "gausian"),
        ("workers", 0),
        ("workers", -2),
        ("thresholds.ks", float("nan")),
        ("thresholds.ks", -1),
        ("count", 1),
        # a grid entry follows the rule of n: an integer-valued number, not a bool or a string
        ("n_grid", [100.5, 1000]),
        ("n_grid", ["100", 1000]),
        ("n_grid", [True, 1000]),
        # schedule numbers follow the same rules: a table key is cited at the table's line
        ("schedule.table", {10000.5: [0.125, 0.0625]}),
        ("schedule.table", {"10000": [0.125, 0.0625]}),
        ("schedule.table", {True: [0.125, 0.0625]}),
        ("schedule.table", {10000: ["0.125", 0.0625]}),
        ("schedule.table", {10000: [True, 0.0625]}),
        ("schedule.coefficient", "1.0"),
        ("schedule.exponent", True),
    ],
)
def test_bad_config_values_exit_2_before_sampling(tmp_path, capsys, key, value):
    doc = yaml.safe_load((CONFIGS / "fast_clt.yaml").read_text())
    if key.startswith("thresholds."):
        doc["thresholds"][key.split(".")[1]] = value
    elif key.startswith("schedule."):
        sequence = doc["model"]["sequence"]
        if key == "schedule.table":
            sequence["schedule"] = {"kind": "explicit", "regimes": ["fast", "fast"]}
        sequence["schedule"][key.split(".")[1]] = value
    else:
        doc[key] = value
    cfg = tmp_path / "bad.yaml"
    text = yaml.safe_dump(doc, sort_keys=False)
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {_key_line(text, key)}: ")
    assert not (out / "margins.npy").exists()


_ATOM_0 = "model.sequence.base.atoms.0"
_VECTOR_RULE = "must be a number or a list of numbers"


@pytest.mark.parametrize("name, node, mapping, key, end", [
    ("critical_clt", _ATOM_0, {"location": ["-2.0"], "weight": 0.5}, "location", _VECTOR_RULE),
    ("critical_clt", _ATOM_0, {"location": [True], "weight": 0.5}, "location", _VECTOR_RULE),
    ("critical_clt", _ATOM_0, {"location": None, "weight": 0.5}, "location", _VECTOR_RULE),
    # a null weight once reached numpy's sampler as a nan probability
    ("critical_clt", _ATOM_0, {"location": [-2.0], "weight": None}, "weight", "must be a number"),
    ("cwm_equivalence", "model.sequence.coupling", {"beta": "0.5"}, "beta", "must be a number"),
    ("cwm_equivalence", "model.sequence.coupling", {"beta": True}, "beta", "must be a number"),
    ("cwm_equivalence", "model.sequence.coupling", {"j": [["0.5"]]}, "j",
     "must be a number or a list of numbers or of number lists"),
    ("critical_clt", "model.groups", {"m": 1, "proportions": ["1.0"]}, "proportions", _VECTOR_RULE),
    ("subcritical_base", "model.sequence.base",
     {"variant": "uniform-box", "lower": ["-1"], "upper": [1]}, "lower", _VECTOR_RULE),
    ("subcritical_base", "model.sequence.base",
     {"variant": "gaussian", "mean": [0.0], "covariance": [["1"]]}, "covariance",
     "must be a number or a list of numbers or of number lists"),
])
def test_bad_model_leaves_exit_2_at_their_line(tmp_path, capsys, name, node, mapping, key, end):
    doc = shipped_doc(name)
    *parents, last = [int(part) if part.isdigit() else part for part in node.split(".")]
    functools.reduce(operator.getitem, parents, doc)[last] = mapping
    text = yaml.safe_dump(doc, sort_keys=False)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main([doc["experiment"], "--config", str(cfg), "--out", str(out)]) == 2
    # the node's first line holding the key, as safe_dump writes it
    line = text[: re.search(rf"^ *(- )?{key}:", text, re.M).start()].count("\n") + 1
    where = re.sub(r"\.(\d+)", r"[\1]", node)
    assert capsys.readouterr().err == f"error: line {line}: {where}.{key}: {key} {end}\n"
    assert not out.exists()


@pytest.mark.parametrize("name, key, value", [
    ("fast_clt", "n", 3),
    ("critical_clt", "n", -5),
    ("llt_baseline", "n_grid", [1, 100]),
    ("cwm_equivalence", "n_grid", [1, 8]),
    ("cwm_equivalence", "concentration_grid", [1, 20, 40]),
])
def test_a_population_too_small_for_its_groups_exits_2_at_its_line(tmp_path, capsys, name, key,
                                                                    value):
    doc = shipped_doc(name, **{key: value})
    text = yaml.safe_dump(doc, sort_keys=False)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main([doc["experiment"], "--config", str(cfg), "--out", str(out)]) == 2
    population, m = value[0] if isinstance(value, list) else value, doc["model"]["groups"]["m"]
    assert capsys.readouterr().err == (
        f"error: line {_key_line(text, key)}: {key}: population {population} cannot give "
        f"every one of {m} groups at least 2 voters\n")
    assert not out.exists()


def test_a_population_past_the_guard_exits_3_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(shipped_doc("fast_clt", n=10**13), sort_keys=False))
    out = tmp_path / "o"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "resource guard: population 10000000000000 exceeds the overflow guard\n"
    assert not (out / "manifest.json").exists()


def _groups_m_doc(kind, m):
    """A two-group static simulate, or fast_clt (contracted), with ``groups.m`` set to ``m``."""
    if kind == "simulate":
        doc = small_simulate_doc()
        doc["model"] = {
            "groups": {"m": m, "proportions": [0.5, 0.5]},
            "bias_map": "clamp",
            "sequence": {"kind": "static", "base": {
                "variant": "point-mass-mixture", "atoms": [{"location": [0.0, 0.0], "weight": 1.0}]}},
        }
        return doc
    doc = shipped_doc("fast_clt")
    doc["model"]["groups"]["m"] = m
    return doc


@pytest.mark.parametrize("kind", ["simulate", "verify-clt"])
@pytest.mark.parametrize("m", [2.5, "2", True], ids=["2.5", "str", "true"])
def test_groups_m_must_be_an_integer(tmp_path, capsys, kind, m):
    # the rule n and count follow: a bool is no integer, so true is not one group
    text = yaml.safe_dump(_groups_m_doc(kind, m), sort_keys=False)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
    line = text[: re.search(r"^    m:", text, re.M).start()].count("\n") + 1
    assert capsys.readouterr().err == f"error: line {line}: model.groups.m: m must be an integer\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["simulate", "verify-clt"])
def test_an_integer_valued_float_groups_m_is_that_many_groups(tmp_path, kind):
    outputs = []
    for m in (2, 2.0):
        cfg = tmp_path / f"{m}.yaml"
        cfg.write_text(yaml.safe_dump(_groups_m_doc(kind, m), sort_keys=False))
        out = tmp_path / f"o{m}"
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append((out / "margins.npy").read_bytes())
    assert outputs[1] == outputs[0]
    assert np.load(tmp_path / "o2.0" / "margins.npy").shape[1] == 2


@pytest.mark.parametrize("name, kind, key", [
    ("llt_baseline", "verify-llt", "n_grid"),
    ("cwm_equivalence", "verify-cwm", "n_grid"),
    ("cwm_equivalence", "verify-cwm", "concentration_grid"),
])
def test_integer_valued_float_grid_entries_give_the_shipped_reports(tmp_path, name, kind, key):
    # the rule of n: 100.0 is the population 100
    doc = shipped_doc(name)
    doc[key] = [float(x) for x in doc[key]]
    grid = getattr(config_from_dict(doc), key)
    assert grid == tuple(shipped_doc(name)[key]) and all(type(x) is int for x in grid)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
    for path, out in ((CONFIGS / f"{name}.yaml", "shipped"), (cfg, "float")):
        assert main([kind, "--config", str(path), "--out", str(tmp_path / out)]) == 0
    reports = [(tmp_path / out / "reports.jsonl").read_bytes() for out in ("shipped", "float")]
    assert reports[1] == reports[0]


@pytest.mark.parametrize(
    "name, flag, value, message",
    [
        ("fast_clt", "--workers", "0", "workers must be at least 1"),
        ("llt_baseline", "--workers", "0", "workers must be at least 1"),
        ("fast_clt", "--seed", "-1", "seed must be a nonnegative integer"),
    ],
)
def test_a_failing_override_names_its_flag(tmp_path, capsys, name, flag, value, message):
    # fast_clt gives its own valid workers and seed, llt_baseline no workers key
    doc = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    assert ("workers" in doc) == (name == "fast_clt")
    out = tmp_path / "o"
    argv = [doc["experiment"], "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out)]
    assert main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
def test_an_out_path_that_cannot_be_a_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, below
):
    monkeypatch.setattr(cli, "sample_margins", lambda *args, **kwargs: pytest.fail("sampled"))
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = blocker / "run" if below else blocker
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(small_clt_doc(), sort_keys=False))
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out: cannot create the output directory {str(out)!r}")
    assert "Traceback" not in err and err.count("\n") == 1
    # the same path given in the config names its line
    text = yaml.safe_dump(small_clt_doc(out=str(out)), sort_keys=False)
    cfg.write_text(text)
    assert main(["verify-clt", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    line = _line_of(text, "out:")
    assert err.startswith(f"error: line {line}: out: cannot create the output directory")
    assert blocker.read_text() == "a file\n"


@pytest.mark.parametrize("out", [5, True, ["o"]], ids=["int", "bool", "list"])
def test_an_out_that_is_no_path_exits_2_at_its_line(tmp_path, capsys, monkeypatch, out):
    # Path(5) once raised a TypeError out of run; a null out stays the working directory
    monkeypatch.chdir(tmp_path)
    text = yaml.safe_dump(small_clt_doc(out=out), sort_keys=False)
    (tmp_path / "c.yaml").write_text(text)
    assert main(["verify-clt", "--config", "c.yaml"]) == 2
    line = _line_of(text, "out:")
    assert capsys.readouterr().err == f"error: line {line}: out: out must be a path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]
    assert config_from_dict(small_clt_doc(out=None)).out is None


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_a_non_finite_number_exits_2_at_its_line(tmp_path, capsys, value):
    # an infinite coefficient would reach Generator.binomial as p = nan
    doc = yaml.safe_load((CONFIGS / "fast_clt.yaml").read_text())
    doc["model"]["sequence"]["schedule"]["coefficient"] = value
    cfg = tmp_path / "bad.yaml"
    text = yaml.safe_dump(doc, sort_keys=False)
    cfg.write_text(text)
    line = 1 + next(i for i, row in enumerate(text.splitlines()) if "coefficient" in row)
    out = tmp_path / "o"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}: model.sequence.schedule.coefficient: must be a finite number" in err
    assert "Traceback" not in err and not (out / "margins.npy").exists()


def test_non_finite_list_items_and_points_are_refused():
    doc = small_clt_doc()
    doc["model"]["sequence"]["base"]["lower"] = [float("-inf")]
    with pytest.raises(ConfigError, match=r"model\.sequence\.base\.lower\[0\]: must be a finite"):
        config_from_dict(doc)
    with pytest.raises(ConfigError, match=r"points\[1\]\[1\]: must be a finite"):
        config_from_dict({**_ALPHA_DOC, "points": [[100, 0.1], [10000, float("nan")]]})


def test_one_sample_is_enough_for_one_group():
    # a single group has no cross-correlation, so count 1 still loads
    assert config_from_dict(small_clt_doc(count=1)).count == 1
    with pytest.raises(ConfigError, match="count must be at least 1"):
        config_from_dict(small_clt_doc(count=-3))


# -- generated misuse -------------------------------------------------------------

#: sizes at which every shipped document runs in milliseconds
_SMALL_SIZES = {"n": 200, "count": 200, "n_grid": [20, 40], "concentration_grid": [20, 30, 40]}


def _small_shipped_doc(path):
    doc = yaml.safe_load(path.read_text())
    doc.update(copy.deepcopy({key: value for key, value in _SMALL_SIZES.items() if key in doc}))
    if doc["experiment"] == "verify-cwm":
        doc["n_grid"] = [8]  # the Gibbs route enumerates every vote configuration
    return doc


def _value_paths(node, prefix=()):
    """The key path of every value below ``node``: scalars, lists and list items, not sections."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if not isinstance(child, dict):
            yield prefix + (key,)
        yield from _value_paths(child, prefix + (key,))


def _wrong_length(value):
    if isinstance(value, list):
        return value + value[-1:] if value else [0]
    return [value, value]


_MUTATIONS = (float("inf"), float("-inf"), float("nan"), 0, -1, "abc", [], _wrong_length)

#: command-line values: negative, zero, huge and not an integer for the
#: integer flags (the sampler never starts more threads than blocks), and
#: for ``--out`` an existing file and a path below it
_FLAG_MUTATIONS = {
    "--seed": ("-1", "0", str(10**30), "abc"),
    "--workers": ("-1", "0", str(10**30), "abc"),
    "--out": ("a-file", "a-file/sub"),
}


def _flag_refused(flag, value):
    """Whether ``flag value`` must exit 2 naming the flag, after argparse took it."""
    return flag == "--out" or int(value) < (1 if flag == "--workers" else 0)


@st.composite
def _mutated_shipped_docs(draw):
    """(kind, document, flag): one value of the document or one flag mutated."""
    doc = _small_shipped_doc(draw(st.sampled_from(sorted(CONFIGS.glob("*.yaml")))))
    kind = doc["experiment"]
    path = draw(st.sampled_from(list(_value_paths(doc)) + [(flag,) for flag in _FLAG_MUTATIONS]))
    if path[0] in _FLAG_MUTATIONS:
        return kind, doc, (path[0], draw(st.sampled_from(_FLAG_MUTATIONS[path[0]])))
    mutation = draw(st.sampled_from(_MUTATIONS))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    parent[path[-1]] = mutation(parent[path[-1]]) if callable(mutation) else mutation
    return kind, doc, None


def _refuse_nan(constant):
    # Infinity is the designed observed value of a failing correlation-decay report
    if constant == "NaN":
        raise ValueError("reports.jsonl holds NaN")
    return float(constant)


# 400 examples draw every flag value at least twice (hypothesis 6.155.2)
@settings(derandomize=True, max_examples=400, deadline=None)
@given(_mutated_shipped_docs())
def test_a_mutated_shipped_document_exits_with_its_code_and_at_most_one_error_line(case):
    kind, doc, flag = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.yaml", Path(tmp) / "o"
        cfg.write_text(yaml.safe_dump(doc))
        argv = [kind, "--config", str(cfg)]
        if flag and flag[0] == "--out":
            (Path(tmp) / "a-file").write_text("")
            out = Path(tmp) / flag[1]
        elif flag:
            argv += list(flag)
        argv += ["--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            if flag and flag[1] == "abc":
                # argparse's own usage error: its usage (wrapped to the
                # terminal's width), then one error line, exit 2
                with pytest.raises(SystemExit) as exited:
                    main(argv)
            else:
                code = main(argv)
        err = err.getvalue()
        if flag and flag[1] == "abc":
            assert exited.value.code == 2
            *usage, last = err.splitlines()
            assert usage[0].startswith(f"usage: votelim {kind} ")
            assert all(line.startswith(" ") for line in usage[1:]), err
            assert last == f"votelim {kind}: error: argument {flag[0]}: invalid int value: 'abc'"
            return
        if flag and _flag_refused(*flag):
            assert code == 2 and err.startswith(f"error: {flag[0]}: "), err
        assert code in (0, 1, 2, 3)
        assert err == "" or (err.startswith(("error: ", "resource guard: ")) and err.count("\n") == 1
                             and err.endswith("\n")), err
        assert bool(err) == (code in (2, 3))
        reports = out / "reports.jsonl"
        if reports.exists():
            for line in reports.read_text().splitlines():
                json.loads(line, parse_constant=_refuse_nan)


_ALPHA_DOC = {"experiment": "estimate-alpha", "seed": 1, "points": [[100, 0.1], [10000, 0.01]]}


@pytest.mark.parametrize(
    "thresholds",
    [{"alpha_range": [0.3, 0.1]}, {"alpha_range": [0.1]}, {"alpha_range": "0.1"},
     {"llt": True}, {"r2": None}, {"ks": 0}, {"cross_correlation": float("inf")},
     {"r2": 1.5}, {"equivalence": -1e-8}],
)
def test_threshold_values_are_checked(thresholds):
    # on a document of the kind that reads the threshold
    name = next(iter(thresholds))
    kind = next(kind for kind, spec in KINDS.items() if name in spec.thresholds)
    with pytest.raises(ConfigError, match=f"thresholds.{name}"):
        config_from_dict({**_KIND_DOCS[kind](), "thresholds": thresholds})


def test_load_config_applies_overrides_and_keeps_line_anchors(tmp_path):
    cfg = tmp_path / "c.yaml"
    text = yaml.safe_dump(small_clt_doc(), sort_keys=False)
    cfg.write_text(text)
    loaded = load_config(cfg, {"seed": 7, "workers": 2, "out": None})
    assert (loaded.seed, loaded.workers, loaded.out) == (7, 2, None)
    # the worker count and output directory change no result, so they are not hashed
    assert loaded.hash() == config_hash({**small_clt_doc(), "seed": 7})
    cfg.write_text(text.replace("exponent: 0.75", "exponent: -0.75"))
    with pytest.raises(ConfigError, match=f"line {_line_of(text, 'schedule')}"):
        load_config(cfg, {"seed": 7})


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_configs_load_strictly(path):
    # the overrides a benchmark applies: workers on every config, a smaller
    # count and a cross-correlation bound on the verify-clt ones
    doc = yaml.safe_load(path.read_text())
    overrides = {"workers": 2}
    if doc["experiment"] == "verify-clt":
        overrides.update(count=4000, thresholds={"cross_correlation": 0.1})
    cfg = load_config(path, overrides)
    assert (cfg.workers, cfg.thresholds) == (2, overrides.get("thresholds", doc["thresholds"]))


#: a document of each kind that loads
_KIND_DOCS = {
    "simulate": small_simulate_doc,
    "verify-clt": small_clt_doc,
    "verify-llt": lambda: shipped_doc("llt_baseline"),
    "verify-cwm": lambda: shipped_doc("cwm_equivalence"),
    "estimate-alpha": lambda: dict(_ALPHA_DOC),
    "correlation-decay": lambda: shipped_doc("subcritical_decay"),
}
#: a value each top-level key and threshold may hold in a kind that takes it
_KEY_VALUES = {"model": small_clt_doc()["model"], "n": 400, "n_grid": [100, 200], "count": 7,
               "thresholds": {}, "input": "margins.csv", "points": _ALPHA_DOC["points"],
               "delta": 0.5, "concentration_grid": [20, 40]}
_THRESHOLD_VALUES = {"target_law": "gaussian", "ks": 0.5, "cross_correlation": 0.1, "llt": 0.5,
                     "equivalence": 1e-6, "r2": 0.9, "alpha_range": [0.1, 0.2], "correlation": 0.1}


def _untaken_cases():
    """Each top-level key and threshold a kind does not take, added to its document."""
    for name, kind in KINDS.items():
        for key in sorted(_KEY_VALUES.keys() - set(kind.keys)):
            yield pytest.param(name, {key: _KEY_VALUES[key]}, {}, (), (key,), id=f"{name}:{key}")
        for key in sorted(_THRESHOLD_VALUES.keys() - kind.thresholds.keys()):
            # a kind without thresholds rejects the whole mapping
            blamed = (f"thresholds.{key}",) + (() if kind.thresholds else ("thresholds",))
            yield pytest.param(name, {}, {key: _THRESHOLD_VALUES[key]}, (), blamed,
                               id=f"{name}:thresholds.{key}")


#: (kind, keys set, thresholds set, keys dropped, keys the error may cite)
_PROBES = [
    pytest.param("verify-clt", {"n_grid": [100, 200]}, {}, ("n",), ("n_grid",), id="clt-n_grid-without-n"),
    pytest.param("simulate", {"n_grid": [100, 200]}, {}, ("n",), ("n_grid",), id="simulate-n_grid-without-n"),
    pytest.param("verify-clt", {"delta": 0.5, "concentration_grid": [20, 40]}, {"llt": 0.5, "r2": 3}, (),
                 ("delta", "concentration_grid", "thresholds.llt", "thresholds.r2"), id="clt-llt-r2-delta"),
    pytest.param("verify-llt", {"count": 7}, {"ks": 0.5}, (), ("count", "thresholds.ks"), id="llt-count-ks"),
    pytest.param("verify-cwm", {}, {}, ("concentration_grid",), ("delta",), id="cwm-delta-alone"),
    pytest.param("estimate-alpha", {"points": 5}, {}, (), ("points",), id="alpha-scalar-points"),
    pytest.param("estimate-alpha", {"points": [[100, 0.1], [1000]]}, {}, (), ("points",),
                 id="alpha-short-point"),
    pytest.param("estimate-alpha", {"points": [[0, 0.1], [1000, 0.01]]}, {}, (), ("points",),
                 id="alpha-zero-population"),
    pytest.param("verify-clt", {"input": "margins.csv", "points": _ALPHA_DOC["points"]}, {}, (),
                 ("input", "points"), id="clt-input-points"),
    pytest.param("estimate-alpha", {"input": 5}, {}, ("points",), ("input",), id="alpha-scalar-input"),
    pytest.param("estimate-alpha", {"input": ""}, {}, (), ("input",), id="alpha-empty-input"),
    pytest.param("verify-cwm", {}, {"r2": 0.5}, ("delta", "concentration_grid"), ("thresholds.r2",),
                 id="cwm-r2-without-pair"),
]


def _key_line(text, path):
    """The line of a top-level key, of ``thresholds.<name>`` or of ``schedule.<name>``
    (``model.sequence.schedule.<name>``) in safe_dump's block style."""
    parent, _, name = path.rpartition(".")
    indent = {"": "", "thresholds": "  ", "schedule": "      "}[parent]
    return text[: re.search(rf"^{indent}{name}:", text, re.M).start()].count("\n") + 1


@pytest.mark.parametrize("kind, keys, thresholds, drop, blamed", [*_PROBES, *_untaken_cases()])
def test_keys_a_kind_does_not_read_exit_2_citing_their_line(tmp_path, capsys, kind, keys, thresholds,
                                                            drop, blamed):
    doc = _KIND_DOCS[kind]()
    for key in drop:
        del doc[key]
    doc.update(keys)
    if thresholds:
        doc["thresholds"] = {**doc.get("thresholds", {}), **thresholds}
    text = yaml.safe_dump(doc, sort_keys=False)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    cited = re.match(r"error: line (\d+): ", capsys.readouterr().err)
    assert cited and int(cited[1]) in {_key_line(text, path) for path in blamed}


def test_readme_config_table_matches_the_kinds():
    assert {key for kind in KINDS.values() for key in kind.keys} == {
        "experiment", "seed", "workers", "out", *_KEY_VALUES}
    assert {name for kind in KINDS.values() for name in kind.thresholds} == set(_THRESHOLD_VALUES)
    assert cli._RUNNERS.keys() == KINDS.keys()

    def keys(names):
        return ", ".join(f"`{key}`" for key in names)

    def row(name, kind):
        required = keys(kind.required)
        if kind.sequence:
            required += f" with a `{kind.sequence}` sequence"
        thresholds = ", ".join(
            f"`{t}`" + ("" if d is None else f" = `{d}`")
            + (f" (needs {keys(kind.pair)})" if t in kind.pair_thresholds else "")
            for t, d in kind.thresholds.items()
        )
        return f"| `{name}` | {required} | {keys(kind.one_of)} | {keys(kind.pair)} | {thresholds} |"

    readme = (ROOT / "README.md").read_text().split("### Config document")[1].split("\n### ")[0]
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    assert rows == [row(name, kind) for name, kind in KINDS.items()]


def test_readme_value_table_matches_the_value_rules():
    # each key has its row, once; keys with the same rules and the same null share a row
    rows = {}
    for key, rules in VALUES.items():
        sig = (tuple(end for _, end in rules), key in NULL_IS_ABSENT)
        rows.setdefault(sig, []).append(f"`{key}`")
    expected = [
        f"| {', '.join(keys)} | "
        + "; ".join(end.removeprefix("must be ").replace(", got {}", "") for end in ends)
        + f" | {'absent' if nullable else 'refused'} |"
        for (ends, nullable), keys in rows.items()
    ]
    assert all(end.startswith("must be ") for rules in VALUES.values() for _, end in rules)
    assert NULL_IS_ABSENT <= VALUES.keys()
    readme = (ROOT / "README.md").read_text().split("### Config values")[1].split("\n### ")[0]
    assert [line for line in readme.splitlines() if line.startswith("| `")] == expected


def _model_doc(m, bias, sequence):
    doc = small_simulate_doc()
    doc["model"] = {
        "groups": {"m": m, "proportions": [1.0 / m] * m},
        "bias_map": bias,
        "sequence": sequence,
    }
    return doc


def _static(base, m=1, bias="clamp"):
    return _model_doc(m, bias, {"kind": "static", "base": base})


def _contracted(schedule):
    return _model_doc(1, "clamp", {"kind": "contracted", "base": _UNIFORM, "schedule": schedule})


_UNIFORM = {"variant": "uniform-box", "lower": [-1], "upper": [1]}
_ATOMS = {"variant": "point-mass-mixture",
          "atoms": [{"location": [-0.5], "weight": 0.5}, {"location": [0.5], "weight": 0.5}]}
_GAUSSIAN = {"variant": "gaussian", "mean": [0.0], "covariance": [[1.0]]}
_PRODUCT = {"variant": "product", "factors": [_UNIFORM, _ATOMS]}
_MIXTURE = {"variant": "mixture",
            "components": [{"measure": _UNIFORM, "weight": 0.5}, {"measure": _ATOMS, "weight": 0.5}]}
_POWER = {"kind": "power-law", "coefficient": 1.0, "exponent": 0.75}
_EXPLICIT = {"kind": "explicit", "table": {400: [0.1], 800: [0.05]}, "regimes": ["subcritical"]}
_CW_BETA = _model_doc(1, "tanh", {"kind": "curie-weiss", "coupling": {"beta": 0.5}})
_CW_J = _model_doc(2, "tanh", {"kind": "curie-weiss", "coupling": {"j": [[0.5, 0.1], [0.1, 0.5]]}})

#: case -> (a document that loads, the path of the node a test edits);
#: tests edit a YAML round trip, never these shared dicts
_STRICT_CASES = {
    "model": (_static(_UNIFORM), "model"),
    "groups": (_static(_UNIFORM), "model.groups"),
    "static": (_static(_UNIFORM), "model.sequence"),
    "contracted": (_contracted(_POWER), "model.sequence"),
    "curie-weiss": (_CW_BETA, "model.sequence"),
    "uniform-box": (_static(_UNIFORM), "model.sequence.base"),
    "gaussian": (_static(_GAUSSIAN, bias="tanh"), "model.sequence.base"),
    "point-mass-mixture": (_static(_ATOMS), "model.sequence.base"),
    "atom": (_static(_ATOMS), "model.sequence.base.atoms[1]"),
    "product": (_static(_PRODUCT, m=2), "model.sequence.base"),
    "product-factor": (_static(_PRODUCT, m=2), "model.sequence.base.factors[1].atoms[0]"),
    "mixture": (_static(_MIXTURE), "model.sequence.base"),
    "mixture-component": (_static(_MIXTURE), "model.sequence.base.components[1]"),
    "mixture-measure": (_static(_MIXTURE), "model.sequence.base.components[0].measure"),
    "power-law": (_contracted(_POWER), "model.sequence.schedule"),
    "explicit": (_contracted(_EXPLICIT), "model.sequence.schedule"),
    "coupling-beta": (_CW_BETA, "model.sequence.coupling"),
    "coupling-j": (_CW_J, "model.sequence.coupling"),
}


def _node_at(doc, path):
    node = doc
    for part in path.replace("]", "").replace("[", ".").split("."):
        node = node[int(part)] if part.isdigit() else node[part]
    return node


@pytest.mark.parametrize(
    "doc, path, key",
    [
        (_static(_UNIFORM), "model.groups", "m"),
        (_static(_UNIFORM), "model.groups", "proportions"),
        (_static(_UNIFORM), "model.sequence.base", "lower"),
        (_contracted(_POWER), "model.sequence.schedule", "coefficient"),
        (_CW_BETA, "model.sequence.coupling", "beta"),
    ],
    ids=["groups-m", "proportions", "box-lower", "coefficient", "beta"],
)
def test_non_numeric_model_values_exit_2(tmp_path, capsys, doc, path, key):
    doc = yaml.safe_load(yaml.safe_dump(doc))
    node = _node_at(doc, path)
    node[key] = ["x"] * len(node[key]) if isinstance(node[key], list) else "x"
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "line " in capsys.readouterr().err


@pytest.mark.parametrize("case", list(_STRICT_CASES))
def test_unknown_key_inside_model_is_line_anchored(tmp_path, case):
    doc, path = _STRICT_CASES[case]
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
    load_config(cfg)
    doc = yaml.safe_load(cfg.read_text())
    _node_at(doc, path)["typo"] = 1
    text = yaml.safe_dump(doc, sort_keys=False)
    cfg.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value).startswith(f"line {_line_of(text, 'typo:')}: {path}.typo: unknown key 'typo'")


@pytest.mark.parametrize("case, path", [
    ("atom", "model.sequence.base.atoms[1]"),
    ("mixture-component", "model.sequence.base.components[1]"),
])
def test_missing_weight_is_line_anchored(tmp_path, case, path):
    doc = yaml.safe_load(yaml.safe_dump(_STRICT_CASES[case][0]))
    del _node_at(doc, path)["weight"]
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(ConfigError, match=rf"^line \d+: {re.escape(path)}: missing required key 'weight'"):
        load_config(cfg)


@pytest.mark.parametrize("case, path, key", [
    ("atom", "model.sequence.base", "atoms"),
    ("product", "model.sequence.base", "factors"),
    ("mixture", "model.sequence.base", "components"),
])
def test_scalar_in_place_of_a_list_is_line_anchored(tmp_path, case, path, key):
    doc = yaml.safe_load(yaml.safe_dump(_STRICT_CASES[case][0]))
    _node_at(doc, path)[key] = 5
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(ConfigError, match=rf"^line \d+: {re.escape(path)}.{key}: expected a list"):
        load_config(cfg)


def test_coupling_with_beta_and_j_is_rejected():
    doc = yaml.safe_load(yaml.safe_dump(_STRICT_CASES["coupling-beta"][0]))
    doc["model"]["sequence"]["coupling"]["j"] = [[0.9]]
    with pytest.raises(ConfigError, match="model.sequence.coupling: coupling takes either 'beta' or a matrix 'j', not both"):
        config_from_dict(doc)


def test_model_typos_exit_2(tmp_path, capsys):
    text = (CONFIGS / "cwm_equivalence.yaml").read_text()
    cases = [
        (text.replace("{beta: 0.5}", "{beta: 0.5, betta: 0.9}"), "betta"),
        (text.replace("    coupling:", "    schedulez: {kind: power-law}\n    coupling:"), "schedulez"),
    ]
    for bad, key in cases:
        assert bad != text
        cfg = tmp_path / "cwm.yaml"
        cfg.write_text(bad)
        assert main(["verify-cwm", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"line {_line_of(bad, key)}:" in err and f"unknown key {key!r}" in err


# -- experiment runs ---------------------------------------------------------------

def test_simulate_writes_artifacts(tmp_path):
    doc = small_simulate_doc()
    cfg = config_from_dict(doc)
    out = tmp_path / "run"
    assert run(cfg, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(doc)
    assert manifest["seed"] == 42
    assert manifest["outputs"] == ["margins.npy"]
    raw = np.load(out / "margins.npy")
    assert (raw.dtype.str, raw.shape) == ("<i4", (doc["count"], 1))
    assert not (out / "margins.csv").exists()


def test_readme_lines_rebuild_the_normalized_margins_and_a_csv(tmp_path, monkeypatch):
    # the numpy lines of README's Artifacts section, run in a two-group output directory
    cfg = config_from_dict(_model_doc(2, "clamp", _box_power(1.0, 0.75, m=2)))
    assert run(cfg, tmp_path) == 0
    sample = models.sample_margins(cfg.model, cfg.n, cfg.count, cfg.seed)
    readme = (ROOT / "README.md").read_text().split("### Artifacts")[1]
    code = readme.split("```python\n")[1].split("```")[0]
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(code, scope)
    assert scope["normalized"].tobytes() == sample.normalized.tobytes()
    lines = (tmp_path / "margins.csv").read_text().splitlines()
    assert lines[0] == "sample_index,group,raw_margin,normalized_margin"
    fields = [line.split(",") for line in lines[1:]]
    assert [(int(i), int(g)) for i, g, _, _ in fields] == [(i, g) for i in range(cfg.count) for g in range(2)]
    assert np.array_equal(np.array([int(k) for _, _, k, _ in fields]).reshape(-1, 2), sample.raw)
    assert np.array([float(x) for *_, x in fields]).reshape(-1, 2).tobytes() == sample.normalized.tobytes()


def test_verify_clt_small_run_passes(tmp_path):
    cfg = config_from_dict(small_clt_doc())
    out = tmp_path / "run"
    assert run(cfg, out) == 0
    reports = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
    assert all(r["passed"] for r in reports)
    assert (out / "summary.csv").exists()


def test_verify_clt_exit_one_on_failed_threshold(tmp_path):
    doc = small_clt_doc()
    doc["thresholds"]["ks"] = 1e-6
    assert run(config_from_dict(doc), tmp_path / "run") == 1


def test_constant_group_margin_is_a_data_error_naming_the_group(tmp_path, capsys):
    # clamp sends the atom to bias 1 at every n: each group votes unanimously,
    # so its margin never varies and no correlation with it is defined
    atom = {"variant": "point-mass-mixture", "atoms": [{"location": [1e9, 1e9], "weight": 1.0}]}
    model = _model_doc(2, "clamp", {"kind": "contracted", "base": atom, "schedule": _POWER})["model"]
    cfg = tmp_path / "constant.yaml"
    cfg.write_text(yaml.safe_dump(small_clt_doc(model=model, n=2000, count=3000,
                                                thresholds={"target_law": "gaussian"})))
    assert main(["verify-clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "group 0" in captured.err and "cross-correlation" in captured.err
    assert "cross-correlation-0-1" not in captured.out


def test_a_rerun_that_fails_leaves_no_stale_manifest(tmp_path):
    out = tmp_path / "o"
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump(small_clt_doc()))
    assert main(["verify-clt", "--config", str(good), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    # clamped atoms at +-(3, 3) make both groups unanimous: at seed 9 both
    # samples have margin 2 in group 0, a data error after margins.npy
    atoms = {"variant": "point-mass-mixture",
             "atoms": [{"location": [3, 3], "weight": 0.5}, {"location": [-3, -3], "weight": 0.5}]}
    model = _model_doc(2, "clamp", {"kind": "static", "base": atoms})["model"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(small_clt_doc(model=model, n=4, count=2,
                                                thresholds={"target_law": "gaussian"})))
    assert main(["verify-clt", "--config", str(bad), "--out", str(out), "--seed", "9"]) == 2
    assert (out / "margins.npy").exists()
    assert not (out / "manifest.json").exists()
    assert not (out / "reports.jsonl").exists() and not (out / "summary.csv").exists()


def test_a_manifest_that_cannot_be_removed_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample_margins", lambda *args, **kwargs: pytest.fail("sampled"))
    out = tmp_path / "o"
    (out / "manifest.json").mkdir(parents=True)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(small_clt_doc()))
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out: cannot remove manifest.json from the output directory {str(out)!r}")
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("out_flag", [True, False], ids=["out-flag", "cwd"])
def test_an_input_inside_the_output_directory_is_kept(tmp_path, monkeypatch, out_flag):
    # summary.csv is an artifact name and also a name a user may give alpha data
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "summary.csv"
    data.write_text("population,abs_margin\n100,10\n10000,50\n")
    (tmp_path / "reports.jsonl").write_text("stale\n")
    cfg = tmp_path / "alpha.yaml"
    cfg.write_text(yaml.safe_dump({"experiment": "estimate-alpha", "seed": 1, "input": "summary.csv"}))
    argv = ["estimate-alpha", "--config", str(cfg)] + (["--out", str(tmp_path)] if out_flag else [])
    assert main(argv) == 0
    assert data.read_text() == "population,abs_margin\n100,10\n10000,50\n"
    assert (tmp_path / "alpha.json").exists() and not (tmp_path / "reports.jsonl").exists()


_NEAR_CRITICAL_CWM = {
    "experiment": "verify-cwm", "seed": 1, "n_grid": [16],
    "model": {"groups": {"m": 1, "proportions": [1.0]}, "bias_map": "tanh",
              "sequence": {"kind": "curie-weiss", "coupling": {"beta": 0.99999}}},
}


def _llt_doc(m, bias, sequence, n_grid):
    doc = _model_doc(m, bias, sequence)
    del doc["n"], doc["count"]
    return {**doc, "experiment": "verify-llt", "n_grid": n_grid}


def _box_power(coefficient, exponent, m=1):
    box = {"variant": "uniform-box", "lower": [-1] * m, "upper": [1] * m}
    return {"kind": "contracted", "base": box,
            "schedule": {"kind": "power-law", "coefficient": coefficient, "exponent": exponent}}


def _degenerate_llt_doc():
    # fast groups, so verify-llt takes the model and its quadrature meets the singular covariance
    gauss = {"variant": "gaussian", "mean": [0, 0], "covariance": [[0.01, 0.01], [0.01, 0.01]]}
    return _llt_doc(2, "tanh", {"kind": "contracted", "base": gauss, "schedule": _POWER}, [10, 20])


@pytest.mark.parametrize(
    "kind, doc, code, prefix",
    [
        # a quadrature that cannot stabilize is a resource guard, not a failed verification
        ("verify-cwm", _NEAR_CRITICAL_CWM, 3,
         "resource guard: integration grid failed to resolve the density peak"),
        # an operation the measure does not support is an error, not a failed verification
        ("verify-llt", _degenerate_llt_doc(), 2,
         "error: quadrature nodes need a positive definite Gaussian covariance"),
    ],
    ids=["near-critical-cwm", "degenerate-gaussian-llt"],
)
def test_a_package_error_never_exits_1(tmp_path, capsys, kind, doc, code, prefix):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert "Traceback" not in err and err.count("\n") == 1


#: case -> (a verify-llt document, the regime its error names): a critical
#: box (h = 2), a subcritical box, Curie-Weiss at beta = 1/2, a spread-out
#: static box, and two groups of two regimes each
_LLT_REFUSALS = {
    "critical-h2": (_llt_doc(1, "clamp", _box_power(2.0, 0.5), [100, 1000, 10000]), "critical"),
    "subcritical": (_llt_doc(1, "clamp", _box_power(1.0, 0.15), [100, 1000, 10000]), "subcritical"),
    "curie-weiss": (_llt_doc(1, "tanh", {"kind": "curie-weiss", "coupling": {"beta": 0.5}},
                             [100, 1000, 4000]), "mean-field"),
    "spread-out-static": (_llt_doc(1, "clamp", {"kind": "static", "base": _UNIFORM}, [100, 1000]),
                          "spread-out static"),
    "fast-and-subcritical": (_llt_doc(2, "clamp", _box_power(1.0, [0.75, 0.15], m=2), [100, 1000]),
                             "subcritical"),
    "critical-and-subcritical": (_llt_doc(2, "clamp", _box_power(2.0, [0.5, 0.15], m=2), [100, 1000]),
                                 "critical and subcritical"),
}


@pytest.mark.parametrize("case", list(_LLT_REFUSALS))
def test_verify_llt_refuses_a_model_whose_limit_is_not_standard_normal(tmp_path, capsys, monkeypatch, case):
    # the check compares with the N(0, I) density, so any other limit is an
    # error at load, before any work
    monkeypatch.setattr(cli, "llt_sup_error", lambda *args: pytest.fail("computed"))
    doc, regime = _LLT_REFUSALS[case]
    text = yaml.safe_dump(doc, sort_keys=False)
    cfg = tmp_path / "llt.yaml"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["verify-llt", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: line {_line_of(text, 'model:')}: model: verify-llt compares the lattice law with "
        f"the N(0, I) density, which is not the limit of a {regime} model\n"
    )
    assert not out.exists()


def test_verify_llt_takes_a_fast_model(tmp_path):
    doc = _llt_doc(1, "clamp", _box_power(1.0, 0.75), [100, 1000, 10000])
    assert run(config_from_dict(doc), tmp_path / "o") == 0
    reports = [json.loads(line) for line in (tmp_path / "o" / "reports.jsonl").read_text().splitlines()]
    assert reports[1]["observed"] < 1e-3


#: distinct normalized values per group in each shipped verify-clt sample
_DISTINCT_VALUES = {"fast_clt": [278, 276], "critical_clt": [559], "subcritical_base": [69245]}


@pytest.mark.parametrize("name", sorted(_DISTINCT_VALUES))
def test_verify_clt_calls_each_limit_cdf_once_per_group_on_distinct_values(tmp_path, monkeypatch, name):
    points = []
    cdf = LimitLaw.cdf

    def counted(self, x):
        points.append(np.asarray(x).size)
        return cdf(self, x)

    monkeypatch.setattr(LimitLaw, "cdf", counted)
    cfg = load_config(CONFIGS / f"{name}.yaml")
    assert run(cfg, tmp_path / "run") == 0
    assert points == _DISTINCT_VALUES[name]
    sizes = cfg.model.groups.sizes(cfg.n)
    assert all(p <= n_g + 1 for p, n_g in zip(points, sizes))


def test_negative_control_config_fails(tmp_path):
    cfg = load_config(CONFIGS / "decay_negative_control.yaml")
    assert run(cfg, tmp_path / "run") == 1
    report = json.loads((tmp_path / "run" / "reports.jsonl").read_text().splitlines()[0])
    assert not report["passed"]


def test_decay_config_passes(tmp_path):
    cfg = load_config(CONFIGS / "subcritical_decay.yaml")
    assert run(cfg, tmp_path / "run") == 0


def test_llt_config_passes(tmp_path):
    cfg = load_config(CONFIGS / "llt_baseline.yaml")
    assert run(cfg, tmp_path / "run") == 0


def test_worker_override_keeps_results_identical(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(yaml.safe_dump(small_clt_doc()))
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(["verify-clt", "--config", str(cfg_file), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["verify-clt", "--config", str(cfg_file), "--out", str(out8), "--workers", "8"]) == 0
    assert (out1 / "margins.npy").read_bytes() == (out8 / "margins.npy").read_bytes()
    r1 = (out1 / "reports.jsonl").read_text()
    r8 = (out8 / "reports.jsonl").read_text()
    assert r1 == r8


def test_manifest_is_identical_for_any_out_and_workers(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(yaml.safe_dump(small_clt_doc()))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify-clt", "--config", str(cfg_file), "--out", str(out_a)]) == 0
    assert main(["verify-clt", "--config", str(cfg_file), "--out", str(out_b), "--workers", "3"]) == 0
    text = (out_a / "manifest.json").read_bytes()
    assert text == (out_b / "manifest.json").read_bytes()
    manifest = json.loads(text)
    assert "workers" not in manifest
    assert (manifest["python_version"], manifest["numpy_version"], manifest["scipy_version"]) == (
        platform.python_version(), np.__version__, scipy.__version__
    )


def test_verify_clt_without_workers_writes_the_artifacts_of_one_worker(tmp_path):
    # three sample blocks, so the default runs them on a pool wherever the
    # process may use more than one CPU
    doc = small_clt_doc(count=20000)
    assert config_from_dict(doc).workers is None
    outs = {}
    for label, workers in (("default", {}), ("one", {"workers": 1})):
        cfg_file = tmp_path / f"{label}.yaml"
        cfg_file.write_text(yaml.safe_dump({**doc, **workers}))
        outs[label] = tmp_path / label
        assert main(["verify-clt", "--config", str(cfg_file), "--out", str(outs[label])]) == 0
    for artifact in ("margins.npy", "reports.jsonl", "manifest.json"):
        assert (outs["default"] / artifact).read_bytes() == (outs["one"] / artifact).read_bytes()


def test_verify_clt_computes_the_default_ks_threshold_only_without_ks(tmp_path, monkeypatch):
    def refuse(count):
        raise AssertionError("the default KS threshold was computed although thresholds.ks is set")

    monkeypatch.setattr(cli, "ks_threshold", refuse)
    assert run(config_from_dict(small_clt_doc()), tmp_path / "set") == 0
    monkeypatch.setattr(cli, "ks_threshold", lambda count: 0.5)
    assert run(config_from_dict(small_clt_doc(thresholds={})), tmp_path / "default") == 0
    reports = (tmp_path / "default" / "reports.jsonl").read_text().splitlines()
    assert json.loads(reports[0])["threshold"] == 0.5


def test_seed_override_changes_hash_and_samples(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(yaml.safe_dump(small_simulate_doc()))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out_b), "--seed", "7"]) == 0
    hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
    hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
    assert hash_a != hash_b
    assert (out_a / "margins.npy").read_bytes() != (out_b / "margins.npy").read_bytes()


# -- margin ingestion --------------------------------------------------------------------

def test_ingest_raw_counts(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("population,abs_margin\n100,10\n10000,50\n")
    assert ingest_margins(path) == [(100, 0.1), (10000, 0.005)]


def test_ingest_per_capita(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("population,margin_per_capita\n100,0.25\n")
    assert ingest_margins(path) == [(100, 0.25)]


def test_ingest_rejects_bad_rows_with_line_numbers(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("population,abs_margin\n100,10\n-5,3\nnope,4\n")
    with pytest.raises(DataError) as err:
        ingest_margins(path)
    assert "3" in str(err.value) and "4" in str(err.value)
    # a non-finite population or margin is a malformed row too; a space
    # after the header's comma changes nothing
    for column in ("abs_margin", "margin_per_capita", " abs_margin", " margin_per_capita "):
        path.write_text(f"population,{column}\n100,10\nnan,3\ninf,4\n1000,nan\n10000,inf\n10,-inf\n")
        with pytest.raises(DataError, match=r"on lines \[3, 4, 5, 6, 7\]"):
            ingest_margins(path)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(DataError):
        ingest_margins(path)
    path.write_text("population,abs_margin\n")
    with pytest.raises(DataError):
        ingest_margins(path)


def test_ingest_warns_and_drops_duplicates(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("population,abs_margin\n100,10\n100,10\n")
    with pytest.warns(UserWarning, match="duplicate"):
        points = ingest_margins(path)
    assert points == [(100, 0.1)]


def test_estimate_alpha_command(tmp_path, capsys):
    data = tmp_path / "margins.csv"
    rows = ["population,abs_margin"]
    for n in (10**3, 10**4, 10**5, 10**6):
        rows.append(f"{n},{n * n**-0.15}")
    data.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "alpha.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "experiment": "estimate-alpha",
                "seed": 1,
                "input": str(data),
                "thresholds": {"alpha_range": [0.13, 0.17]},
            }
        )
    )
    code = main(["estimate-alpha", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "alpha = 0.1500" in capsys.readouterr().out
    saved = json.loads((tmp_path / "out" / "alpha.json").read_text())
    assert saved["alpha"] == pytest.approx(0.15, abs=1e-12)


def test_verify_clt_baseline_static_delta0(tmp_path):
    doc = {
        "experiment": "verify-clt",
        "seed": 42,
        "model": {
            "groups": {"m": 1, "proportions": [1.0]},
            "bias_map": "clamp",
            "sequence": {
                "kind": "static",
                "base": {
                    "variant": "point-mass-mixture",
                    "atoms": [{"location": [0.0], "weight": 1.0}],
                },
            },
        },
        "n": 10**4,
        "count": 10**5,
        "thresholds": {"ks": 0.01},
    }
    out = tmp_path / "baseline"
    assert run(config_from_dict(doc), out) == 0
    report = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    assert report["passed"] and report["observed"] < 0.01


def test_growing_explicit_schedule_is_exit_2(tmp_path, capsys):
    doc = small_clt_doc()
    doc["model"]["sequence"]["schedule"] = {
        "kind": "explicit",
        "table": {400: [0.1], 800: [0.2]},
        "regimes": ["fast"],
    }
    cfg = tmp_path / "grow.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["verify-clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "eps_n -> 0" in capsys.readouterr().err


@pytest.mark.parametrize("h", [0.0, -1.0])
def test_a_nonpositive_explicit_h_exits_2_citing_the_schedule(tmp_path, capsys, h):
    # a negative h would silently reflect the critical group's limit law
    doc = small_clt_doc()
    doc["model"]["sequence"]["schedule"] = {
        "kind": "explicit",
        "table": {400: [0.05]},
        "regimes": ["critical"],
        "h": [h],
    }
    text = yaml.safe_dump(doc, sort_keys=False)
    cfg = tmp_path / "h.yaml"
    cfg.write_text(text)
    assert main(["verify-clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: line {_line_of(text, 'schedule:')}: model.sequence.schedule: "
        f"h must be positive on every group, got [{h}]\n"
    )


def test_an_explicit_h_without_a_critical_group_exits_2_citing_the_schedule(tmp_path, capsys):
    # h is read only on critical groups, so here it would be silently ignored
    doc = shipped_doc("subcritical_base")
    doc["model"]["sequence"]["schedule"] = {
        "kind": "explicit",
        "table": {1000000: [0.125]},
        "regimes": ["subcritical"],
        "h": [3.0],
    }
    text = yaml.safe_dump(doc, sort_keys=False)
    cfg = tmp_path / "h.yaml"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: line {_line_of(text, 'schedule:')}: model.sequence.schedule: "
        "h is read only on critical groups, and no group is declared critical\n"
    )
    assert not out.joinpath("margins.npy").exists()


def test_an_integer_valued_float_table_key_is_that_population():
    doc = shipped_doc("subcritical_base")
    doc["model"]["sequence"]["schedule"] = {
        "kind": "explicit", "table": {1000000.0: [0.125]}, "regimes": ["subcritical"]}
    assert config_from_dict(doc).model.sequence.schedule.table == {1000000: (0.125,)}


def _two_group_power_law(coefficient, exponent):
    doc = small_clt_doc()
    doc["model"]["groups"] = {"m": 2, "proportions": [0.5, 0.5]}
    sequence = doc["model"]["sequence"]
    sequence["base"] = {"variant": "uniform-box", "lower": [-1, -1], "upper": [1, 1]}
    sequence["schedule"] = {"kind": "power-law", "coefficient": coefficient, "exponent": exponent}
    return doc


@pytest.mark.parametrize("key, value", [("coefficient", [1.0, 1.0, 1.0]),
                                        ("exponent", [0.75, 0.5, 0.25])])
def test_a_power_law_list_of_the_wrong_length_exits_2_citing_the_schedule(tmp_path, capsys, key,
                                                                          value):
    doc = _two_group_power_law(1.0, 0.75)
    doc["model"]["sequence"]["schedule"][key] = value
    text = yaml.safe_dump(doc, sort_keys=False)
    cfg = tmp_path / "s.yaml"
    cfg.write_text(text)
    assert main(["verify-clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: line {_line_of(text, 'schedule:')}: model.sequence.schedule: "
        f"{key}s must be a scalar or a length-2 vector\n"
    )


@pytest.mark.parametrize("coefficient, exponent, exponents", [
    (0.5, 0.75, (0.75, 0.75)), ([0.5], [0.75], (0.75, 0.75)), ([0.5], 0.75, (0.75, 0.75)),
    (0.5, [0.75], (0.75, 0.75)), ([0.5], [0.75, 0.25], (0.75, 0.25)),
])
def test_a_one_element_power_law_applies_to_every_group(coefficient, exponent, exponents):
    schedule = config_from_dict(_two_group_power_law(coefficient, exponent)).model.sequence.schedule
    assert (schedule.m, schedule.coefficients, schedule.exponents) == (2, (0.5, 0.5), exponents)


@pytest.mark.parametrize("model", [_static(_UNIFORM), _CW_BETA], ids=["spread-out-static", "curie-weiss"])
def test_verify_clt_without_a_limit_law_samples_nothing(tmp_path, capsys, model):
    # the target law is resolved before sampling, so no orphan margins.npy is left
    cfg = tmp_path / "nolimit.yaml"
    cfg.write_text(yaml.safe_dump(small_clt_doc(model=model["model"])))
    out = tmp_path / "o"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 2
    assert "limit" in capsys.readouterr().err
    assert not (out / "margins.npy").exists()


_DELTA0 = {"variant": "point-mass-mixture", "atoms": [{"location": [0.0], "weight": 1.0}]}

#: case -> (static base, group count, whether it is the point mass at the origin)
_ORIGIN_CASES = {
    "one-atom": (_DELTA0, 1, True),
    "two-atoms": ({"variant": "point-mass-mixture",
                   "atoms": [{"location": [0.0], "weight": 0.5}, {"location": [0.0], "weight": 0.5}]}, 1, True),
    "atom-m2": ({"variant": "point-mass-mixture", "atoms": [{"location": [0.0, 0.0], "weight": 1.0}]}, 2, True),
    "product": ({"variant": "product", "factors": [_DELTA0, _DELTA0]}, 2, True),
    "mixture": ({"variant": "mixture",
                 "components": [{"measure": _DELTA0, "weight": 0.5}, {"measure": _DELTA0, "weight": 0.5}]}, 1, True),
    "zero-gaussian": ({"variant": "gaussian", "mean": [0.0], "covariance": [[0.0]]}, 1, True),
    "zero-gaussian-m2": ({"variant": "gaussian", "mean": [0.0, 0.0], "covariance": [[0.0, 0.0], [0.0, 0.0]]}, 2, True),
    "zero-weight-atom": ({"variant": "point-mass-mixture",
                          "atoms": [{"location": [0.0], "weight": 1.0}, {"location": [1.0], "weight": 0.0}]}, 1, True),
    "uniform": (_UNIFORM, 1, False),
    "atoms": (_ATOMS, 1, False),
    "gaussian": (_GAUSSIAN, 1, False),
    "atom-times-uniform": ({"variant": "product", "factors": [_DELTA0, _UNIFORM]}, 2, False),
    "singular-gaussian": ({"variant": "gaussian", "mean": [0.0, 0.0], "covariance": [[1.0, 1.0], [1.0, 1.0]]}, 2, False),
}


@pytest.mark.parametrize("case", list(_ORIGIN_CASES))
def test_static_target_law_is_gaussian_only_at_the_origin(tmp_path, capsys, case):
    # the point mass at the origin, however it is written, is the
    # independent-voter baseline; any other static base has no limit to test
    base, m, at_origin = _ORIGIN_CASES[case]
    doc = small_clt_doc(model=_static(base, m=m)["model"],
                        thresholds={"ks": 0.08, "cross_correlation": 0.1})
    cfg = tmp_path / "static.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "o"
    code = main(["verify-clt", "--config", str(cfg), "--out", str(out)])
    if at_origin:
        assert code == 0
        reports = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
        assert [r["details"]["law"] for r in reports if "law" in r["details"]] == ["gaussian"] * m
    else:
        assert code == 2
        assert "no dispatchable limit" in capsys.readouterr().err
        assert not (out / "margins.npy").exists()


def test_nested_product_mixture_measure_from_config(tmp_path):
    doc = small_clt_doc(count=3000, thresholds={"ks": 0.08, "cross_correlation": 0.05})
    doc["model"]["groups"] = {"m": 2, "proportions": [0.5, 0.5]}
    doc["model"]["sequence"]["base"] = {
        "variant": "product",
        "factors": [
            {"variant": "uniform-box", "lower": [-1], "upper": [1]},
            {
                "variant": "mixture",
                "components": [
                    {
                        "measure": {
                            "variant": "point-mass-mixture",
                            "atoms": [
                                {"location": [-0.5], "weight": 0.5},
                                {"location": [0.5], "weight": 0.5},
                            ],
                        },
                        "weight": 0.5,
                    },
                    {
                        "measure": {"variant": "uniform-box", "lower": [-0.2], "upper": [0.2]},
                        "weight": 0.5,
                    },
                ],
            },
        ],
    }
    assert yaml.safe_load(yaml.safe_dump(doc)) == doc
    assert run(config_from_dict(doc), tmp_path / "nested") == 0


def test_verify_cwm_config_runs(tmp_path):
    cfg = load_config(CONFIGS / "cwm_equivalence.yaml")
    out = tmp_path / "cwm"
    assert run(cfg, out) == 0
    reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
    stats = {r["statistic"] for r in reports}
    assert "concentration-log-linearity" in stats
    assert any(s.startswith("representation-equivalence") for s in stats)


def test_estimate_alpha_missing_input_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    missing = tmp_path / "nope.csv"
    cfg.write_text(yaml.safe_dump({"experiment": "estimate-alpha", "seed": 1, "input": str(missing)}))
    assert main(["estimate-alpha", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {missing}: cannot open: No such file or directory\n"
    with pytest.raises(DataError, match="cannot open"):
        ingest_margins(tmp_path)


def test_estimate_alpha_two_point_ingest(tmp_path, capsys):
    data = tmp_path / "margins.csv"
    data.write_text(
        "population,abs_margin\n"
        f"100,{100 * 100**-0.2}\n"
        f"10000,{10000 * 10000**-0.2}\n"
    )
    cfg = tmp_path / "alpha.yaml"
    cfg.write_text(yaml.safe_dump({"experiment": "estimate-alpha", "seed": 1, "input": str(data)}))
    assert main(["estimate-alpha", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "alpha = 0.2000" in capsys.readouterr().out


def test_estimate_alpha_inline_points(tmp_path, capsys):
    assert run(config_from_dict(_ALPHA_DOC), tmp_path / "out") == 0
    assert "alpha = 0.5000" in capsys.readouterr().out
    saved = json.loads((tmp_path / "out" / "alpha.json").read_text())
    assert sorted(saved) == ["alpha", "intercept", "n_points", "residual_variance"]
    assert saved["n_points"] == 2 and saved["alpha"] == pytest.approx(0.5, abs=1e-12)


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _half_written_manifest(self, text, *args, **kwargs):
    with open(self, "w") as fh:
        fh.write(text[:10])
    _no_space()


@pytest.mark.parametrize(
    "target, name, writer, artifact",
    [
        (models.MarginSample, "to_npy", _no_space, "margins.npy"),
        (cli, "write_reports_jsonl", _no_space, "reports.jsonl"),
        (cli, "write_reports_csv", _no_space, "summary.csv"),
        (Path, "write_text", _half_written_manifest, "manifest.json"),
    ],
    ids=["margins", "reports", "summary", "manifest"],
)
def test_a_full_disk_exits_3_naming_the_artifact_and_leaves_no_manifest(
    tmp_path, capsys, monkeypatch, target, name, writer, artifact
):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(small_clt_doc()))
    out = tmp_path / "o"
    monkeypatch.setattr(target, name, writer)
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"resource guard: cannot write {str(out / artifact)!r}: No space left on device\n"
    assert not (out / "manifest.json").exists()


def test_an_alpha_file_that_cannot_be_written_exits_3(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "a.yaml"
    cfg.write_text(yaml.safe_dump({"experiment": "estimate-alpha", "seed": 1,
                                   "points": [[100, 0.1], [10000, 0.01]]}))
    monkeypatch.setattr(Path, "write_text", _no_space)
    assert main(["estimate-alpha", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.endswith(f"cannot write {str(tmp_path / 'o' / 'alpha.json')!r}: No space left on device\n")
    assert err.count("\n") == 1 and not (tmp_path / "o" / "manifest.json").exists()
