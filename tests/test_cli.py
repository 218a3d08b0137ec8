import ast
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
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy
import yaml
from hypothesis import example, given, settings

import votelim.cli as cli
import votelim.config
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


def test_resource_guard_exit_code(tmp_path, capsys):
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(yaml.safe_dump(_llt_doc(1, "clamp", _box_power(1.0, 0.75), [10**8, 10**9])))
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
    doc = _static(_DELTA0_M2, m=2) if kind == "simulate" else shipped_doc("fast_clt")
    doc["model"]["groups"]["m"] = m
    return doc


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
    line = _line(text, "out")
    assert err.startswith(f"error: line {line}: out: cannot create the output directory")
    assert blocker.read_text() == "a file\n"


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
# a zero coupling with a concentration profile was once refused from inside run, at no line
@example(("verify-cwm", shipped_doc("cwm_equivalence", model={
    "groups": {"m": 1, "proportions": [1.0]}, "bias_map": "tanh",
    "sequence": {"kind": "curie-weiss", "coupling": {"beta": 0}}}), None))
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
        elif code == 2 and not flag:
            # a document error is refused at load, at its line
            assert err.startswith("error: line "), err
        assert code in (0, 1, 2, 3)
        assert err == "" or (err.startswith(("error: ", "resource guard: ")) and err.count("\n") == 1
                             and err.endswith("\n")), err
        assert bool(err) == (code in (2, 3))
        reports = out / "reports.jsonl"
        if reports.exists():
            for line in reports.read_text().splitlines():
                json.loads(line, parse_constant=_refuse_nan)


_ALPHA_DOC = {"experiment": "estimate-alpha", "seed": 1, "points": [[100, 0.1], [10000, 0.01]]}


def test_load_config_applies_overrides_and_keeps_line_anchors(tmp_path):
    cfg = tmp_path / "c.yaml"
    text = yaml.safe_dump(small_clt_doc(), sort_keys=False)
    cfg.write_text(text)
    loaded = load_config(cfg, {"seed": 7, "workers": 2, "out": None})
    assert (loaded.seed, loaded.workers, loaded.out) == (7, 2, None)
    # the worker count and output directory change no result, so they are not hashed
    assert loaded.hash() == config_hash({**small_clt_doc(), "seed": 7})
    cfg.write_text(text.replace("exponent: 0.75", "exponent: -0.75"))
    with pytest.raises(ConfigError, match=f"line {_line(text, 'model.sequence.schedule')}: "):
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
_DELTA0 = {"variant": "point-mass-mixture", "atoms": [{"location": [0.0], "weight": 1.0}]}
_DELTA0_M2 = {"variant": "point-mass-mixture", "atoms": [{"location": [0.0, 0.0], "weight": 1.0}]}
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
    doc = small_clt_doc(model=_static(_DELTA0)["model"], n=10**4, count=10**5, thresholds={"ks": 0.01})
    out = tmp_path / "baseline"
    assert run(config_from_dict(doc), out) == 0
    report = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    assert report["passed"] and report["observed"] < 0.01


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


@pytest.mark.parametrize("coefficient, exponent, exponents", [
    (0.5, 0.75, (0.75, 0.75)), ([0.5], [0.75], (0.75, 0.75)), ([0.5], 0.75, (0.75, 0.75)),
    (0.5, [0.75], (0.75, 0.75)), ([0.5], [0.75, 0.25], (0.75, 0.25)),
])
def test_a_one_element_power_law_applies_to_every_group(coefficient, exponent, exponents):
    schedule = config_from_dict(_two_group_power_law(coefficient, exponent)).model.sequence.schedule
    assert (schedule.m, schedule.coefficients, schedule.exponents) == (2, (0.5, 0.5), exponents)


#: case -> (static base, group count, whether it is the point mass at the origin)
_ORIGIN_CASES = {
    "one-atom": (_DELTA0, 1, True),
    "two-atoms": ({"variant": "point-mass-mixture",
                   "atoms": [{"location": [0.0], "weight": 0.5}, {"location": [0.0], "weight": 0.5}]}, 1, True),
    "atom-m2": (_DELTA0_M2, 2, True),
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
    narrow = {"variant": "uniform-box", "lower": [-0.2], "upper": [0.2]}
    mixture = {"variant": "mixture",
               "components": [{"measure": _ATOMS, "weight": 0.5}, {"measure": narrow, "weight": 0.5}]}
    doc = small_clt_doc(count=3000, thresholds={"ks": 0.08, "cross_correlation": 0.05})
    doc["model"]["groups"] = {"m": 2, "proportions": [0.5, 0.5]}
    doc["model"]["sequence"]["base"] = {"variant": "product", "factors": [_UNIFORM, mixture]}
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


# -- refused configs ---------------------------------------------------------------

_DELETE = object()  # an edit that removes its key
_BIG = 10**400  # an integer of 401 digits, past the largest float (about 1.8e308)
_B, _S, _C = "model.sequence.base", "model.sequence.schedule", "model.sequence.coupling"
_VECTOR = "must be a number or a list of numbers"
_MATRIX = "must be a number, a list of numbers or a list of number lists of one length"
_SEED = "seed must be a nonnegative integer (no wall-clock default is provided)"
_HUGE = "must be a finite number, got an integer of 401 digits"
_THRESHOLDS = "thresholds must be a mapping of threshold names to values"
_HOT = "the mixing density needs the high-temperature regime (identity minus coupling positive definite)"
_SINGULAR = "the mixing density needs a positive definite coupling"
_LONG_LITERAL = f"an integer of 5000 digits is past Python's limit of {sys.get_int_max_str_digits()} digits"


def _unknown(key, known):
    return f"unknown key {key!r}; expected one of {tuple(known)}"


def _too_small(population, m):
    return f"population {population} cannot give every one of {m} groups at least 2 voters"


def _explicit(table, regimes, **more):
    return {"kind": "explicit", "table": table, "regimes": regimes, **more}


def _llt_refusal(case, m, bias, sequence, n_grid, regime):
    return (case, "llt_baseline", {"model": _model_doc(m, bias, sequence)["model"], "n_grid": n_grid},
            "verify-llt compares the lattice law with the N(0, I) density, which is not the limit "
            f"of a {regime} model", "model")


#: case -> (a document that loads, the path of one of its nodes, the keys that node takes)
_STRICT_CASES = {
    "model": (_static(_UNIFORM), "model", ("groups", "bias_map", "sequence")),
    "groups": (_static(_UNIFORM), "model.groups", ("m", "proportions")),
    "static": (_static(_UNIFORM), "model.sequence", ("kind", "base")),
    "contracted": (_contracted(_POWER), "model.sequence", ("kind", "base", "schedule")),
    "curie-weiss": (_CW_BETA, "model.sequence", ("kind", "coupling")),
    "uniform-box": (_static(_UNIFORM), _B, ("variant", "lower", "upper")),
    "gaussian": (_static(_GAUSSIAN, bias="tanh"), _B, ("variant", "mean", "covariance")),
    "point-mass-mixture": (_static(_ATOMS), _B, ("variant", "atoms")),
    "atom": (_static(_ATOMS), f"{_B}.atoms[1]", ("location", "weight")),
    "product": (_static(_PRODUCT, m=2), _B, ("variant", "factors")),
    "product-factor": (_static(_PRODUCT, m=2), f"{_B}.factors[1].atoms[0]", ("location", "weight")),
    "mixture": (_static(_MIXTURE), _B, ("variant", "components")),
    "mixture-component": (_static(_MIXTURE), f"{_B}.components[1]", ("measure", "weight")),
    "mixture-measure": (_static(_MIXTURE), f"{_B}.components[0].measure", ("variant", "lower", "upper")),
    "power-law": (_contracted(_POWER), _S, ("kind", "coefficient", "exponent")),
    "explicit": (_contracted(_EXPLICIT), _S, ("kind", "table", "regimes", "h")),
    "coupling-beta": (_CW_BETA, _C, ("beta", "j")),
    "coupling-j": (_CW_J, _C, ("beta", "j")),
}


def _untaken_cases():
    """Each top-level key and threshold a kind does not take, added to its document."""
    for name, kind in KINDS.items():
        for key in sorted(_KEY_VALUES.keys() - set(kind.keys)):
            yield f"{name}:{key}", name, {key: _KEY_VALUES[key]}, _unknown(key, kind.keys)
        for key in sorted(_THRESHOLD_VALUES.keys() - kind.thresholds.keys()):
            case = (f"{name}:thresholds.{key}", name, {f"thresholds.{key}": _THRESHOLD_VALUES[key]})
            if kind.thresholds:
                yield *case, _unknown(key, kind.thresholds)
            else:  # a kind without thresholds refuses the whole mapping
                yield *case, _unknown("thresholds", kind.keys), "thresholds"


_CLT_KEYS, _LLT_KEYS = KINDS["verify-clt"].keys, KINDS["verify-llt"].keys
_NOT_N_GRID = _unknown("n_grid", _CLT_KEYS)
_POINTS = "points must be a list of [population, margin] number pairs with population > 0"

#: every refused document, under the test that runs it: (case id, base, {key
#: path: new value}, message[, cited path]).  The base is a shipped config, a
#: kind of _KIND_DOCS or a document, and loads unedited; edited, it exits 2
#: at load with the one stderr line "error: line N: <cited>: <message>", the
#: cited path being the last edited one unless given.  Each test keeps the
#: name and case ids its cases had before they shared this table; a test
#: whose cases have no id runs them one after another.
_REFUSALS = {
    "test_bad_config_values_exit_2_before_sampling": [
        ("n-abc", "fast_clt", {"n": "abc"}, "n must be an integer"),
        ("n-10000.7", "fast_clt", {"n": 10000.7}, "n must be an integer"),
        ("workers-two", "fast_clt", {"workers": "two"}, "workers must be an integer"),
        ("n_grid-5", "fast_clt", {"n_grid": 5}, _NOT_N_GRID),
        ("count-2.5", "fast_clt", {"count": 2.5}, "count must be an integer"),
        ("seed-True", "fast_clt", {"seed": True}, _SEED),
        ("seed--1", "fast_clt", {"seed": -1}, _SEED),
        ("thresholds.ks-abc", "fast_clt", {"thresholds.ks": "abc"}, "ks must be a number"),
        ("thresholds.cross_correlation-value8", "fast_clt", {"thresholds.cross_correlation": [1]},
         "cross_correlation must be a number"),
        ("thresholds.target_law-gausian", "fast_clt", {"thresholds.target_law": "gausian"},
         "target_law must be one of ('auto', 'gaussian')"),
        ("workers-0", "fast_clt", {"workers": 0}, "workers must be at least 1"),
        ("workers--2", "fast_clt", {"workers": -2}, "workers must be at least 1"),
        ("thresholds.ks-nan", "fast_clt", {"thresholds.ks": float("nan")},
         "ks must be positive and finite, got nan"),
        ("thresholds.ks--1", "fast_clt", {"thresholds.ks": -1}, "ks must be positive and finite, got -1"),
        ("count-1", "fast_clt", {"count": 1},
         "count must be at least 2 for the cross-correlation of two groups"),
        ("n_grid-value15", "fast_clt", {"n_grid": [100.5, 1000]}, _NOT_N_GRID),
        ("n_grid-value16", "fast_clt", {"n_grid": ["100", 1000]}, _NOT_N_GRID),
        ("n_grid-value17", "fast_clt", {"n_grid": [True, 1000]}, _NOT_N_GRID),
        # a table key follows the rule of n, and it and its eps are cited at the table's line
        *((f"schedule.table-value{i}", "fast_clt", {_S: _explicit(table, ["fast", "fast"])}, message,
           f"{_S}.table") for i, (table, message) in enumerate([
               ({10000.5: [0.125, 0.0625]}, "key 10000.5 must be a positive integer population"),
               ({"10000": [0.125, 0.0625]}, "key '10000' must be a positive integer population"),
               ({True: [0.125, 0.0625]}, "key True must be a positive integer population"),
               ({10000: ["0.125", 0.0625]}, f"eps of population 10000 {_VECTOR}"),
               ({10000: [True, 0.0625]}, f"eps of population 10000 {_VECTOR}")], 18)),
        ("schedule.coefficient-1.0", "fast_clt", {f"{_S}.coefficient": "1.0"}, f"coefficient {_VECTOR}"),
        ("schedule.exponent-True", "fast_clt", {f"{_S}.exponent": True}, f"exponent {_VECTOR}"),
    ],
    "test_bad_model_leaves_exit_2_at_their_line": [
        (f"{name}-{node.replace('[0]', '.0')}-mapping{i}-{key}-{end}", name, {node: mapping},
         f"{key} {end}", f"{node}.{key}") for i, (name, node, mapping, key, end) in enumerate([
             ("critical_clt", f"{_B}.atoms[0]", {"location": ["-2.0"], "weight": 0.5}, "location", _VECTOR),
             ("critical_clt", f"{_B}.atoms[0]", {"location": [True], "weight": 0.5}, "location", _VECTOR),
             ("critical_clt", f"{_B}.atoms[0]", {"location": None, "weight": 0.5}, "location", _VECTOR),
             # a null weight once reached numpy's sampler as a nan probability
             ("critical_clt", f"{_B}.atoms[0]", {"location": [-2.0], "weight": None}, "weight",
              "must be a number"),
             ("cwm_equivalence", _C, {"beta": "0.5"}, "beta", "must be a number"),
             ("cwm_equivalence", _C, {"beta": True}, "beta", "must be a number"),
             ("cwm_equivalence", _C, {"j": [["0.5"]]}, "j", _MATRIX),
             ("critical_clt", "model.groups", {"m": 1, "proportions": ["1.0"]}, "proportions", _VECTOR),
             ("subcritical_base", _B, {"variant": "uniform-box", "lower": ["-1"], "upper": [1]}, "lower",
              _VECTOR),
             ("subcritical_base", _B, {"variant": "gaussian", "mean": [0.0], "covariance": [["1"]]},
              "covariance", _MATRIX)])
    ],
    "test_delta_must_be_a_positive_number": [
        (str(delta), "cwm_equivalence", {"delta": delta}, "delta must be a positive number below 1")
        for delta in [0, -0.5, "0.5", True, float("inf"), 1.0, 1.5]
    ],
    "test_concentration_grid_must_hold_positive_integers": [
        (case, "cwm_equivalence", {"concentration_grid": grid},
         "concentration_grid must be a list of positive integers")
        for case, grid in [("grid0", [20, 0]), ("grid1", [20, 40.5]), ("grid2", [True]), ("20_0", "20"),
                           ("20_1", 20)]
    ],
    # two points fit a line exactly, one llt error has nothing to fall from,
    # and both ordered checks read the grid from left to right
    "test_a_grid_that_cannot_give_a_verdict_exits_2_citing_its_line": [
        ("cwm-one-size", "verify-cwm", {"concentration_grid": [20]},
         "concentration_grid needs at least 3 distinct sizes"),
        ("cwm-two-sizes", "verify-cwm", {"concentration_grid": [20, 40]},
         "concentration_grid needs at least 3 distinct sizes"),
        ("cwm-two-distinct-sizes", "verify-cwm", {"concentration_grid": [20, 20, 40]},
         "concentration_grid needs at least 3 distinct sizes"),
        ("llt-one-size", "verify-llt", {"n_grid": [100]},
         "n_grid needs at least 2 sizes to compare the error across"),
        ("llt-decreasing", "verify-llt", {"n_grid": [1000, 100]}, "n_grid must be strictly increasing"),
        ("decay-decreasing", "correlation-decay", {"n_grid": [1000, 100]},
         "n_grid must be strictly increasing"),
        ("decay-repeated", "correlation-decay", {"n_grid": [100, 100, 1000]},
         "n_grid must be strictly increasing"),
    ],
    "test_a_population_too_small_for_its_groups_exits_2_at_its_line": [
        ("fast_clt-n-3", "fast_clt", {"n": 3}, _too_small(3, 2)),
        ("critical_clt-n--5", "critical_clt", {"n": -5}, _too_small(-5, 1)),
        ("llt_baseline-n_grid-value2", "llt_baseline", {"n_grid": [1, 100]}, _too_small(1, 1)),
        ("cwm_equivalence-n_grid-value3", "cwm_equivalence", {"n_grid": [1, 8]}, _too_small(1, 1)),
        ("cwm_equivalence-concentration_grid-value4", "cwm_equivalence",
         {"concentration_grid": [1, 20, 40]}, _too_small(1, 1)),
    ],
    # the rule n and count follow: a bool is no integer, so true is not one group
    "test_groups_m_must_be_an_integer": [
        (f"{case}-{kind}", _groups_m_doc(kind, 2), {"model.groups.m": m}, "m must be an integer")
        for case, m in [("2.5", 2.5), ("str", "2"), ("true", True)] for kind in ["simulate", "verify-clt"]
    ],
    # Path(5) once raised a TypeError out of run
    "test_an_out_that_is_no_path_exits_2_at_its_line": [
        (case, "verify-clt", {"out": out}, "out must be a path")
        for case, out in [("int", 5), ("bool", True), ("list", ["o"])]
    ],
    # an infinite coefficient would reach Generator.binomial as p = nan
    "test_a_non_finite_number_exits_2_at_its_line": [
        (case, "fast_clt", {f"{_S}.coefficient": float(case)}, f"must be a finite number, got {case}")
        for case in ["inf", "nan"]
    ],
    "test_non_finite_list_items_and_points_are_refused": [
        (None, "verify-clt", {f"{_B}.lower[0]": float("-inf")}, "must be a finite number, got -inf"),
        (None, "estimate-alpha", {"points[1][1]": float("nan")}, "must be a finite number, got nan"),
    ],
    # on a document of the kind that reads the threshold
    "test_threshold_values_are_checked": [
        (f"thresholds{i}", kind, {"thresholds": {name: value}}, message, f"thresholds.{name}")
        for i, (kind, name, value, message) in enumerate([
            ("estimate-alpha", "alpha_range", [0.3, 0.1], "alpha_range must be two numbers lo <= hi"),
            ("estimate-alpha", "alpha_range", [0.1], "alpha_range must be two numbers lo <= hi"),
            ("estimate-alpha", "alpha_range", "0.1", "alpha_range must be two numbers lo <= hi"),
            ("verify-llt", "llt", True, "llt must be a number"),
            ("verify-cwm", "r2", None, "r2 must be a number"),
            ("verify-clt", "ks", 0, "ks must be positive and finite, got 0"),
            ("verify-clt", "cross_correlation", float("inf"),
             "cross_correlation must be positive and finite, got inf"),
            ("verify-cwm", "r2", 1.5, "r2 must be in (0, 1], got 1.5"),
            ("verify-cwm", "equivalence", -1e-8, "equivalence must be positive and finite, got -1e-08")])
    ],
    "test_non_numeric_model_values_exit_2": [
        ("groups-m", _static(_UNIFORM), {"model.groups.m": "x"}, "m must be an integer"),
        ("proportions", _static(_UNIFORM), {"model.groups.proportions": ["x"]}, f"proportions {_VECTOR}"),
        ("box-lower", _static(_UNIFORM), {f"{_B}.lower": ["x"]}, f"lower {_VECTOR}"),
        ("coefficient", _contracted(_POWER), {f"{_S}.coefficient": "x"}, f"coefficient {_VECTOR}"),
        ("beta", _CW_BETA, {f"{_C}.beta": "x"}, "beta must be a number"),
    ],
    "test_unknown_key_inside_model_is_line_anchored": [
        (case, doc, {f"{path}.typo": 1}, _unknown("typo", known))
        for case, (doc, path, known) in _STRICT_CASES.items()
    ],
    "test_missing_weight_is_line_anchored": [
        (f"{case}-{path}", doc, {f"{path}.weight": _DELETE}, "missing required key 'weight'", path)
        for case, doc, path in [("atom", _static(_ATOMS), f"{_B}.atoms[1]"),
                                ("mixture-component", _static(_MIXTURE), f"{_B}.components[1]")]
    ],
    "test_scalar_in_place_of_a_list_is_line_anchored": [
        (f"{case}-{_B}-{key}", doc, {f"{_B}.{key}": 5}, "expected a list")
        for case, doc, key in [("atom", _static(_ATOMS), "atoms"),
                               ("product", _static(_PRODUCT, m=2), "factors"),
                               ("mixture", _static(_MIXTURE), "components")]
    ],
    "test_misspelled_top_level_key_is_an_anchored_error": [
        (None, "verify-clt", {"thresholds": _DELETE, "thresholdz": {"ks": 0.08}},
         _unknown("thresholdz", _CLT_KEYS)),
    ],
    "test_unknown_threshold_name_is_an_anchored_error": [
        (None, "verify-clt", {"thresholds.kss": 0.01}, _unknown("kss", KINDS["verify-clt"].thresholds)),
        (None, "verify-clt", {"thresholds": [0.08]}, _THRESHOLDS),
    ],
    "test_model_typos_exit_2": [
        (None, "cwm_equivalence", {f"{_C}.betta": 0.9}, _unknown("betta", ("beta", "j"))),
        (None, "cwm_equivalence", {"model.sequence": {"kind": "curie-weiss", "schedulez": {
            "kind": "power-law"}, "coupling": {"beta": 0.5}}}, _unknown("schedulez", ("kind", "coupling")),
         "model.sequence.schedulez"),
    ],
    "test_coupling_with_beta_and_j_is_rejected": [
        (None, _CW_BETA, {f"{_C}.j": [[0.9]]}, "coupling takes either 'beta' or a matrix 'j', not both", _C),
    ],
    # verify-llt compares with the N(0, I) density, so any other limit is refused at load
    "test_verify_llt_refuses_a_model_whose_limit_is_not_standard_normal": [
        _llt_refusal("critical-h2", 1, "clamp", _box_power(2.0, 0.5), [100, 1000, 10000], "critical"),
        _llt_refusal("subcritical", 1, "clamp", _box_power(1.0, 0.15), [100, 1000, 10000], "subcritical"),
        _llt_refusal("curie-weiss", 1, "tanh", {"kind": "curie-weiss", "coupling": {"beta": 0.5}},
                     [100, 1000, 4000], "mean-field"),
        _llt_refusal("spread-out-static", 1, "clamp", {"kind": "static", "base": _UNIFORM}, [100, 1000],
                     "spread-out static"),
        _llt_refusal("fast-and-subcritical", 2, "clamp", _box_power(1.0, [0.75, 0.15], m=2), [100, 1000],
                     "subcritical"),
        _llt_refusal("critical-and-subcritical", 2, "clamp", _box_power(2.0, [0.5, 0.15], m=2),
                     [100, 1000], "critical and subcritical"),
    ],
    # the hypotheses of the limit laws and of the alpha fit, once refused from
    # inside run, after it had cleared the output directory, at no line
    "test_a_document_a_run_cannot_take_exits_2_at_load": [
        ("no-limit-spread-out-static", "subcritical_base", {"model": _static(_UNIFORM)["model"]},
         "no dispatchable limit for a spread-out static mixing measure; "
         "set thresholds.target_law: gaussian to compare against the normal law"),
        ("no-limit-curie-weiss", "verify-clt", {"model": _CW_BETA["model"]},
         "no dispatchable limit for a curie-weiss sequence"),
        ("no-limit-critical-without-h", "subcritical_base", {_S: _explicit({1000000: [0.001]}, ["critical"])},
         "group 0 is critical but its constant h is not declared", "model"),
        ("explicit-without-n", "subcritical_base", {_S: _explicit({400: [0.1]}, ["subcritical"])},
         "explicit schedule has no eps entry for n=1000000", "n"),
        ("explicit-without-n_grid", "subcritical_decay",
         {_S: _explicit({100: [0.1], 1000: [0.03]}, ["critical"], h=[1.0])},
         "explicit schedule has no eps entry for n=10000", "n_grid"),
        ("coupling-low-temperature", "cwm_equivalence", {f"{_C}.beta": 1.5}, _HOT, _C),
        # a zero coupling mixes with a point mass, but has no density to profile
        ("coupling-zero-with-profile", "cwm_equivalence", {f"{_C}.beta": 0}, _SINGULAR, _C),
        ("coupling-singular", _CW_J, {f"{_C}.j": [[0.5, 0.5], [0.5, 0.5]]}, _SINGULAR, _C),
        ("coupling-simulate-low-temperature", _CW_BETA, {f"{_C}.beta": 2.0}, _HOT, _C),
        ("points-one-population", "estimate-alpha", {"points": [[100, 0.1], [100, 0.2]]},
         "alpha estimation needs at least 2 distinct population sizes"),
        ("points-negative-margin", "estimate-alpha", {"points": [[100, -0.1], [1000, 0.01]]},
         "alpha estimation needs strictly positive margins"),
        ("points-one-point", "estimate-alpha", {"points": [[100, 0.1]]}, "alpha estimation needs at least 2 points"),
    ],
    "test_validation_error_cites_line_and_invariant": [
        (None, "verify-clt", {f"{_S}.exponent": -0.75},
         "power-law exponents must be positive so that eps_n -> 0", _S),
    ],
    "test_growing_explicit_schedule_is_exit_2": [
        (None, "verify-clt", {_S: _explicit({400: [0.1], 800: [0.2]}, ["fast"])},
         "tabulated eps values must decrease: the schedule must satisfy eps_n -> 0"),
    ],
    # a negative h would silently reflect the critical group's limit law
    "test_a_nonpositive_explicit_h_exits_2_citing_the_schedule": [
        (str(h), "verify-clt", {_S: _explicit({400: [0.05]}, ["critical"], h=[h])},
         f"h must be positive on every group, got [{h}]") for h in [0.0, -1.0]
    ],
    # h is read only on critical groups, so here it would be silently ignored
    "test_an_explicit_h_without_a_critical_group_exits_2_citing_the_schedule": [
        (None, "subcritical_base", {_S: _explicit({1000000: [0.125]}, ["subcritical"], h=[3.0])},
         "h is read only on critical groups, and no group is declared critical"),
    ],
    "test_a_power_law_list_of_the_wrong_length_exits_2_citing_the_schedule": [
        (f"{key}-value{i}", _two_group_power_law(1.0, 0.75), {f"{_S}.{key}": value},
         f"{key}s must be a scalar or a length-2 vector", _S)
        for i, (key, value) in enumerate([("coefficient", [1.0, 1.0, 1.0]), ("exponent", [0.75, 0.5, 0.25])])
    ],
    "test_keys_a_kind_does_not_read_exit_2_citing_their_line": [
        ("clt-n_grid-without-n", "verify-clt", {"n": _DELETE, "n_grid": [100, 200]}, _NOT_N_GRID),
        ("simulate-n_grid-without-n", "simulate", {"n": _DELETE, "n_grid": [100, 200]},
         _unknown("n_grid", KINDS["simulate"].keys)),
        ("clt-llt-r2-delta", "verify-clt", {"delta": 0.5, "concentration_grid": [20, 40],
                                            "thresholds.llt": 0.5, "thresholds.r2": 3},
         _unknown("delta", _CLT_KEYS), "delta"),
        ("llt-count-ks", "verify-llt", {"count": 7, "thresholds.ks": 0.5}, _unknown("count", _LLT_KEYS),
         "count"),
        ("cwm-delta-alone", "verify-cwm", {"concentration_grid": _DELETE},
         "this experiment takes all or none of ('delta', 'concentration_grid')", "delta"),
        ("alpha-scalar-points", "estimate-alpha", {"points": 5}, _POINTS),
        ("alpha-short-point", "estimate-alpha", {"points": [[100, 0.1], [1000]]}, _POINTS),
        ("alpha-zero-population", "estimate-alpha", {"points": [[0, 0.1], [1000, 0.01]]}, _POINTS),
        ("clt-input-points", "verify-clt", {"input": "margins.csv", "points": _ALPHA_DOC["points"]},
         _unknown("input", _CLT_KEYS), "input"),
        ("alpha-scalar-input", "estimate-alpha", {"points": _DELETE, "input": 5},
         "input must be a nonempty path"),
        ("alpha-empty-input", "estimate-alpha", {"input": ""}, "input must be a nonempty path"),
        ("cwm-r2-without-pair", "verify-cwm", {"delta": _DELETE, "concentration_grid": _DELETE,
                                               "thresholds.r2": 0.5},
         "read only with ('delta', 'concentration_grid'); give those keys or drop the threshold"),
        *_untaken_cases(),
    ],
    "test_a_refused_config_exits_2_at_its_line": [
        # a falsy non-mapping once loaded as no thresholds, so fast_clt ran on the default KS bound
        *((f"thresholds-{case}", "fast_clt", {"thresholds": value}, _THRESHOLDS)
          for case, value in [("0", 0), ("false", False), ("empty-string", ""), ("empty-list", []),
                              ("list", [1])]),
        # the names each may take are their owners' to check, after the type
        ("bias_map-list", "fast_clt", {"model.bias_map": ["tanh"]}, "bias_map must be a name"),
        ("bias_map-number", "fast_clt", {"model.bias_map": 5}, "bias_map must be a name"),
        ("bias_map-unknown", "fast_clt", {"model.bias_map": "tanhh"},
         "unknown bias map 'tanhh'; expected one of ['clamp', 'tanh']"),
        ("regimes-null", "verify-clt", {_S: _explicit({400: [0.1]}, None)},
         "regimes must be a list of regime names", f"{_S}.regimes"),
        ("regimes-number", "verify-clt", {_S: _explicit({400: [0.1]}, 5)},
         "regimes must be a list of regime names", f"{_S}.regimes"),
        ("regimes-unknown", "verify-clt", {_S: _explicit({400: [0.1]}, ["fastt"])},
         "regimes must be 1 tags from ('fast', 'critical', 'subcritical')"),
        ("table-list", "verify-clt", {_S: _explicit([0.1], ["fast"])},
         "expected a mapping of populations to eps lists", f"{_S}.table"),
        # ragged or mixed-depth rows once failed in numpy, with its text, at the node's line
        ("ragged-covariance", _static(_GAUSSIAN, bias="tanh"), {f"{_B}.covariance": [[1.0], [1.0, 2.0]]},
         f"covariance {_MATRIX}"),
        ("ragged-j", _CW_J, {f"{_C}.j": [[0.5, 0.1], [0.1]]}, f"j {_MATRIX}"),
        ("mixed-depth-covariance", _static(_GAUSSIAN, bias="tanh"), {f"{_B}.covariance": [1, [2]]},
         f"covariance {_MATRIX}"),
        # a number read as a float that no float holds once ended in an OverflowError traceback
        *((f"huge-{path.rpartition('.')[2]}", base, {path: value}, _HUGE) for base, path, value in [
            ("fast_clt", f"{_S}.coefficient", _BIG), ("fast_clt", f"{_S}.exponent", _BIG),
            ("subcritical_base", f"{_B}.lower[0]", _BIG), ("subcritical_base", f"{_B}.upper[0]", -_BIG),
            ("critical_clt", f"{_B}.atoms[0].location[0]", _BIG), ("critical_clt", f"{_B}.atoms[0].weight", _BIG),
            (_static(_GAUSSIAN, bias="tanh"), f"{_B}.mean[0]", _BIG),
            (_static(_GAUSSIAN, bias="tanh"), f"{_B}.covariance[0][0]", _BIG),
            ("cwm_equivalence", f"{_C}.beta", _BIG), (_CW_J, f"{_C}.j[0][1]", _BIG),
            ("fast_clt", "model.groups.proportions[0]", _BIG), ("fast_clt", "thresholds.ks", _BIG),
            ("estimate-alpha", "points[0][1]", _BIG)]),
        ("huge-alpha_range", "estimate-alpha", {"thresholds.alpha_range": [0.1, _BIG]}, _HUGE,
         "thresholds.alpha_range[1]"),
        ("huge-h", "verify-clt", {_S: _explicit({400: [0.1]}, ["critical"], h=[_BIG])}, _HUGE, f"{_S}.h[0]"),
        ("huge-eps", "verify-clt", {_S: _explicit({400: [_BIG]}, ["fast"])}, _HUGE, f"{_S}.table.400[0]"),
        ("huge-delta", "verify-cwm", {"delta": _BIG}, "delta must be a positive number below 1"),
        # the other rules of VALUES and refusals of config_from_dict
        ("n_grid-number", "verify-llt", {"n_grid": 5}, "n_grid must be a list of positive integers"),
        ("llt-negative", "verify-llt", {"thresholds.llt": -1}, "llt must be positive and finite, got -1"),
        ("equivalence-string", "verify-cwm", {"thresholds.equivalence": "1e-8"},
         "equivalence must be a number"),
        ("correlation-true", "correlation-decay", {"thresholds.correlation": True},
         "correlation must be a number"),
        ("correlation-zero", "correlation-decay", {"thresholds.correlation": 0},
         "correlation must be positive and finite, got 0"),
        ("mean-string", _static(_GAUSSIAN, bias="tanh"), {f"{_B}.mean": ["0"]}, f"mean {_VECTOR}"),
        ("upper-string", "subcritical_base", {f"{_B}.upper": ["1"]}, f"upper {_VECTOR}"),
        ("h-string", "verify-clt", {_S: _explicit({400: [0.1]}, ["critical"], h=["3"])}, f"h {_VECTOR}",
         f"{_S}.h"),
        ("groups-number", "fast_clt", {"model.groups": 5}, "expected a mapping"),
        ("variant-unknown", "subcritical_base", {f"{_B}.variant": "cube"}, "unknown measure variant 'cube'"),
        ("schedule-kind-unknown", "fast_clt", {f"{_S}.kind": "linear"}, "unknown schedule kind 'linear'"),
        ("sequence-kind-unknown", "fast_clt", {"model.sequence.kind": "frozen"},
         "unknown sequence kind 'frozen'"),
        ("coupling-empty", "cwm_equivalence", {_C: {}}, "coupling needs either 'beta' or a matrix 'j'"),
        ("experiment-unknown", "fast_clt", {"experiment": "frobnicate"},
         f"unknown experiment kind 'frobnicate'; expected one of {tuple(KINDS)}"),
        ("n-zero", "fast_clt", {"n": 0}, "this experiment needs 'n'"),
        ("input-and-points", "estimate-alpha", {"input": "margins.csv"},
         "this experiment takes exactly one of ('input', 'points')", "points"),
        ("cwm-contracted-model", "verify-cwm", {"model": small_clt_doc()["model"]},
         "verify-cwm needs a curie-weiss sequence"),
    ],
}


def _parts(path):
    """``a.b[0].c`` as ["a", "b", 0, "c"]."""
    return [int(part) if part.isdigit() else part for part in re.findall(r"[^.\[\]]+", path)]


def _line(text, path):
    """The line at which yaml.safe_dump's block style writes the key or list item at ``path``."""
    lines, node, row, col = text.splitlines(), yaml.safe_load(text), 0, 0
    for part in _parts(path):
        item = isinstance(node, list)
        token = "- " if item else f"{part}:"
        found = [i for i in range(row, len(lines))
                 if lines[i][col:].startswith(token) and not lines[i][:col].strip(" -")]
        row, node = found[part if item else 0], node[part]
        # an item's content follows its "- " on the same line; a mapping's keys
        # start on the next line two columns in, a list's items at its key's column
        col += 2 if item or isinstance(node, dict) else 0
        row += 0 if item else 1
    return row + item


def _edited(base, edits):
    """The base document's experiment and the document with ``edits`` made."""
    doc = copy.deepcopy(base if isinstance(base, dict)
                        else _KIND_DOCS[base]() if base in _KIND_DOCS else shipped_doc(base))
    config_from_dict(copy.deepcopy(doc))
    kind = doc["experiment"]
    for path, value in edits.items():
        *parents, last = _parts(path)
        node = doc
        for part in parents:
            node = node.setdefault(part, {}) if isinstance(node, dict) else node[part]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = copy.deepcopy(value)
    return kind, doc


def _assert_refused(tmp_path, capsys, monkeypatch, base, edits, message, cited=None):
    """The edited base exits 2 at load, before run, with its one error line, and writes nothing."""
    kind, doc = _edited(base, edits)
    text = yaml.safe_dump(doc, sort_keys=False)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail(f"{edits} reached run"))
    Path("c.yaml").write_text(text)
    assert main([kind, "--config", "c.yaml"]) == 2, edits
    cited = cited or list(edits)[-1]
    assert capsys.readouterr().err == f"error: line {_line(text, cited)}: {cited}: {message}\n", edits
    assert os.listdir() == ["c.yaml"]


def _refusal_test(cases):
    """A test of ``cases``: parametrized by their ids, or running them in turn if they have none."""
    if cases[0][0] is None:
        def test(tmp_path, capsys, monkeypatch):
            for case in cases:
                _assert_refused(tmp_path, capsys, monkeypatch, *case[1:])
        return test

    @pytest.mark.parametrize("case", cases, ids=[case[0] for case in cases])
    def test(tmp_path, capsys, monkeypatch, case):
        _assert_refused(tmp_path, capsys, monkeypatch, *case[1:])
    return test


globals().update({name: _refusal_test(cases) for name, cases in _REFUSALS.items()})


def _error_patterns():
    """A regex for the message of each ``.error(...)`` call in config.py that writes its own text."""
    tree = ast.parse(Path(votelim.config.__file__).read_text())
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "error":
            message = call.args[0]
            if isinstance(message, ast.Constant):
                yield re.escape(message.value)
            elif isinstance(message, ast.JoinedStr):
                yield "".join(re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
                              for part in message.values)


def test_every_value_rule_and_config_refusal_has_a_case():
    cases = [(_parts(case[4] if len(case) > 4 else list(case[2])[-1])[-1], case[3])
             for cases in _REFUSALS.values() for case in cases] + [("seed", _LONG_LITERAL)]
    for key, rules in VALUES.items():
        for _, end in rules:
            pattern = re.escape(f"{key} {end}").replace(re.escape("{}"), ".+")
            assert any(cited == key and re.fullmatch(pattern, message) for cited, message in cases), (key, end)
    patterns = list(_error_patterns())
    assert len(patterns) > 20
    for pattern in patterns:
        assert any(re.fullmatch(pattern, message) for _, message in cases), pattern


def test_an_integer_literal_longer_than_python_reads_exits_2_at_its_line(tmp_path, capsys, monkeypatch):
    # written by hand, as Python turns no such integer into a string; --seed cannot mend a file not read
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("reached run"))
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(small_clt_doc(), sort_keys=False).replace("seed: 42", "seed: " + "7" * 5000))
    assert main(["verify-clt", "--config", str(cfg), "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: line 2: seed: {_LONG_LITERAL}\n"
    # in base 16 Python reads it at any length
    cfg.write_text(yaml.safe_dump(small_clt_doc(seed=0), sort_keys=False).replace("seed: 0", "seed: 0x" + "f" * 5000))
    assert load_config(cfg).seed == 16**5000 - 1


def test_a_refused_document_leaves_a_finished_run_untouched(tmp_path, capsys):
    out, good, bad = tmp_path / "o", tmp_path / "good.yaml", tmp_path / "bad.yaml"
    good.write_text(yaml.safe_dump(small_clt_doc()))
    # verify-clt has no limit law to compare a spread-out static base with
    bad.write_text(yaml.safe_dump(small_clt_doc(model=_static(_UNIFORM)["model"])))
    assert main(["verify-clt", "--config", str(good), "--out", str(out)]) == 0
    finished = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(finished) == ["manifest.json", "margins.npy", "reports.jsonl", "summary.csv"]
    assert main(["verify-clt", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: line ")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == finished


def test_a_null_in_a_key_that_may_be_absent_is_the_key_left_out():
    assert config_from_dict(small_clt_doc(thresholds=None)).thresholds == {}
    assert config_from_dict(small_clt_doc(out=None)).out is None


@pytest.mark.parametrize("key, code", [("seed", 0), ("workers", 0), ("n", 3), ("count", 3)])
def test_a_huge_integer_keeps_the_exit_code_of_its_key(tmp_path, capsys, key, code):
    # integers stay exact at any size: a seed or worker count runs, a population or count trips a guard
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({**small_simulate_doc(), "count": 10, key: _BIG}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("resource guard: ") if code else err == ""
