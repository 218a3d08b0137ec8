import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import votelim.cli as cli
from votelim import ConfigError, DataError
from votelim.cli import ingest_margins, main, run
from votelim.config import canonical_json, config_from_dict, config_hash, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        "n_grid": [10**8],
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


def test_subcommand_must_match_config(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(small_clt_doc()))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def _line_of(text, fragment):
    return next(i + 1 for i, ln in enumerate(text.splitlines()) if fragment in ln)


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


@pytest.mark.parametrize("delta", [0, -0.5, "0.5", True, float("inf")])
def test_delta_must_be_a_positive_number(delta):
    with pytest.raises(ConfigError, match="delta must be a positive number"):
        config_from_dict(small_clt_doc(delta=delta))


@pytest.mark.parametrize("grid", [[20, 0], [20, 40.5], [True], "20", 20])
def test_concentration_grid_must_hold_positive_integers(grid):
    with pytest.raises(ConfigError, match="concentration_grid must be a list of positive integers"):
        config_from_dict(small_clt_doc(concentration_grid=grid))


def test_load_config_applies_overrides_and_keeps_line_anchors(tmp_path):
    cfg = tmp_path / "c.yaml"
    text = yaml.safe_dump(small_clt_doc(), sort_keys=False)
    cfg.write_text(text)
    loaded = load_config(cfg, {"seed": 7, "workers": 2, "out": None})
    assert (loaded.seed, loaded.workers, loaded.out) == (7, 2, None)
    assert loaded.hash() == config_hash({**small_clt_doc(), "seed": 7, "workers": 2})
    cfg.write_text(text.replace("exponent: 0.75", "exponent: -0.75"))
    with pytest.raises(ConfigError, match=f"line {_line_of(text, 'schedule')}"):
        load_config(cfg, {"seed": 7})


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_configs_load_strictly(path):
    overrides = {"count": 4000, "workers": 2, "thresholds": {"cross_correlation": 0.1}}
    cfg = load_config(path, overrides)
    assert (cfg.workers, cfg.thresholds) == (2, {"cross_correlation": 0.1})


def _model_doc(m, bias, sequence):
    doc = small_clt_doc(experiment="simulate")
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
    doc = small_clt_doc(experiment="simulate")
    cfg = config_from_dict(doc)
    out = tmp_path / "run"
    assert run(cfg, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(doc)
    assert manifest["seed"] == 42
    assert "margins.csv" in manifest["outputs"]
    header = (out / "margins.csv").read_text().splitlines()[0]
    assert header == "sample_index,group,raw_margin,normalized_margin"


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
    assert (out1 / "margins.csv").read_bytes() == (out8 / "margins.csv").read_bytes()
    r1 = (out1 / "reports.jsonl").read_text()
    r8 = (out8 / "reports.jsonl").read_text()
    assert r1 == r8


def test_seed_override_changes_hash_and_samples(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(yaml.safe_dump(small_clt_doc(experiment="simulate")))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out_b), "--seed", "7"]) == 0
    hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
    hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
    assert hash_a != hash_b
    assert (out_a / "margins.csv").read_bytes() != (out_b / "margins.csv").read_bytes()


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
