"""End-to-end tests for the command-line pipeline.

Every command runs in-process through cli.main, so exit codes and
artifacts are checked without spawning interpreters.
"""

import argparse
import dataclasses
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from openset import cli, data, episodic, losses, model, splits, trainer

from test_trainer import NAN_VALIDATION_RUN, shared_content_validation_data

SYNTH_FLAGS = [
    "--n-verbs", "8", "--n-nouns", "8", "--class-density", "0.9",
    "--instances-lo", "4", "--instances-hi", "6", "--d-latent", "3",
    "--input-dim", "10", "--frames", "2", "--label-dim", "6",
    "--sigma-frame", "0.3", "--sigma-instance", "0.3", "--seed", "21",
]

TRAIN_FLAGS = [
    "--hidden-dim", "8", "--embed-dim", "6", "--max-batches", "30",
    "--val-every", "15", "--val-batches", "4",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> split -> train (VE and WE) -> eval (FSG and CM-FSG) -> report."""
    root = tmp_path_factory.mktemp("pipeline")
    d = {name: str(root / name) for name in
         ("data", "splits", "ve", "we", "eval_fsg", "eval_cm", "report")}

    assert cli.main(["synth", "--out", d["data"]] + SYNTH_FLAGS) == 0
    assert cli.main([
        "split", "--class-table", os.path.join(d["data"], "class_table.csv"),
        "--out", d["splits"], "--p-verbs", "2", "--p-nouns", "2", "--seeds", "0",
    ]) == 0
    split_csv = os.path.join(d["splits"], "split_0.csv")
    assert cli.main([
        "train", "--data", d["data"], "--split", split_csv,
        "--out", d["ve"], "--method", "VE",
    ] + TRAIN_FLAGS) == 0
    assert cli.main([
        "train", "--data", d["data"], "--split", split_csv,
        "--out", d["we"], "--method", "WE",
    ] + TRAIN_FLAGS) == 0
    assert cli.main([
        "eval", "--checkpoint", os.path.join(d["ve"], "checkpoint.osm"),
        "--data", d["data"], "--split", split_csv, "--out", d["eval_fsg"],
        "--task", "FSG", "--episodes", "8", "--m", "5",
    ]) == 0
    assert cli.main([
        "eval", "--checkpoint", os.path.join(d["we"], "checkpoint.osm"),
        "--data", d["data"], "--split", split_csv, "--out", d["eval_cm"],
        "--task", "CM-FSG", "--episodes", "8", "--m", "5",
    ]) == 0
    assert cli.main([
        "report", d["eval_fsg"], d["eval_cm"], "--out", d["report"],
    ]) == 0
    d["split_csv"] = split_csv
    return d


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        expect = {
            "data": ["class_table.csv", "features.osf", "labels.osl"],
            "splits": ["split_0.csv", "overlap_stats.csv", "imbalance.csv"],
            "ve": ["checkpoint.osm", "train_log.csv"],
            "we": ["checkpoint.osm", "train_log.csv"],
            "eval_fsg": ["eval.csv"],
            "eval_cm": ["eval.csv"],
            "report": ["report.csv"],
        }
        for key, names in expect.items():
            for name in names + ["resolved.cfg"]:
                assert os.path.exists(os.path.join(pipeline[key], name)), (key, name)

    def test_resolved_cfg_sorted_and_parseable(self, pipeline):
        path = os.path.join(pipeline["data"], "resolved.cfg")
        keys = list(cli.parse_config_file(path))
        assert keys == sorted(keys)
        assert keys == sorted(cli.SYNTH_SCHEMA)

    def test_eval_resolved_records_method(self, pipeline):
        meta = cli.parse_config_file(os.path.join(pipeline["eval_fsg"], "resolved.cfg"))
        assert meta["method"] == "VE"
        meta = cli.parse_config_file(os.path.join(pipeline["eval_cm"], "resolved.cfg"))
        assert meta["method"] == "WE"
        assert meta["dml"] == "multisim"  # train's default, read from its resolved.cfg
        assert meta["split_name"] == "split_0"

    def test_imbalance_file(self, pipeline):
        lines = Path(pipeline["splits"], "imbalance.csv").read_text().splitlines()
        assert lines[0] == "seed,imbalance_ratio"
        seed, ratio = lines[1].split(",")
        assert seed == "0"
        assert float(ratio) >= 1.0

    def test_report_rows_verbatim(self, pipeline):
        report = Path(pipeline["report"], "report.csv").read_text().splitlines()
        assert report[0] == ",".join(cli._REPORT_COLUMNS)
        rows = [line.split(",") for line in report[1:]]
        assert rows

        # accuracy strings must be copied unmodified from each eval.csv
        source = {}
        for key, meth in (("eval_fsg", "VE"), ("eval_cm", "WE")):
            for line in Path(pipeline[key], "eval.csv").read_text().splitlines()[1:]:
                if line.startswith("#"):
                    continue
                parts = line.split(",")
                source[(meth, parts[0], parts[1])] = parts[8]
        assert len(rows) == len(source)
        for row in rows:
            meth, task, subset, acc = row[0], row[2], row[3], row[11]
            assert source[(meth, task, subset)] == acc

        sort_keys = [(r[0], r[1], r[2], r[3], r[4]) for r in rows]
        assert sort_keys == sorted(sort_keys)

    def test_train_log_has_losses(self, pipeline):
        lines = Path(pipeline["ve"], "train_log.csv").read_text().splitlines()
        assert lines[0] == "kind,step,value"
        assert sum(1 for l in lines if l.startswith("loss,")) == 30

    def test_write_once_refusal(self, pipeline, capsys):
        code = cli.main(["synth", "--out", pipeline["data"]] + SYNTH_FLAGS)
        assert code == 1
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_cross_modal_needs_label_support(self, pipeline, tmp_path, capsys):
        out = tmp_path / "bad"
        code = cli.main([
            "eval", "--checkpoint", os.path.join(pipeline["ve"], "checkpoint.osm"),
            "--data", pipeline["data"], "--split", pipeline["split_csv"],
            "--out", str(out), "--task", "CM-FSG", "--episodes", "2",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "openset eval: VE has no label-embedding path; cannot run CM-FSG\n"
        # rejected before the output directory is made
        assert not out.exists()

    def test_eval_with_every_subset_skipped_exits_one(self, pipeline, tmp_path, capsys):
        # the split's test subsets hold 13 (All), 5 (HoV) and 5 (HoN) classes
        out = tmp_path / "none"
        code = cli.main(_command_argv(pipeline, "eval") + ["--out", str(out), "--n", "14"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("openset eval: eval: no subset has n=14 eligible classes "
                       "(All 13, HoV 5, HoN 5)\n")
        assert not out.exists()
        # a partial skip still runs: a warning line per skipped subset, exit 0
        out = tmp_path / "some"
        assert cli.main(_command_argv(pipeline, "eval") + ["--out", str(out), "--n", "6"]) == 0
        lines = Path(out, "eval.csv").read_text().splitlines()
        assert lines[1:3] == [f"# subset {name}: 5 eligible classes < n=6; skipped"
                              for name in ("HoV", "HoN")]
        assert [line.split(",")[1] for line in lines[3:]] == ["All"]

    def test_each_run_builds_each_pool_once(self, pipeline, tmp_path, monkeypatch):
        built = []

        class CountingPool(episodic.ClassPool):
            def __init__(self, dataset, classes, *args):
                built.append(set(classes))
                super().__init__(dataset, classes, *args)

        monkeypatch.setattr(episodic, "ClassPool", CountingPool)
        split = splits.read_split(pipeline["split_csv"],
                                  data.read_class_table(os.path.join(pipeline["data"],
                                                                     "class_table.csv")))
        # train validates (30 batches, a round every 15), so it pools both sets
        for command, want in (("train", [split.classes("train"), split.classes("val")]),
                              ("eval", [split.classes("test")])):
            built.clear()
            out = str(tmp_path / command)
            assert cli.main(_command_argv(pipeline, command) + ["--out", out]) == 0
            assert built == want


class TestSynth:
    def test_deterministic_across_runs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["synth", "--out", a] + SYNTH_FLAGS) == 0
        assert cli.main(["synth", "--out", b] + SYNTH_FLAGS) == 0
        for name in ("class_table.csv", "features.osf", "labels.osl"):
            wa = Path(a, name).read_bytes()
            wb = Path(b, name).read_bytes()
            assert wa == wb, name

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("n_verbs=3\nn_nouns=4\nlabel_dim=6\n")
        out = str(tmp_path / "out")
        assert cli.main([
            "synth", "--config", str(cfg), "--out", out,
            "--n-verbs", "5", "--instances-lo", "2", "--instances-hi", "3",
        ]) == 0
        resolved = cli.parse_config_file(os.path.join(out, "resolved.cfg"))
        assert resolved["n_verbs"] == "5"     # flag wins
        assert resolved["n_nouns"] == "4"     # file wins over default
        assert resolved["label_dim"] == "6"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("n_verbs=3\nbogus=1\n")
        code = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_bad_flag_value(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "o"), "--n-verbs", "abc"])
        assert code == 1
        assert "n_verbs" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        # argparse bails through sys.exit; the parser remaps its status to 1
        with pytest.raises(SystemExit) as info:
            cli.main(["synth", "--out", str(tmp_path / "o"), "--martians", "9"])
        assert info.value.code == 1


class TestParserCache:
    """main builds its parser once per process; no call leaks into the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flag_does_not_outlive_its_command(self, tmp_path):
        small = ["--instances-lo", "2", "--instances-hi", "3"]
        first, second = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["synth", "--out", first, "--n-verbs", "3"] + small) == 0
        assert cli.main(["synth", "--out", second] + small) == 0
        for out, n_verbs in ((first, "3"), (second, "10")):
            assert cli.parse_config_file(os.path.join(out, "resolved.cfg"))["n_verbs"] == n_verbs

    def test_usage_error_then_valid_command(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli.main(["synth", "--n-verbs", "3"])  # no --out
        assert info.value.code == 1
        out = str(tmp_path / "o")
        assert cli.main(["synth", "--out", out, "--instances-lo", "2", "--instances-hi", "3"]) == 0
        assert cli.parse_config_file(os.path.join(out, "resolved.cfg"))["n_verbs"] == "10"


class TestParserOptions:
    """Each config-taking command's parser holds its required inputs, then
    --config, --out and one flag per schema key, and nothing else."""

    @pytest.mark.parametrize("command, inputs, schema", [
        ("synth", [], cli.SYNTH_SCHEMA),
        ("split", ["--class-table"], cli.SPLIT_SCHEMA),
        ("train", ["--data", "--split"], cli.TRAIN_SCHEMA),
        ("eval", ["--checkpoint", "--data", "--split"], cli.EVAL_SCHEMA),
    ])
    def test_inputs_config_out_then_schema_keys(self, command, inputs, schema):
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        options = [(action.option_strings, action.required)
                   for action in sub.choices[command]._actions
                   if not isinstance(action, argparse._HelpAction)]
        assert options == (
            [([flag], True) for flag in inputs] + [(["--config"], False), (["--out"], True)]
            + [([f"--{key.replace('_', '-')}"], False) for key in schema])


class TestConfigFile:
    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\n\nn_verbs=7\n")
        assert cli.parse_config_file(str(cfg)) == {"n_verbs": "7"}

    def test_missing_equals_rejected(self, tmp_path):
        from openset.errors import ParseError
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_verbs\n")
        with pytest.raises(ParseError, match="1"):
            cli.parse_config_file(str(cfg))

    def test_duplicate_key_rejected(self, tmp_path):
        from openset.errors import ParseError
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a=1\na=2\n")
        with pytest.raises(ParseError, match="duplicate"):
            cli.parse_config_file(str(cfg))

    def test_invalid_utf8_rejected(self, tmp_path, capsys):
        from openset.errors import ParseError
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"n_verbs=\xff\n")
        with pytest.raises(ParseError, match="UTF-8"):
            cli.parse_config_file(str(cfg))
        code = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "UTF-8" in capsys.readouterr().err


def _defaults(cls, skip=()):
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.name not in skip and f.default is not dataclasses.MISSING}


class TestSchemaDefaults:
    """Each CLI default must equal the dataclass default it stands for."""

    def check(self, schema, want):
        assert set(schema) == set(want)
        for key, (conv, default) in schema.items():
            assert default == want[key], key
            assert conv(str(default)) == want[key], key

    def test_synth_schema(self):
        want = _defaults(data.SynthConfig, skip=("instances_per_class",))
        want["instances_lo"], want["instances_hi"] = data.SynthConfig().instances_per_class
        self.check(cli.SYNTH_SCHEMA, want)

    def test_split_schema(self):
        want = _defaults(splits.SplitSpec, skip=("seed",))
        schema = dict(cli.SPLIT_SCHEMA)
        _, seeds = schema.pop("seeds")
        assert cli._parse_seed_list(seeds) == [splits.SplitSpec().seed]
        self.check(schema, want)

    def test_eval_schema(self):
        self.check(cli.EVAL_SCHEMA, _defaults(episodic.EvalConfig))

    def test_train_schema(self):
        want = _defaults(trainer.TrainConfig)
        want.update(_defaults(losses.HistogramConfig))
        want.update(_defaults(losses.MultiSimConfig))
        model_defaults = _defaults(model.ModelConfig)
        want["hidden_dim"] = model_defaults["hidden_dim"]
        want["embed_dim"] = model_defaults["embed_dim"]
        self.check(cli.TRAIN_SCHEMA, want)


class _Built(Exception):
    """Raised by a stand-in for the library call a command makes, to stop the
    command once the config it built has been captured."""


def _flags(values):
    return [arg for key, value in values.items()
            for arg in (f"--{key.replace('_', '-')}", value)]


def _assert_fields(cfg, values, schema, skip=()):
    for f in dataclasses.fields(cfg):
        if f.name in skip:
            continue
        conv, default = schema[f.name]
        assert conv(values[f.name]) != default, f.name
        assert getattr(cfg, f.name) == conv(values[f.name]), f.name


class TestSchemaRouting:
    """Every synth, split and train key reaches the dataclass its command
    builds: each flag gets a non-default value and each field must carry it."""

    SYNTH = {
        "n_verbs": "7", "n_nouns": "6", "class_density": "0.55",
        "instances_lo": "3", "instances_hi": "9", "d_latent": "5",
        "input_dim": "12", "frames": "3", "label_dim": "10",
        "sigma_frame": "0.4", "sigma_instance": "0.3", "seed": "17",
    }
    SPLIT = {
        "v_lower": "1", "v_upper": "50", "n_lower": "2", "n_upper": "60",
        "p_verbs": "3", "p_nouns": "4", "p_verbs_test": "0.25",
        "p_nouns_test": "0.75", "seeds": "9",
    }
    TRAIN = {
        "method": "JE", "dml": "histogram", "lambda_we": "2.5", "lr0": "0.01",
        "decay_factor": "0.5", "decay_every": "77", "val_every": "11",
        "val_batches": "3", "max_batches": "40", "patience": "25",
        "batch_classes": "5", "batch_k_max": "4", "batch_min_total": "9",
        "seed": "13", "bins": "20", "alpha": "3.0", "beta": "40.0",
        "base": "0.4", "margin": "0.2", "hidden_dim": "9", "embed_dim": "7",
    }

    def test_synth_keys_reach_synth_config(self, tmp_path, monkeypatch):
        assert set(self.SYNTH) == set(cli.SYNTH_SCHEMA)

        def capture(cfg):
            raise _Built(cfg)

        monkeypatch.setattr(data, "synth_generate", capture)
        with pytest.raises(_Built) as built:
            cli.main(["synth", "--out", str(tmp_path / "o")] + _flags(self.SYNTH))
        (cfg,) = built.value.args
        _assert_fields(cfg, self.SYNTH, cli.SYNTH_SCHEMA, skip=("instances_per_class",))
        assert cfg.instances_per_class == (3, 9)

    def test_split_keys_reach_split_spec(self, pipeline, tmp_path, monkeypatch):
        assert set(self.SPLIT) == set(cli.SPLIT_SCHEMA)

        def capture(table, spec):
            raise _Built(spec)

        monkeypatch.setattr(splits, "generate_split", capture)
        with pytest.raises(_Built) as built:
            cli.main([
                "split", "--class-table", os.path.join(pipeline["data"], "class_table.csv"),
                "--out", str(tmp_path / "o"),
            ] + _flags(self.SPLIT))
        (spec,) = built.value.args
        _assert_fields(spec, self.SPLIT, cli.SPLIT_SCHEMA, skip=("seed",))
        assert spec.seed == 9

    def test_train_keys_reach_model_and_train_configs(self, pipeline, tmp_path, monkeypatch):
        assert set(self.TRAIN) == set(cli.TRAIN_SCHEMA)
        captured = {}

        def init(cfg, seed):
            captured["model"] = cfg

        def train(net, dataset, split, cfg):
            raise _Built(cfg)

        monkeypatch.setattr(model, "init_model", init)
        monkeypatch.setattr(trainer, "train", train)
        with pytest.raises(_Built) as built:
            cli.main([
                "train", "--data", pipeline["data"], "--split", pipeline["split_csv"],
                "--out", str(tmp_path / "o"),
            ] + _flags(self.TRAIN))
        (cfg,) = built.value.args
        _assert_fields(cfg, self.TRAIN, cli.TRAIN_SCHEMA, skip=("histogram", "multisim"))
        _assert_fields(cfg.histogram, self.TRAIN, cli.TRAIN_SCHEMA)
        _assert_fields(cfg.multisim, self.TRAIN, cli.TRAIN_SCHEMA)
        model_cfg = captured["model"]
        _assert_fields(model_cfg, self.TRAIN, cli.TRAIN_SCHEMA, skip=("input_dim", "label_dim"))
        assert (model_cfg.input_dim, model_cfg.label_dim) == (10, 6)


def _command_argv(pipeline, command):
    """A valid invocation of command on the pipeline's inputs, without --out."""
    return {
        "synth": ["synth"] + SYNTH_FLAGS,
        "split": ["split", "--class-table", os.path.join(pipeline["data"], "class_table.csv")],
        "train": ["train", "--data", pipeline["data"], "--split", pipeline["split_csv"]]
        + TRAIN_FLAGS,
        "eval": ["eval", "--checkpoint", os.path.join(pipeline["ve"], "checkpoint.osm"),
                 "--data", pipeline["data"], "--split", pipeline["split_csv"],
                 "--episodes", "2", "--m", "5"],
        "report": ["report", pipeline["eval_fsg"]],
    }[command]


def _copied_train_dir(pipeline, tmp_path):
    """A copy of the VE train directory's checkpoint and resolved.cfg."""
    copy = tmp_path / "train"
    copy.mkdir()
    for name in ("checkpoint.osm", "resolved.cfg"):
        (copy / name).write_bytes(Path(pipeline["ve"], name).read_bytes())
    return copy


class TestEvalLabels:
    """eval takes each report label from the run it evaluates: method from
    the checkpoint, dml from train's resolved.cfg beside it, split_name from
    the split file's stem. None of them is a flag or a config key."""

    def test_report_carries_the_trained_dml(self, pipeline, tmp_path):
        train, ev, rep = (str(tmp_path / name) for name in ("train", "eval", "report"))
        assert cli.main(["train", "--data", pipeline["data"], "--split", pipeline["split_csv"],
                         "--out", train, "--method", "WE", "--dml", "histogram"]
                        + TRAIN_FLAGS) == 0
        argv = _command_argv(pipeline, "eval")
        argv[argv.index("--checkpoint") + 1] = os.path.join(train, "checkpoint.osm")
        assert cli.main(argv + ["--out", ev, "--task", "CM-FSG"]) == 0
        assert cli.main(["report", ev, "--out", rep]) == 0
        rows = [line.split(",") for line in
                Path(rep, "report.csv").read_text().splitlines()[1:]]
        assert rows and {(r[0], r[1], r[4]) for r in rows} == {("WE", "histogram", "split_0")}

    def test_lone_checkpoint_has_no_dml(self, pipeline, tmp_path):
        lone = tmp_path / "lone" / "checkpoint.osm"
        lone.parent.mkdir()
        lone.write_bytes(Path(pipeline["ve"], "checkpoint.osm").read_bytes())
        argv = _command_argv(pipeline, "eval")
        argv[argv.index("--checkpoint") + 1] = str(lone)
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert cli.parse_config_file(str(out / "resolved.cfg"))["dml"] == "-"

    def test_malformed_train_resolved_exits_one(self, pipeline, tmp_path, capsys):
        train = _copied_train_dir(pipeline, tmp_path)
        (train / "resolved.cfg").write_text("dml multisim\n")
        argv = _command_argv(pipeline, "eval")
        argv[argv.index("--checkpoint") + 1] = str(train / "checkpoint.osm")
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"openset eval: {train / 'resolved.cfg'}:1: expected key=value\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--dml", "--split-name"])
    def test_label_flag_exits_one(self, pipeline, tmp_path, capsys, flag):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as info:
            cli.main(_command_argv(pipeline, "eval") + ["--out", str(out), flag, "x"])
        assert info.value.code == 1
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err
        assert not out.exists()

    def test_label_config_key_exits_one(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("dml=x\n")
        out = tmp_path / "o"
        code = cli.main(_command_argv(pipeline, "eval")
                        + ["--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "openset eval: unknown config file key 'dml'\n"
        assert not out.exists()


# one non-finite value per float field of the synth, split and train configs
NON_FINITE = [
    ("synth", "class_density", "nan"),
    ("synth", "sigma_frame", "inf"),
    ("synth", "sigma_instance", "inf"),
    ("split", "p_verbs_test", "nan"),
    ("split", "p_nouns_test", "nan"),
    ("train", "lambda_we", "nan"),
    ("train", "lr0", "nan"),
    ("train", "decay_factor", "nan"),
    ("train", "alpha", "nan"),
    ("train", "beta", "inf"),
    ("train", "base", "nan"),
    ("train", "margin", "nan"),
]

# each eval protocol the EvalConfig rejects, and a word of its message
BAD_EVAL = [
    (["--n", "0"], "positive"),
    (["--k", "0"], "positive"),
    (["--m", "0"], "positive"),
    (["--episodes", "0"], "positive"),
    (["--episodes", "4294967297"], "episodes 4294967297 > 2^32"),
    (["--task", "ZSG"], "unknown task"),
    (["--task", "CM-FSG", "--k", "2"], "k must be 1"),
]


# each is past 2^32 and would fail only once a run allocates by it
HUGE_COUNTS = [
    (["--dml", "histogram", "--bins", str(10**20)], f"histogram: bins {10**20} not in 2..2^32"),
    (["--val-batches", str(10**20)], f"val_batches {10**20} > 2^32"),
]

TRAIN_FLOAT_KEYS = [key for key, (conv, _) in cli.TRAIN_SCHEMA.items() if conv is float]


class TestFailureClasses:
    @pytest.mark.parametrize("command,key,value", NON_FINITE)
    def test_non_finite_config_value_exits_one(
        self, pipeline, tmp_path, capsys, command, key, value
    ):
        out = tmp_path / "o"
        code = cli.main(_command_argv(pipeline, command)
                        + ["--out", str(out), f"--{key.replace('_', '-')}", value])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{key} must be finite" in err and "Traceback" not in err
        # rejected before the output directory is made: no artifact, no resolved.cfg
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [
        ("synth", "--seed=-1"), ("split", "--seeds=-2"), ("train", "--seed=-3"),
        ("eval", "--seed=-1"),
    ])
    def test_negative_seed_exits_one(self, pipeline, tmp_path, capsys, command, flag):
        out = tmp_path / "o"
        code = cli.main(_command_argv(pipeline, command) + ["--out", str(out), flag])
        assert code == 1
        err = capsys.readouterr().err
        assert "seed must be nonnegative" in err and "Traceback" not in err
        assert not out.exists()

    def test_batch_floor_above_largest_batch_exits_one(self, pipeline, tmp_path, capsys):
        # 12 classes of at most 1 instance can never reach 13 items, whatever
        # the data: rejected when the config is built, not after 100 draws
        out = tmp_path / "o"
        code = cli.main(_command_argv(pipeline, "train") + [
            "--out", str(out), "--batch-k-max", "1", "--batch-min-total", "13",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "openset train: batch_min_total 13 exceeds the largest batch, "
            "batch_classes 12 x batch_k_max 1\n"
        )
        assert not out.exists()

    # "up to" counts past int64 mean every row; the synth's classes hold 4-6
    def test_huge_m_takes_every_row(self, pipeline, tmp_path):
        counts = []
        for m in ("30", str(10**20)):
            out = tmp_path / m
            assert cli.main(_command_argv(pipeline, "eval") + ["--out", str(out), "--m", m]) == 0
            rows = Path(out, "eval.csv").read_text().splitlines()[1:]
            counts.append([row.split(",")[5:] for row in rows])
        assert counts[0] == counts[1] and counts[0]

    def test_huge_k_has_no_eligible_class(self, pipeline, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main(_command_argv(pipeline, "eval") + ["--out", str(out), "--k", str(10**20)])
        assert code == 1
        assert capsys.readouterr().err == ("openset eval: eval: no subset has n=5 eligible "
                                           "classes (All 0, HoV 0, HoN 0)\n")
        assert not out.exists()

    def test_huge_batch_k_max_takes_every_row(self, pipeline, tmp_path):
        runs = []
        for k_max in ("30", str(10**20)):
            out = tmp_path / k_max
            argv = _command_argv(pipeline, "train") + ["--out", str(out), "--batch-k-max", k_max]
            assert cli.main(argv) == 0
            runs.append([Path(out, name).read_bytes()
                         for name in ("checkpoint.osm", "train_log.csv")])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("method,lam,code", [
        ("VE", "0", 1), ("JE", "0", 1), ("WE", "1", 1), ("WE", "0", 0),
    ])
    def test_histogram_on_one_class_batches(self, pipeline, tmp_path, capsys, method, lam, code):
        # a one-class batch holds no negative pair, so the histogram loss can
        # never be computed: rejected when the config is built, not after 100
        # draws; WE at lambda 0 never calls the metric loss and trains
        out = tmp_path / "o"
        assert cli.main(_command_argv(pipeline, "train") + [
            "--out", str(out), "--method", method, "--lambda-we", lam, "--dml", "histogram",
            "--batch-classes", "1", "--batch-min-total", "2",
        ]) == code
        if code:
            assert capsys.readouterr().err == (
                "openset train: the histogram loss needs negative pairs, which a batch "
                "of batch_classes 1 never holds\n")
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("method,lam,code", [
        ("VE", "0", 1), ("WE", "1", 1), ("JE", "0", 0), ("WE", "0", 0),
    ])
    def test_histogram_on_one_row_per_class(self, pipeline, tmp_path, capsys, method, lam, code):
        # one row per class holds no positive pair, so VE and WE at lambda > 0
        # are rejected when the config is built; JE pairs each label item
        # with its class's row, and WE at lambda 0 never calls the metric loss
        out = tmp_path / "o"
        assert cli.main(_command_argv(pipeline, "train") + [
            "--out", str(out), "--method", method, "--lambda-we", lam, "--dml", "histogram",
            "--batch-k-max", "1", "--batch-min-total", "2",
        ]) == code
        if code:
            assert capsys.readouterr().err == (
                "openset train: the histogram loss needs positive pairs, which a batch "
                "of batch_k_max 1 never holds\n")
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("flags,message", BAD_EVAL)
    def test_bad_eval_protocol_exits_one(self, pipeline, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        code = cli.main(_command_argv(pipeline, "eval") + ["--out", str(out)] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["dml", "split_file"])
    def test_eval_label_that_breaks_report_rows_exits_one(
        self, pipeline, tmp_path, capsys, label
    ):
        # every report row carries dml and split_name, so a comma or a line
        # break in either would shift or split the row
        argv = _command_argv(pipeline, "eval")
        if label == "split_file":  # split_name is the split's file name
            renamed = tmp_path / "a,b.csv"
            renamed.write_bytes(Path(pipeline["split_csv"]).read_bytes())
            argv[argv.index(pipeline["split_csv"])] = str(renamed)
            message = "split_name 'a,b' must not"
        else:  # dml is the one train recorded beside the checkpoint
            resolved = _copied_train_dir(pipeline, tmp_path) / "resolved.cfg"
            text = resolved.read_text().replace("dml=multisim", "dml=multi,sim")
            resolved.write_text(text)
            argv[argv.index("--checkpoint") + 1] = str(resolved.parent / "checkpoint.osm")
            message = f"{resolved}: dml 'multi,sim' must not"
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "comma or a line break" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("method", "V,E"), ("dml", "multi,sim"), ("split_name", "a\u2028b"),
    ])
    def test_report_label_that_breaks_rows_exits_one(self, pipeline, tmp_path, capsys, key, value):
        from openset.errors import ParseError
        bad = tmp_path / "eval"
        bad.mkdir()
        (bad / "eval.csv").write_bytes(Path(pipeline["eval_fsg"], "eval.csv").read_bytes())
        meta = cli.parse_config_file(os.path.join(pipeline["eval_fsg"], "resolved.cfg"))
        meta[key] = value
        (bad / "resolved.cfg").write_text(
            "".join(f"{k}={v}\n" for k, v in meta.items()), encoding="utf-8")
        with pytest.raises(ParseError, match="comma or a line break"):
            cli._read_eval_rows(str(bad))
        out = tmp_path / "r"
        assert cli.main(["report", str(bad), "--out", str(out)]) == 1
        assert "comma or a line break" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_lr_exits_two_naming_the_step(self, pipeline, tmp_path, capsys):
        # the first Adam step at lr0 1e300 blows the weights up, and the next
        # forward pass overflows: a runtime failure, reported without a warning
        code = cli.main(_command_argv(pipeline, "train")
                        + ["--out", str(tmp_path / "o"), "--lr0", "1e300"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("openset train: step 2: ") and "non-finite" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("method,flag,value", [
        ("VE", "--lr0", "1e308"), ("WE", "--lr0", "1e308"), ("JE", "--lr0", "1e308"),
        ("WE", "--lambda-we", "1e160"), ("WE", "--lambda-we", "1e308"),
    ])
    def test_overflow_exits_two_without_numpy_warnings(
        self, pipeline, tmp_path, capsys, method, flag, value
    ):
        # lr0 1e308 overflows the next encoder pass; lambda_we 1e160 or more
        # overflows Adam's second moment at step 1, which would otherwise
        # leave the initial weights: one error line, no warning, no --out
        out = tmp_path / "o"
        with np.errstate(over="warn", invalid="warn"), warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = cli.main(_command_argv(pipeline, "train")
                            + ["--out", str(out), "--method", method, flag, value])
        assert [str(w.message) for w in seen] == []
        assert code == 2
        assert capsys.readouterr().err == "openset train: " + (
            "step 2: l2_normalize_rows: non-finite row\n" if flag == "--lr0"
            else "step 1: adam_step: second moment overflows in frame_layer\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", HUGE_COUNTS, ids=["bins", "val_batches"])
    def test_huge_count_exits_one_before_out(self, pipeline, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        assert cli.main(_command_argv(pipeline, "train") + ["--out", str(out)] + flags) == 1
        assert capsys.readouterr().err == f"openset train: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e308", "1e-308"])
    @pytest.mark.parametrize("key", TRAIN_FLOAT_KEYS)
    @pytest.mark.parametrize("method,lam", [("VE", "0"), ("WE", "1"), ("JE", "0")])
    def test_extreme_float_ends_in_a_result_or_one_error_line(
        self, pipeline, tmp_path, capsys, method, lam, key, value
    ):
        # a 3-step run with one validation round at either end of float64's
        # range: exit 0 with its artifacts, or one error line and no --out
        out = tmp_path / "o"
        flags = {"method": method, "lambda_we": lam, "max_batches": "3", "val_every": "3",
                 "val_batches": "2", key: value}
        argv = _command_argv(pipeline, "train") + ["--out", str(out)]
        for name, text in flags.items():
            argv += [f"--{name.replace('_', '-')}", text]
        with np.errstate(over="warn", invalid="warn", divide="warn"), \
                warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert [str(w.message) for w in seen] == []
        assert code in (0, 1, 2)
        err = capsys.readouterr().err
        assert len(err.splitlines()) == (code != 0) and "Traceback" not in err
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("command", ["synth", "split", "train", "eval", "report"])
    def test_out_naming_a_file_exits_one_before_the_run(
        self, pipeline, tmp_path, capsys, monkeypatch, command
    ):
        work = {"synth": (data, "synth_generate"), "train": (trainer, "train"),
                "eval": (episodic, "evaluate")}
        if command in work:
            monkeypatch.setattr(*work[command], lambda *a: pytest.fail("the run started"))
        out = tmp_path / "o"
        out.write_bytes(b"a file\n")
        assert cli.main(_command_argv(pipeline, command) + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"openset {command}: --out {out} is not a directory\n"
        assert out.read_bytes() == b"a file\n"

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = cli.main([
            "train", "--data", str(tmp_path / "nowhere"),
            "--split", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    # a directory where a file is expected, or a file where a directory is
    @pytest.mark.parametrize("command,flag,kind", [
        ("eval", "--checkpoint", "dir"),
        ("train", "--split", "dir"),
        ("synth", "--config", "dir"),
        ("train", "--data", "file"),
    ])
    def test_wrong_kind_of_path_exits_one_before_out(
        self, pipeline, tmp_path, capsys, command, flag, kind
    ):
        path = tmp_path / "given"
        if kind == "dir":
            path.mkdir()
            message = f"[Errno 21] Is a directory: '{path}'"
        else:
            path.write_text("x\n")
            message = f"[Errno 20] Not a directory: '{path / 'class_table.csv'}'"
        argv = _command_argv(pipeline, command)
        if flag in argv:
            argv[argv.index(flag) + 1] = str(path)
        else:
            argv += [flag, str(path)]
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"openset {command}: {message}\n"
        assert not out.exists()

    def test_unfillable_batch_exits_one_before_out(self, tmp_path, capsys):
        data_dir, split_dir = str(tmp_path / "d"), str(tmp_path / "s")
        assert cli.main([
            "synth", "--out", data_dir, "--n-verbs", "8", "--n-nouns", "8",
            "--class-density", "0.9", "--instances-lo", "2", "--instances-hi", "2",
            "--d-latent", "3", "--input-dim", "10", "--frames", "2",
            "--label-dim", "6",
        ]) == 0
        assert cli.main([
            "split", "--class-table", os.path.join(data_dir, "class_table.csv"),
            "--out", split_dir,
        ]) == 0
        # 12 classes of 2 instances cap a batch at 24 items, below the
        # 36-item floor, so no draw could ever pass: rejected before --out
        out = tmp_path / "o"
        code = cli.main([
            "train", "--data", data_dir,
            "--split", os.path.join(split_dir, "split_0.csv"),
            "--out", str(out), "--hidden-dim", "8", "--embed-dim", "6",
            "--max-batches", "5",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "openset train: train: the 12 largest training classes give at most 24 "
            "instances per batch, below batch_min_total 36\n"
        )
        assert not out.exists()

    def test_features_missing_classes_exit_one_before_out(self, pipeline, tmp_path, capsys):
        # two classes' rows dropped from the features, which the class table
        # still counts: train and eval reject the data before --out exists
        data_dir = tmp_path / "d"
        data_dir.mkdir()
        for name in ("class_table.csv", "labels.osl"):
            (data_dir / name).write_bytes(Path(pipeline["data"], name).read_bytes())
        ids, cids, feats = data.read_features(os.path.join(pipeline["data"], "features.osf"))
        first, second = sorted(set(cids.tolist()))[:2]
        keep = (cids != first) & (cids != second)
        features = str(data_dir / "features.osf")
        data.write_features(features, ids[keep], cids[keep], feats[keep])
        table = data.read_class_table(str(data_dir / "class_table.csv"))
        message = (f"{features}: class {first} has 0 instances, "
                   f"the class table says {table[first].instance_count}\n")
        out = tmp_path / "o"
        assert cli.main([
            "train", "--data", str(data_dir), "--split", pipeline["split_csv"],
            "--out", str(out), "--method", "JE",
        ] + TRAIN_FLAGS) == 1
        assert capsys.readouterr().err == "openset train: " + message
        assert not out.exists()
        assert cli.main([
            "eval", "--checkpoint", os.path.join(pipeline["ve"], "checkpoint.osm"),
            "--data", str(data_dir), "--split", pipeline["split_csv"], "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == "openset eval: " + message
        assert not out.exists()

    def test_synth_beyond_uint32_ids_exits_one(self, tmp_path, capsys):
        # 70 classes of up to 10^9 instances cannot get uint32 ids; the
        # config is rejected before anything is allocated or written
        out = tmp_path / "o"
        code = cli.main([
            "synth", "--out", str(out), "--instances-lo", "1", "--instances-hi", "1000000000",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "2^32" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_synth_beyond_float32_exits_one_before_out(self, tmp_path, capsys):
        # frame noise of 1e39 overflows the float32 features while they are
        # generated, so nothing of --out is made
        out = tmp_path / "o"
        assert cli.main(["synth", "--out", str(out), "--sigma-frame", "1e39"]) == 1
        err = capsys.readouterr().err
        assert err == "openset synth: instance 0 has features beyond the float32 range\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--sigma-instance", "--sigma-frame"])
    def test_synth_float64_overflow_is_the_same_typed_error(self, tmp_path, capsys, flag):
        # a scale near the float64 maximum overflows the float64 arithmetic
        # itself; the error line is all that reaches stderr
        out = tmp_path / "o"
        argv = ["synth", "--out", str(out), "--n-verbs", "3", "--n-nouns", "3", flag, "1e308"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "openset synth: instance 0 has features beyond the float32 range\n"
        assert captured.out == ""
        assert not out.exists()

    def test_synth_refuses_overwrite_before_generating(self, pipeline, capsys, monkeypatch):
        def not_called(cfg):
            raise AssertionError("synth_generate ran before the overwrite was refused")

        monkeypatch.setattr(data, "synth_generate", not_called)
        assert cli.main(["synth", "--out", pipeline["data"]] + SYNTH_FLAGS) == 1
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_synth_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        def no_memory(cfg):
            raise MemoryError("Unable to allocate 130. TiB")

        monkeypatch.setattr(data, "synth_generate", no_memory)
        out = tmp_path / "o"
        assert cli.main(["synth", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "openset synth: Unable to allocate 130. TiB\n"
        assert not (out / "features.osf").exists()

    def test_invalid_utf8_class_table_exits_one(self, pipeline, tmp_path, capsys):
        blob = Path(pipeline["data"], "class_table.csv").read_bytes()
        table = tmp_path / "class_table.csv"
        table.write_bytes(blob.replace(b"verb00", b"verb\xff0", 1))
        code = cli.main(["split", "--class-table", str(table), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "UTF-8" in capsys.readouterr().err

    def test_invalid_utf8_eval_file_exits_one(self, pipeline, tmp_path, capsys):
        from openset.errors import ParseError
        bad = tmp_path / "eval"
        bad.mkdir()
        for name in ("resolved.cfg", "eval.csv"):
            blob = Path(pipeline["eval_fsg"], name).read_bytes()
            (bad / name).write_bytes(blob + (b"\xfe\n" if name == "eval.csv" else b""))
        with pytest.raises(ParseError, match="UTF-8"):
            cli._read_eval_rows(str(bad))
        assert cli.main(["report", str(bad), "--out", str(tmp_path / "r")]) == 1
        assert "UTF-8" in capsys.readouterr().err

    COUNTS = "counts must be non-negative integers"
    BOUNDS = "need 1 <= queries and correct <= queries"
    # damage -> (appended row, the error after its path:line)
    BAD_ROWS = {
        "short_row": ("FSG,All,5", "expected 10 fields, got 3"),
        "nan_accuracy": ("FSG,All,5,1,20,10,200,100,nan,0",
                         "accuracy 'nan' is not correct / queries"),
        "text_counts": ("FSG,All,5,1,20,10,abc,xyz,0.5,0", COUNTS),
        "negative_count": ("FSG,All,5,1,-20,10,200,100,0.5,0", COUNTS),
        "padded_count": ("FSG,All, 5,1,20,10,200,100,0.5,0", COUNTS),
        "signed_count": ("FSG,All,5,+1,20,10,200,100,0.5,0", COUNTS),
        "float_count": ("FSG,All,5,1,20,10.0,200,100,0.5,0", COUNTS),
        "zero_queries": ("FSG,All,5,1,20,10,0,0,0.0,0", BOUNDS),
        "correct_over_queries": ("FSG,All,5,1,20,10,200,201,1.005,0", BOUNDS),
        "rounded_accuracy": ("FSG,All,5,1,20,10,3,1,0.3333,0",
                             "accuracy '0.3333' is not correct / queries"),
        "padded_accuracy": ("FSG,All,5,1,20,10,200,100,0.50,0",
                            "accuracy '0.50' is not correct / queries"),
    }

    @pytest.mark.parametrize("damage", ["header", *BAD_ROWS])
    def test_bad_eval_file_names_its_line(self, pipeline, tmp_path, capsys, damage):
        from openset.errors import ParseError
        bad = tmp_path / "eval"
        bad.mkdir()
        (bad / "resolved.cfg").write_bytes(Path(pipeline["eval_fsg"], "resolved.cfg").read_bytes())
        lines = Path(pipeline["eval_fsg"], "eval.csv").read_text().splitlines()
        if damage == "header":
            lines[0] = lines[0].replace("queries", "query")
            where = "eval.csv:1: expected header"
        else:
            row, why = self.BAD_ROWS[damage]
            lines.append(row)
            where = f"eval.csv:{len(lines)}: {why}"
        (bad / "eval.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(where)):
            cli._read_eval_rows(str(bad))
        assert cli.main(["report", str(bad), "--out", str(tmp_path / "r")]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_zero_norm_embedding_exits_two(self, pipeline, tmp_path, capsys):
        # a zeroed output layer maps every clip to the zero vector, which
        # cannot be normalized: a runtime degeneracy, not an invalid input
        net = model.load_checkpoint(os.path.join(pipeline["ve"], "checkpoint.osm"))
        net.out_layer.weights[:] = 0.0
        net.out_layer.bias[:] = 0.0
        ckpt = str(tmp_path / "zero.osm")
        model.save_checkpoint(ckpt, net)
        code = cli.main([
            "eval", "--checkpoint", ckpt, "--data", pipeline["data"],
            "--split", pipeline["split_csv"], "--out", str(tmp_path / "o"),
            "--episodes", "2", "--m", "5",
        ])
        assert code == 2
        assert "zero-norm" in capsys.readouterr().err

    def test_zero_norm_validation_embedding_exits_two(self, pipeline, tmp_path, capsys,
                                                      monkeypatch):
        # the round embeds every validation row before any batch is drawn, so
        # an encoder that maps them all to zero fails the round as a runtime
        # degeneracy, as it failed every batch of a round that embedded per batch
        real = trainer._validation_loss

        def zeroed(net, *args):
            net = net.copy()
            net.out_layer.weights[:] = 0.0
            net.out_layer.bias[:] = 0.0
            return real(net, *args)

        monkeypatch.setattr(trainer, "_validation_loss", zeroed)
        code = cli.main(_command_argv(pipeline, "train") + ["--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "openset train: l2_normalize_rows: zero-norm row\n"

    @staticmethod
    def _overflowing_beta_run(tmp_path):
        """(argv, out) of a train run whose beta overflows the multi-similarity
        exponent into a NaN validation loss at step 5."""
        ds, split = shared_content_validation_data()
        root = tmp_path / "data"
        root.mkdir()
        data.write_class_table(str(root / "class_table.csv"), ds.classes)
        data.write_features(str(root / "features.osf"), ds.instance_ids, ds.class_ids, ds.features)
        data.write_labels(str(root / "labels.osl"), ds.label_embeddings)
        splits.write_split(str(tmp_path / "split.csv"), split)
        out = tmp_path / "o"
        argv = ["train", "--data", str(root), "--split", str(tmp_path / "split.csv"),
                "--out", str(out), "--hidden-dim", "8", "--embed-dim", "6",
                "--beta", "1e308", "--base=-0.8"]
        argv += [f"--{k.replace('_', '-')}={v}" for k, v in NAN_VALIDATION_RUN.items()]
        return argv, out

    def test_non_finite_validation_loss_exits_two(self, tmp_path, capsys):
        argv, out = self._overflowing_beta_run(tmp_path)
        # numpy's overflow and invalid warnings are on the way to the NaN
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "openset train: step 5: non-finite validation loss nan\n")
        assert not (out / "checkpoint.osm").exists()
        assert not (out / "train_log.csv").exists()

    def test_overflowing_beta_exits_two_without_numpy_warnings(self, tmp_path, capsys):
        # the loss keeps its overflow to itself: numpy's default error state,
        # every warning recorded, and the NaN still ends in one error line
        argv, out = self._overflowing_beta_run(tmp_path)
        with np.errstate(over="warn", invalid="warn"), warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        assert [str(w.message) for w in seen] == []
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (out / "checkpoint.osm").exists()

    def test_non_finite_checkpoint_exits_one(self, pipeline, tmp_path, capsys):
        # a checkpoint holding a NaN is a malformed file, not a runtime failure
        net = model.load_checkpoint(os.path.join(pipeline["ve"], "checkpoint.osm"))
        net.frame_layer.bias[0] = float("nan")
        ckpt = str(tmp_path / "nan.osm")
        model.save_checkpoint(ckpt, net)
        code = cli.main([
            "eval", "--checkpoint", ckpt, "--data", pipeline["data"],
            "--split", pipeline["split_csv"], "--out", str(tmp_path / "o"),
            "--episodes", "2", "--m", "5",
        ])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    # the pipeline's split holds 33 training and 12 validation classes, and
    # its 8 x 8 table 8 eligible verbs
    @pytest.mark.parametrize("command,flags,message", [
        ("train", ["--batch-classes", "40"], "train: need 40 training classes, have 33"),
        ("train", ["--batch-classes", "13"], "train: need 13 validation classes, have 12"),
        ("split", ["--p-verbs", "20"], "split: need 20 eligible verbs, only 8 available"),
        ("split", ["--seeds", "0,1", "--p-nouns", "9"],
         "split: need 9 eligible nouns, only 8 available"),
    ])
    def test_split_too_small_exits_one_before_out(
        self, pipeline, tmp_path, capsys, command, flags, message
    ):
        out = tmp_path / "o"
        assert cli.main(_command_argv(pipeline, command) + ["--out", str(out)] + flags) == 1
        assert capsys.readouterr().err == f"openset {command}: {message}\n"
        assert not out.exists()

    # the pipeline's data has input dim 10 and label dim 6
    @pytest.mark.parametrize("method,task,input_dim,label_dim,message", [
        ("WE", "CM-FSG", 10, 32, "the model's label_dim is 32, the dataset's is 6"),
        ("JE", "CM-FSG", 10, 32, "the model's label_dim is 32, the dataset's is 6"),
        ("VE", "FSG", 12, 6, "the model's input_dim is 12, the dataset's is 10"),
        ("JE", "CM-FSG", 12, 6, "the model's input_dim is 12, the dataset's is 10"),
    ])
    def test_checkpoint_dims_must_match_data_before_out(
        self, pipeline, tmp_path, capsys, method, task, input_dim, label_dim, message
    ):
        cfg = model.ModelConfig(method, input_dim=input_dim, hidden_dim=8,
                                embed_dim=label_dim if method == "WE" else 6, label_dim=label_dim)
        ckpt = str(tmp_path / "m.osm")
        model.save_checkpoint(ckpt, model.init_model(cfg, seed=0))
        argv = _command_argv(pipeline, "eval")
        argv[argv.index("--checkpoint") + 1] = ckpt
        out = tmp_path / "o"
        assert cli.main(argv + ["--task", task, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"openset eval: eval: {message}\n"
        assert not out.exists()

    def test_fsg_ignores_the_label_dim(self, pipeline, tmp_path):
        # FSG supports are videos, so a WE checkpoint trained on other labels still runs
        cfg = model.ModelConfig("WE", input_dim=10, hidden_dim=8, embed_dim=32, label_dim=32)
        ckpt = str(tmp_path / "m.osm")
        model.save_checkpoint(ckpt, model.init_model(cfg, seed=0))
        argv = _command_argv(pipeline, "eval")
        argv[argv.index("--checkpoint") + 1] = ckpt
        assert cli.main(argv + ["--task", "FSG", "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "eval.csv").exists()

    # a header whose dims make no valid model names its file, as every other
    # bad checkpoint does; offsets 20 and 24 hold the embed and label dims
    @pytest.mark.parametrize("method,offset,value,message", [
        ("VE", 24, 0, "model dims must be positive"),
        ("WE", 20, 5, "WE embeds directly into the label space: "
                      "embed_dim 5 must equal label_dim 6"),
    ])
    def test_checkpoint_header_dims_name_the_file(
        self, pipeline, tmp_path, capsys, method, offset, value, message
    ):
        cfg = model.ModelConfig(method, input_dim=10, hidden_dim=8, embed_dim=6, label_dim=6)
        ckpt = tmp_path / "m.osm"
        model.save_checkpoint(str(ckpt), model.init_model(cfg, seed=0))
        blob = bytearray(ckpt.read_bytes())
        blob[offset:offset + 4] = value.to_bytes(4, "little")
        ckpt.write_bytes(bytes(blob))
        argv = _command_argv(pipeline, "eval")
        argv[argv.index("--checkpoint") + 1] = str(ckpt)
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"openset eval: {ckpt}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_we_embed_dim_given_must_equal_label_dim(self, pipeline, tmp_path, capsys, source):
        argv = _command_argv(pipeline, "train") + ["--method", "WE"]
        if source == "flag":
            argv += ["--embed-dim", "16"]
        else:
            argv.remove("--embed-dim")
            argv.remove("6")
            cfg_file = tmp_path / "train.cfg"
            cfg_file.write_text("embed_dim=16\n", encoding="utf-8")
            argv += ["--config", str(cfg_file)]
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "openset train: WE embeds directly into the label space: "
            "embed_dim 16 must equal label_dim 6\n")
        assert not out.exists()

    def test_we_embed_dim_not_given_takes_label_dim(self, pipeline, tmp_path):
        out = tmp_path / "o"
        assert cli.main([
            "train", "--data", pipeline["data"], "--split", pipeline["split_csv"],
            "--out", str(out), "--method", "WE", "--max-batches", "0",
        ]) == 0
        assert cli.parse_config_file(str(out / "resolved.cfg"))["embed_dim"] == "6"
        assert model.load_checkpoint(str(out / "checkpoint.osm")).config.embed_dim == 6

    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
    def test_report_eval_dir_given_twice_exits_one(self, pipeline, tmp_path, capsys, spelling):
        again = {
            "same": pipeline["eval_fsg"],
            "dot": os.path.join(pipeline["eval_fsg"], "."),
            "symlink": str(tmp_path / "link"),
        }[spelling]
        if spelling == "symlink":
            os.symlink(pipeline["eval_fsg"], again)
        out = tmp_path / "r"
        code = cli.main(["report", pipeline["eval_fsg"], pipeline["eval_cm"], again,
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"openset report: report: eval directory {again!r} given twice\n")
        assert not out.exists()
