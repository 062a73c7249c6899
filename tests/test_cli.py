"""End-to-end tests for the command-line pipeline.

Every command runs in-process through cli.main, so exit codes and
artifacts are checked without spawning interpreters.
"""

import dataclasses
import os
from pathlib import Path

import pytest

from openset import cli, data, episodic, losses, model, splits, trainer

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
        code = cli.main([
            "eval", "--checkpoint", os.path.join(pipeline["ve"], "checkpoint.osm"),
            "--data", pipeline["data"], "--split", pipeline["split_csv"],
            "--out", str(tmp_path / "bad"), "--task", "CM-FSG", "--episodes", "2",
        ])
        assert code == 1
        assert "VE" in capsys.readouterr().err


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
        want = _defaults(episodic.EvalConfig)
        want.update(dml="-", split_name="-")
        self.check(cli.EVAL_SCHEMA, want)

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
    }[command]


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
    (["--task", "ZSG"], "unknown task"),
    (["--task", "CM-FSG", "--k", "2"], "k must be 1"),
]


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

    @pytest.mark.parametrize("flags,message", BAD_EVAL)
    def test_bad_eval_protocol_exits_one(self, pipeline, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        code = cli.main(_command_argv(pipeline, "eval") + ["--out", str(out)] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["dml", "split_name", "split_file"])
    def test_eval_label_that_breaks_report_rows_exits_one(
        self, pipeline, tmp_path, capsys, label
    ):
        # every report row carries dml and split_name, so a comma or a line
        # break in either would shift or split the row
        argv = _command_argv(pipeline, "eval")
        if label == "split_file":  # split_name defaults to the split's file name
            renamed = tmp_path / "a,b.csv"
            renamed.write_bytes(Path(pipeline["split_csv"]).read_bytes())
            argv[argv.index(pipeline["split_csv"])] = str(renamed)
        else:
            value = {"dml": "multi,sim", "split_name": "a\nb"}[label]
            argv += [f"--{label.replace('_', '-')}", value]
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "comma or a line break" in err and "Traceback" not in err
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

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = cli.main([
            "train", "--data", str(tmp_path / "nowhere"),
            "--split", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_exhausted_sampling_exits_two(self, tmp_path, capsys):
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
        # 36-item floor, so sampling retries exhaust at runtime
        code = cli.main([
            "train", "--data", data_dir,
            "--split", os.path.join(split_dir, "split_0.csv"),
            "--out", str(tmp_path / "o"), "--hidden-dim", "8", "--embed-dim", "6",
            "--max-batches", "5",
        ])
        assert code == 2
        assert "draws below" in capsys.readouterr().err

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
