"""Smoke test of the benchmark's span tracer (perfbench/tracing.py): the
package functions it wraps must exist and keep the signatures it reads."""

import importlib.util
import os

import numpy as np

from openset import cli

from test_cli import SYNTH_FLAGS

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_traced_train_and_eval_record_their_spans(tmp_path):
    data_dir, split_dir = str(tmp_path / "data"), str(tmp_path / "splits")
    assert cli.main(["synth", "--out", data_dir] + SYNTH_FLAGS) == 0
    assert cli.main(["split", "--class-table", os.path.join(data_dir, "class_table.csv"),
                     "--out", split_dir, "--p-verbs", "2", "--p-nouns", "2", "--seeds", "0"]) == 0
    inputs = ["--data", data_dir, "--split", os.path.join(split_dir, "split_0.csv")]
    commands = [
        ["train"] + inputs + ["--out", str(tmp_path / method), "--method", method,
                              "--hidden-dim", "8", "--embed-dim", "6", "--max-batches", "20",
                              "--val-every", "10", "--val-batches", "4"]
        for method in ("VE", "WE", "JE")
    ] + [
        ["eval", "--checkpoint", str(tmp_path / method / "checkpoint.osm")] + inputs
        + ["--out", str(tmp_path / f"eval_{method}"), "--task", task, "--episodes", "40"]
        for method, task in (("VE", "FSG"), ("JE", "CM-FSG"))
    ]
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.remove()
    assert codes == [0] * len(commands)
    recorded = {tracer.names[i] for i in np.frombuffer(tracer.name_id, dtype=np.int32)}
    assert {"trainer.batch_objective.train", "episodic.sample_training_batch",
            "episodic.knn_classify"} <= recorded
    assert tracer.missing == ["openset.episodic.sample_episode"]
