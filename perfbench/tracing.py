"""Span tracing from outside the program: wrap layer functions, record spans.

A Tracer replaces chosen module attributes (or class methods) with wrappers
that record one span per call: name, start, end, parent span and op id, plus
an integer attribute (rows, batch size, bytes, instances) where a layer has
one. Spans are kept in flat arrays in memory and written out once, when the
benchmark ends. Nothing inside the program is edited; a function is wrapped
where it is looked up, so names a module imports directly (`trainer.adam_step`,
`trainer.we_loss`, `trainer.je_loss`) are wrapped in that module's namespace.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from array import array

import numpy as np

from openset import cli, data, episodic, losses, model, splits, trainer


def _size_of_path_arg(args, kwargs, result):
    return os.path.getsize(args[0])


def _len_of_arg(index):
    return lambda args, kwargs, result: len(args[index])


def _batch_objective_name(args, kwargs):
    with_grads = kwargs["with_grads"] if "with_grads" in kwargs else args[4]
    return "trainer.batch_objective.train" if with_grads else "trainer.batch_objective.val"


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.main.{argv[0]}"


# (owner, attribute, span name or name function, attribute function).
# The span name is where the function is defined; the owner is where callers
# look it up.
WRAPPED = [
    (cli, "main", _cli_name, None),
    (data, "synth_generate", "data.synth_generate", None),
    (data, "write_class_table", "data.write_class_table", _size_of_path_arg),
    (data, "write_features", "data.write_features", _size_of_path_arg),
    (data, "write_labels", "data.write_labels", _size_of_path_arg),
    (data, "load_dataset", "data.load_dataset",
     lambda args, kwargs, result: len(result.instances)),
    (data, "read_class_table", "data.read_class_table", None),
    (data, "read_features", "data.read_features", _size_of_path_arg),
    (data, "read_labels", "data.read_labels", None),
    (splits, "generate_split", "splits.generate_split", None),
    (splits, "write_split", "splits.write_split", None),
    (splits, "read_split", "splits.read_split", None),
    (splits, "overlap_stats", "splits.overlap_stats", None),
    (model, "init_model", "model.init_model", None),
    (model, "save_checkpoint", "model.save_checkpoint", None),
    (model, "load_checkpoint", "model.load_checkpoint", None),
    (model.EmbeddingModel, "embed_video_batch", "model.embed_video_batch",
     _len_of_arg(1)),
    (model.EmbeddingModel, "backward_video_batch", "model.backward_video_batch", None),
    (model.EmbeddingModel, "embed_label_batch", "model.embed_label_batch", None),
    (model.EmbeddingModel, "backward_label_batch", "model.backward_label_batch", None),
    (model.EmbeddingModel, "copy", "model.copy", None),
    (episodic, "sample_training_batch", "episodic.sample_training_batch", None),
    (episodic, "sample_episode", "episodic.sample_episode", None),
    (episodic, "knn_classify", "episodic.knn_classify", None),
    (episodic, "evaluate", "episodic.evaluate", None),
    (episodic, "write_eval_report", "episodic.write_eval_report", None),
    (trainer, "train", "trainer.train", None),
    (trainer, "batch_objective", _batch_objective_name, None),
    (trainer, "write_train_log", "trainer.write_train_log", None),
    (trainer, "adam_step", "numcore.adam_step", None),
    (trainer, "we_loss", "losses.we_loss", None),
    (trainer, "je_loss", "losses.je_loss", None),
    (losses, "multisim_loss", "losses.multisim_loss", _len_of_arg(0)),
    (losses, "alignment_mse", "losses.alignment_mse", None),
]

# Per-layer metrics, in the order BENCHMARK.json lists them. Counts and times
# are per traced op (the mean over the run's traced ops).
PER_LAYER = [
    ("losses.multisim_loss.calls", "count"),
    ("losses.multisim_loss.s", "s"),
    ("losses.multisim_loss.ms_per_call_n96", "ms"),
    ("losses.multisim_loss.ms_per_call_n108", "ms"),
    ("losses.we_loss.s", "s"),
    ("losses.alignment_mse.s", "s"),
    ("losses.je_loss.self_s", "s"),
    ("model.embed_video_batch.calls", "count"),
    ("model.embed_video_batch.rows", "count"),
    ("model.embed_video_batch.s", "s"),
    ("model.embed_video_batch.rows_per_instance", "ratio"),
    ("model.backward_video_batch.s", "s"),
    ("model.embed_label_batch.s", "s"),
    ("model.backward_label_batch.s", "s"),
    ("model.copy.s", "s"),
    ("model.save_checkpoint.s", "s"),
    ("model.load_checkpoint.s", "s"),
    ("episodic.knn_classify.calls", "count"),
    ("episodic.knn_classify.s", "s"),
    ("episodic.knn_classify.ms_per_episode", "ms"),
    ("episodic.sample_episode.calls", "count"),
    ("episodic.sample_episode.s", "s"),
    ("episodic.evaluate.self_s", "s"),
    ("episodic.sample_training_batch.calls", "count"),
    ("episodic.sample_training_batch.s", "s"),
    ("trainer.train.self_s", "s"),
    ("trainer.batch_objective.train.calls", "count"),
    ("trainer.batch_objective.train.self_s", "s"),
    ("trainer.batch_objective.val.calls", "count"),
    ("trainer.batch_objective.val.self_s", "s"),
    ("trainer.val_share", "ratio"),
    ("trainer.resample_ratio", "ratio"),
    ("numcore.adam_step.calls", "count"),
    ("numcore.adam_step.s", "s"),
    ("data.synth_generate.s", "s"),
    ("data.write.s", "s"),
    ("data.write.bytes", "bytes"),
    ("data.load_dataset.s", "s"),
    ("data.load_dataset.instances", "count"),
    ("data.read_features.s", "s"),
    ("data.read_features.bytes", "bytes"),
    ("splits.generate_split.s", "s"),
    ("splits.read_split.s", "s"),
    ("splits.overlap_stats.s", "s"),
    ("cli.main.synth.calls", "count"),
    ("cli.main.synth.self_s", "s"),
    ("cli.main.split.calls", "count"),
    ("cli.main.split.self_s", "s"),
    ("cli.main.train.calls", "count"),
    ("cli.main.train.self_s", "s"),
    ("cli.main.eval.calls", "count"),
    ("cli.main.eval.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]

_WRITERS = ("data.write_class_table", "data.write_features", "data.write_labels")


class Tracer:
    """Records spans while installed; install() before a traced op and
    remove() after it, so untraced ops run the program's own functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("q")
        self._stack = [-1]
        self._current_op = -1
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # per traced op: (kind, raw seconds, speed factor, scaled seconds of
        # its untraced twin); spans of the traced set-up carry op id -1
        self.ops: list[tuple[str, float, float, float]] = []
        self.setup_factor = 1.0
        self.test_instances = 0
        self.train_steps = 0
        self.train_resamples = 0

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, attr_fn):
        fixed_id = self._id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(fixed_id if fixed_id is not None else self._id(name(args, kwargs)))
            self.op_id.append(self._current_op)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.attr.append(0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if attr_fn is not None:
                self.attr[idx] = attr_fn(args, kwargs, result)
            return result

        return traced

    def install(self, op_index: int) -> None:
        self._current_op = op_index
        for owner, attr, name, attr_fn in WRAPPED:
            fn = getattr(owner, attr, None)
            if fn is None:
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, attr_fn))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        self._current_op = -1

    def write(self, path: str) -> None:
        """Write every span as one .npz of parallel arrays plus the names."""
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            attr=np.frombuffer(self.attr, dtype=np.int64),
            names=np.array(json.dumps(self.names)),
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, per traced op, from the recorded spans. Span
        times are scaled by their op's speed factor, like the end-to-end
        times; the multisim per-call buckets also use the traced set-up."""
        n_ops = len(self.ops)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        op_id = np.frombuffer(self.op_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        attr = np.frombuffer(self.attr, dtype=np.int64)
        op_factor = np.array([factor for _, _, factor, _ in self.ops])
        factor = np.where(op_id >= 0, op_factor[np.maximum(op_id, 0)], self.setup_factor)
        raw = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        dur = raw * factor
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        in_op = op_id >= 0

        def sel(name, ops_only=True):
            hit = name_id == self._name_ids.get(name, -1)
            return hit & in_op if ops_only else hit

        def total(name, values):
            return float(values[sel(name)].sum())

        def calls(name):
            return int(sel(name).sum())

        out: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            base, _, qty = metric.rpartition(".")
            if qty == "calls":
                out[metric] = calls(base) / n_ops
            elif qty == "s":
                out[metric] = total(base, dur) / n_ops
            elif qty == "self_s":
                out[metric] = total(base, self_time) / n_ops

        out["data.write.s"] = sum(total(w, dur) for w in _WRITERS) / n_ops
        out["data.write.bytes"] = sum(total(w, attr) for w in _WRITERS) / n_ops
        out["data.load_dataset.instances"] = total("data.load_dataset", attr) / n_ops
        out["data.read_features.bytes"] = total("data.read_features", attr) / n_ops
        out["model.embed_video_batch.rows"] = total("model.embed_video_batch", attr) / n_ops

        for n in (96, 108):
            mask = sel("losses.multisim_loss", ops_only=False) & (attr == n)
            out[f"losses.multisim_loss.ms_per_call_n{n}"] = (
                float(np.median(dur[mask])) * 1e3 if mask.any() else 0.0
            )

        episodes = calls("episodic.sample_episode")
        out["episodic.knn_classify.ms_per_episode"] = (
            total("episodic.knn_classify", dur) / episodes * 1e3 if episodes else 0.0
        )

        eval_ops = [i for i, (kind, _, _, _) in enumerate(self.ops) if kind == "eval"]
        if eval_ops and self.test_instances:
            in_eval = sel("model.embed_video_batch") & np.isin(op_id, eval_ops)
            out["model.embed_video_batch.rows_per_instance"] = float(
                attr[in_eval].sum() / (len(eval_ops) * self.test_instances)
            )
        else:
            out["model.embed_video_batch.rows_per_instance"] = 0.0

        obj_train = total("trainer.batch_objective.train", dur)
        obj_val = total("trainer.batch_objective.val", dur)
        out["trainer.val_share"] = obj_val / (obj_train + obj_val) if obj_train + obj_val else 0.0
        out["trainer.resample_ratio"] = (
            self.train_resamples / self.train_steps if self.train_steps else 0.0
        )

        # Coverage: share of op wall time explained by spans below the CLI.
        below_cli = in_op.copy()
        for cmd in ("synth", "split", "train", "eval"):
            below_cli &= ~sel(f"cli.main.{cmd}")
        wall = sum(seconds * f for _, seconds, f, _ in self.ops)
        out["trace.coverage"] = float(self_time[below_cli].sum() / wall)
        out["trace.overhead"] = statistics.median(
            seconds * f / untraced for _, seconds, f, untraced in self.ops
        ) - 1.0
        return out
