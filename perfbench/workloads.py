"""The four workloads: how each sets up, what one op does, and the checks on
every op's outputs. Why each workload exists is in README.md.

Every op enters the program through its public entry points: `cli.main` for
synth/split/train/eval and `data.load_dataset` for the read-back. All inputs
derive from the workload seed, so one seed always gives the same inputs, and
every op of a run repeats the same command, which lets each op's CSVs be
compared byte for byte with the first op of its kind.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from openset import cli, data

# Acceptance reference data: 10x10 grid, density 0.7, 30 instances per class.
REFERENCE_SYNTH = [
    "--n-verbs", "10", "--n-nouns", "10", "--class-density", "0.7",
    "--instances-lo", "30", "--instances-hi", "30",
]
REFERENCE_SPLIT = ["--p-verbs", "4", "--p-nouns", "4"]
# Step budget of every training op; patience equals it, so no op stops early.
TRAIN_STEPS = 100
# Steps of the checkpoints eval_episodes trains in its set-up.
CHECKPOINT_STEPS = 300
EVAL_N, EVAL_K, EVAL_M, EVAL_EPISODES = 5, 1, 20, 500
# data_roundtrip: 40x40 grid at density 0.7 and 30 per class = 33,600 instances.
ROUNDTRIP_GRID = 40
ROUNDTRIP_SPLIT_SEEDS = 4


class CheckFailed(Exception):
    """An op's outputs are not what its inputs imply."""


def run_cli(argv: list[str]) -> None:
    """One closed-loop request: a CLI command, its chatter captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"openset {argv[0]} exited {rc}: {err.getvalue().strip()}")


def csv_digest(root: str) -> str:
    """sha256 over every *.csv below root, keyed by relative path."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _read_csv(path: str, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path}: header {lines[:1]} != {header!r}")
    return [line.split(",") for line in lines[1:]]


@dataclass
class Op:
    """One request. `run` is timed; `check` validates the outputs afterwards
    and returns the op's values, `items` among them."""

    kind: str
    label: str
    run: Callable[[str], dict]
    check: Callable[[str, dict], dict]


@dataclass
class Workload:
    """`setup(dir, seed)` returns the context `cycle` turns into the ops of
    one cycle. `summary(values of every op, throughput)` names the
    workload's own figures: {name: (unit, value)}."""

    setup: Callable[[str, int], dict]
    cycle: Callable[[dict], list[Op]]
    summary: Callable[[list[dict], float], dict]


# --- shared setup: reference data and split ---


def _reference_data(root: str, seed: int) -> dict:
    data_dir = os.path.join(root, "data")
    run_cli(["synth", "--out", data_dir, *REFERENCE_SYNTH, "--seed", str(seed)])
    run_cli([
        "split", "--class-table", os.path.join(data_dir, "class_table.csv"),
        "--out", os.path.join(root, "splits"), *REFERENCE_SPLIT, "--seeds", str(seed),
    ])
    return {
        "seed": seed,
        "data": data_dir,
        "split": os.path.join(root, "splits", f"split_{seed}.csv"),
    }


# --- training ---


def _train_argv(ctx: dict, method: str, lambda_we: str, steps: int) -> list[str]:
    return [
        "train", "--data", ctx["data"], "--split", ctx["split"],
        "--method", method, "--dml", "multisim", "--lambda-we", lambda_we,
        "--max-batches", str(steps), "--patience", str(steps),
        "--seed", str(ctx["seed"]),
    ]


def check_train(out: str, info: dict, steps: int = TRAIN_STEPS) -> dict:
    """The configured step count ran, every loss is finite, a best exists."""
    rows = _read_csv(os.path.join(out, "train_log.csv"), "kind,step,value")
    losses = [float(r[2]) for r in rows if r[0] == "loss"]
    vals = [float(r[2]) for r in rows if r[0] == "val"]
    stop = [r for r in rows if r[0] == "stop"]
    best = [float(r[2]) for r in rows if r[0] == "best"]
    resamples = [int(r[2]) for r in rows if r[0] == "resamples"]
    if len(losses) != steps or stop != [["stop", str(steps), "max"]]:
        raise CheckFailed(f"{out}: {len(losses)} steps, stop {stop}; want {steps}, max")
    if not all(math.isfinite(v) for v in losses + vals + best):
        raise CheckFailed(f"{out}: non-finite loss")
    if len(best) != 1 or len(resamples) != 1:
        raise CheckFailed(f"{out}: missing best or resamples row")
    if os.path.getsize(os.path.join(out, "checkpoint.osm")) == 0:
        raise CheckFailed(f"{out}: empty checkpoint")
    return {"items": steps, "best_val_loss": best[0], "resamples": resamples[0]}


def _cli_op(argv: list[str]) -> Callable[[str], dict]:
    def run(out: str) -> dict:
        run_cli(argv + ["--out", out])
        return {}
    return run


def _train_cycle(method: str, lambda_we: str) -> Callable[[dict], list[Op]]:
    def cycle(ctx: dict) -> list[Op]:
        argv = _train_argv(ctx, method, lambda_we, TRAIN_STEPS)
        return [Op("train", f"{method}/{lambda_we}", _cli_op(argv), check_train)]
    return cycle


def _train_summary(values: list[dict], throughput: float) -> dict:
    return {
        "train_steps_per_s": ("steps/s", throughput),
        "best_val_loss": ("loss", float(np.median([v["best_val_loss"] for v in values]))),
    }


# --- evaluation ---


def _setup_eval(root: str, seed: int) -> dict:
    ctx = _reference_data(root, seed)
    for method in ("VE", "JE"):
        out = os.path.join(root, f"train_{method}")
        run_cli(_train_argv(ctx, method, "0", CHECKPOINT_STEPS) + ["--out", out])
        check_train(out, {}, CHECKPOINT_STEPS)
        ctx[method] = os.path.join(out, "checkpoint.osm")
    sizes = {
        int(r[0]): int(r[5])
        for r in _read_csv(os.path.join(ctx["data"], "class_table.csv"),
                           "class_id,verb_id,noun_id,verb_text,noun_text,n_instances")
    }
    test = {int(r[0]): r[2] for r in _read_csv(ctx["split"], "class_id,subset,category")
            if r[1] == "test"}
    ctx["sizes"] = sizes
    ctx["subsets"] = {
        "All": sorted(test),
        "HoV": sorted(c for c, cat in test.items() if cat == "HoV"),
        "HoN": sorted(c for c, cat in test.items() if cat == "HoN"),
    }
    ctx["test_instances"] = sum(sizes[c] for c in test)
    return ctx


def _check_eval(ctx: dict, task: str) -> Callable[[str, dict], dict]:
    """Queries match what n, m and the class sizes imply; correct <= queries;
    exactly the subsets with n eligible classes are reported."""

    def check(out: str, info: dict) -> dict:
        rows = _read_csv(os.path.join(out, "eval.csv"),
                         "task,subset,n,k,m,episodes,queries,correct,accuracy,seed")
        got = {r[1]: r for r in rows}
        queries_total = 0
        all_accuracy = None
        for name, classes in ctx["subsets"].items():
            per_class = [
                min(EVAL_M, ctx["sizes"][c] - (EVAL_K if task == "FSG" else 0))
                for c in classes
            ]
            eligible = [q for q in per_class if q >= 1]
            if len(eligible) < EVAL_N:
                if name in got:
                    raise CheckFailed(f"{out}: subset {name} reported with {len(eligible)} classes")
                continue
            if name not in got:
                raise CheckFailed(f"{out}: subset {name} missing")
            r = got[name]
            queries, correct = int(r[6]), int(r[7])
            lo = EVAL_EPISODES * EVAL_N * min(eligible)
            hi = EVAL_EPISODES * EVAL_N * max(eligible)
            if r[0] != task or int(r[5]) != EVAL_EPISODES or not lo <= queries <= hi:
                raise CheckFailed(f"{out}: {name} row {r}: queries not in [{lo}, {hi}]")
            if not 0 <= correct <= queries or abs(float(r[8]) - correct / queries) > 1e-12:
                raise CheckFailed(f"{out}: {name} correct {correct} of {queries}, accuracy {r[8]}")
            queries_total += queries
            if name == "All":
                all_accuracy = correct / queries
        if set(got) - set(ctx["subsets"]):
            raise CheckFailed(f"{out}: unexpected subsets {sorted(got)}")
        return {"items": queries_total, "task": task, "accuracy": all_accuracy}

    return check


def _eval_cycle(ctx: dict) -> list[Op]:
    ops = []
    for task, method in (("FSG", "VE"), ("CM-FSG", "JE")):
        argv = [
            "eval", "--checkpoint", ctx[method], "--data", ctx["data"], "--split", ctx["split"],
            "--task", task, "--n", str(EVAL_N), "--k", str(EVAL_K), "--m", str(EVAL_M),
            "--episodes", str(EVAL_EPISODES), "--seed", str(ctx["seed"]),
        ]
        ops.append(Op("eval", f"{task}/{method}", _cli_op(argv), _check_eval(ctx, task)))
    return ops


def _eval_summary(values: list[dict], throughput: float) -> dict:
    cm = [v["accuracy"] for v in values if v["task"] == "CM-FSG"]
    return {
        "eval_queries_per_s": ("queries/s", throughput),
        "cm_fsg_accuracy": ("fraction", float(np.median(cm))),
    }


# --- data round trip ---


def _roundtrip_config(seed: int) -> data.SynthConfig:
    return data.SynthConfig(
        n_verbs=ROUNDTRIP_GRID, n_nouns=ROUNDTRIP_GRID, class_density=0.7,
        instances_per_class=(30, 30), seed=seed,
    )


def _features_digest(instances) -> str:
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(np.ascontiguousarray(inst.features, dtype="<f4").tobytes())
    return digest.hexdigest()


def _setup_roundtrip(root: str, seed: int) -> dict:
    """What the written files must read back as: ids, class ids, float32
    features (as a digest) and the label embeddings, from the generator."""
    expected = data.synth_generate(_roundtrip_config(seed))
    return {
        "seed": seed,
        "digest": _features_digest(expected.instances),
        "ids": np.array([i.instance_id for i in expected.instances]),
        "class_ids": np.array([i.class_id for i in expected.instances]),
        "labels": {c: np.asarray(v) for c, v in expected.label_embeddings.items()},
    }


def _roundtrip_cycle(ctx: dict) -> list[Op]:
    seed = ctx["seed"]
    cfg = _roundtrip_config(seed)
    seeds = ",".join(str(seed + i) for i in range(ROUNDTRIP_SPLIT_SEEDS))

    def run(out: str) -> dict:
        data_dir = os.path.join(out, "data")
        t0 = time.perf_counter()
        run_cli([
            "synth", "--out", data_dir, "--n-verbs", str(cfg.n_verbs),
            "--n-nouns", str(cfg.n_nouns), "--class-density", str(cfg.class_density),
            "--instances-lo", "30", "--instances-hi", "30", "--seed", str(seed),
        ])
        t1 = time.perf_counter()
        dataset = data.load_dataset(
            os.path.join(data_dir, "class_table.csv"),
            os.path.join(data_dir, "features.osf"),
            os.path.join(data_dir, "labels.osl"),
        )
        t2 = time.perf_counter()
        run_cli([
            "split", "--class-table", os.path.join(data_dir, "class_table.csv"),
            "--out", os.path.join(out, "splits"), *REFERENCE_SPLIT, "--seeds", seeds,
        ])
        return {"dataset": dataset, "synth_s": t1 - t0, "load_s": t2 - t1}

    def check(out: str, info: dict) -> dict:
        dataset = info.pop("dataset")
        ids = np.array([i.instance_id for i in dataset.instances])
        class_ids = np.array([i.class_id for i in dataset.instances])
        if not (np.array_equal(ids, ctx["ids"]) and np.array_equal(class_ids, ctx["class_ids"])):
            raise CheckFailed(f"{out}: read-back ids or class ids differ from the written ones")
        if _features_digest(dataset.instances) != ctx["digest"]:
            raise CheckFailed(f"{out}: read-back features differ beyond float32 rounding")
        labels = dataset.label_embeddings
        if sorted(labels) != sorted(ctx["labels"]):
            raise CheckFailed(f"{out}: read-back label classes differ")
        for cid, vec in labels.items():
            if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-9:
                raise CheckFailed(f"{out}: label {cid} is not unit norm")
            if float(np.max(np.abs(vec - ctx["labels"][cid]))) > 1e-6:
                raise CheckFailed(f"{out}: label {cid} differs beyond float32 rounding")
        for s in seeds.split(","):
            if not os.path.isfile(os.path.join(out, "splits", f"split_{s}.csv")):
                raise CheckFailed(f"{out}: split_{s}.csv missing")
        return {"items": len(ids), **info}

    return [Op("roundtrip", "roundtrip", run, check)]


def _roundtrip_summary(values: list[dict], throughput: float) -> dict:
    def rate(phase):
        return values[0]["items"] / float(np.median([v[phase] * v["speed"] for v in values]))

    return {
        "synth_instances_per_s": ("instances/s", rate("synth_s")),
        "load_instances_per_s": ("instances/s", rate("load_s")),
    }


WORKLOADS = {
    "train_joint": Workload(_reference_data, _train_cycle("JE", "0"), _train_summary),
    "train_direct": Workload(_reference_data, _train_cycle("WE", "0"), _train_summary),
    "eval_episodes": Workload(_setup_eval, _eval_cycle, _eval_summary),
    "data_roundtrip": Workload(_setup_roundtrip, _roundtrip_cycle, _roundtrip_summary),
}
