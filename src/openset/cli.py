"""Command-line pipeline: synth, split, train, eval, report.

Configuration is a flat key=value file; every key is also exposed as a flag
(flags override the file, the file overrides defaults). Unknown keys are
rejected. Each command writes its fully resolved configuration into the
output directory as resolved.cfg, and refuses to overwrite artifacts it
would produce, so an output directory documents exactly one run.

Exit codes: 0 success, 1 invalid input or configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import data, episodic, model, splits, trainer
from .errors import VALIDATION_ERRORS, ConfigError, OpensetError, ParseError
from .losses import HistogramConfig, MultiSimConfig

_FEATURES_FILE = "features.osf"
_LABELS_FILE = "labels.osl"
_CLASS_TABLE_FILE = "class_table.csv"
_RESOLVED_FILE = "resolved.cfg"
_CHECKPOINT_FILE = "checkpoint.osm"
_TRAIN_LOG_FILE = "train_log.csv"
_EVAL_FILE = "eval.csv"
_REPORT_FILE = "report.csv"
_OVERLAP_FILE = "overlap_stats.csv"
_IMBALANCE_FILE = "imbalance.csv"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to 1 (invalid input)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# schema: key -> (converter, default). Converters run on the raw string from
# either the config file or the flag, so both paths share validation. Each
# schema is read off its command's config dataclasses, so each default is
# written once, on its dataclass.

_CONVERTERS = {"int": int, "float": float, "str": str}


def _fields_schema(cls, names=None) -> dict:
    """One entry per scalar field of a config dataclass (or per field in
    names): the converter is the field's annotation, the default its own."""
    return {
        f.name: (_CONVERTERS[f.type], f.default)
        for f in dataclasses.fields(cls)
        if f.type in _CONVERTERS and (names is None or f.name in names)
    }


def _fields_kwargs(cls, cfg: dict) -> dict:
    """The resolved values of those fields of cls that cfg carries."""
    return {f.name: cfg[f.name] for f in dataclasses.fields(cls) if f.name in cfg}


SYNTH_SCHEMA = {
    **_fields_schema(data.SynthConfig),
    "instances_lo": (int, data.SynthConfig.instances_per_class[0]),
    "instances_hi": (int, data.SynthConfig.instances_per_class[1]),
}

SPLIT_SCHEMA = {
    **_fields_schema(splits.SplitSpec),
    "seeds": (str, str(splits.SplitSpec.seed)),
}
del SPLIT_SCHEMA["seed"]

TRAIN_SCHEMA = {
    **_fields_schema(trainer.TrainConfig),
    **_fields_schema(HistogramConfig),
    **_fields_schema(MultiSimConfig),
    **_fields_schema(model.ModelConfig, ("hidden_dim", "embed_dim")),
}

EVAL_SCHEMA = _fields_schema(episodic.EvalConfig)


def parse_config_file(path: str) -> dict[str, str]:
    """key=value per line; blank lines and #-comments ignored."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(data.read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve_config(schema: dict, file_values: dict[str, str], flag_values: dict[str, str]) -> dict:
    """Defaults, then config file, then flags; unknown keys rejected."""
    for source, values in (("config file", file_values), ("flag", flag_values)):
        for key in values:
            if key not in schema:
                raise ConfigError(f"unknown {source} key {key!r}")
    resolved = {}
    for key, (conv, default) in schema.items():
        value = default
        for values in (file_values, flag_values):
            if key in values:
                try:
                    value = conv(values[key])
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key!r}: {values[key]!r}") from exc
        resolved[key] = value
    return resolved


def write_resolved(out_dir: str, resolved: dict) -> None:
    lines = []
    for key in sorted(resolved):
        value = resolved[key]
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key}={text}")
    data.write_lines(os.path.join(out_dir, _RESOLVED_FILE), lines)


def prepare_out(out_dir: str, filenames: list[str], create: bool = True) -> None:
    """Refuse an --out that is not a directory or holds a previous run's
    artifacts; then, with create, make the directory."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ConfigError(f"--out {out_dir} is not a directory")
    for name in filenames + [_RESOLVED_FILE]:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            raise ConfigError(f"refusing to overwrite {path}")
    if create:
        os.makedirs(out_dir, exist_ok=True)


def _add_schema_flags(parser: argparse.ArgumentParser, schema: dict) -> None:
    for key in schema:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="V")


def _flag_values(args: argparse.Namespace, schema: dict) -> dict[str, str]:
    flags = {key: getattr(args, f"cfg_{key}", None) for key in schema}
    return {key: value for key, value in flags.items() if value is not None}


def _resolve(args: argparse.Namespace, schema: dict) -> dict:
    file_values = parse_config_file(args.config) if args.config else {}
    return resolve_config(schema, file_values, _flag_values(args, schema))


# --- commands ---


def cmd_synth(args) -> None:
    cfg = _resolve(args, SYNTH_SCHEMA)
    synth_cfg = data.SynthConfig(
        **_fields_kwargs(data.SynthConfig, cfg),
        instances_per_class=(cfg["instances_lo"], cfg["instances_hi"]),
    )
    files = [_CLASS_TABLE_FILE, _FEATURES_FILE, _LABELS_FILE]
    prepare_out(args.out, files, create=False)  # a failed generation leaves no --out
    dataset = data.synth_generate(synth_cfg)
    prepare_out(args.out, files)
    data.write_class_table(os.path.join(args.out, _CLASS_TABLE_FILE), dataset.classes)
    features_path = os.path.join(args.out, _FEATURES_FILE)
    data.write_features(features_path, dataset.instance_ids, dataset.class_ids, dataset.features)
    data.write_labels(os.path.join(args.out, _LABELS_FILE), dataset.label_embeddings)
    write_resolved(args.out, cfg)
    print(
        f"synth: {len(dataset.classes)} classes, {len(dataset.instance_ids)} instances "
        f"-> {args.out}"
    )


def _parse_seed_list(raw: str) -> list[int]:
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad seeds list {raw!r}") from exc
    if not seeds:
        raise ConfigError("seeds list is empty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"duplicate seeds in {raw!r}")
    return seeds


def cmd_split(args) -> None:
    cfg = _resolve(args, SPLIT_SCHEMA)
    seeds = _parse_seed_list(cfg["seeds"])
    specs = [splits.SplitSpec(**_fields_kwargs(splits.SplitSpec, cfg), seed=s) for s in seeds]
    split_files = [f"split_{seed}.csv" for seed in seeds]
    table = data.read_class_table(args.class_table)
    # a split the table cannot serve fails before --out exists
    results = [splits.generate_split(table, spec) for spec in specs]
    prepare_out(args.out, split_files + [_OVERLAP_FILE, _IMBALANCE_FILE])
    imbalance_lines = ["seed,imbalance_ratio"]
    for seed, result, fname in zip(seeds, results, split_files):
        splits.write_split(os.path.join(args.out, fname), result)
        imbalance_lines.append(f"{seed},{splits.imbalance_ratio(result)!r}")
    stats = splits.overlap_stats(results, table)
    splits.write_overlap_stats(os.path.join(args.out, _OVERLAP_FILE), stats)
    data.write_lines(os.path.join(args.out, _IMBALANCE_FILE), imbalance_lines)
    write_resolved(args.out, cfg)
    for fname, result in zip(split_files, results):
        print(
            f"split: {fname} train={len(result.classes('train'))} "
            f"val={len(result.classes('val'))} test={len(result.classes('test'))}"
        )


def _load_data_dir(data_dir: str) -> data.Dataset:
    return data.load_dataset(
        os.path.join(data_dir, _CLASS_TABLE_FILE),
        os.path.join(data_dir, _FEATURES_FILE),
        os.path.join(data_dir, _LABELS_FILE),
    )


def cmd_train(args) -> None:
    file_values = parse_config_file(args.config) if args.config else {}
    flag_values = _flag_values(args, TRAIN_SCHEMA)
    cfg = resolve_config(TRAIN_SCHEMA, file_values, flag_values)
    files = [_CHECKPOINT_FILE, _TRAIN_LOG_FILE]
    prepare_out(args.out, files, create=False)  # a failed run leaves no --out
    dataset = _load_data_dir(args.data)
    split = splits.read_split(args.split, dataset.classes)
    # WE embeds into the label space: its dim is the data's unless one is given
    if cfg["method"] == model.METHOD_WE and "embed_dim" not in file_values | flag_values:
        cfg["embed_dim"] = dataset.label_dim
    model_cfg = model.ModelConfig(
        **_fields_kwargs(model.ModelConfig, cfg),
        input_dim=dataset.input_dim,
        label_dim=dataset.label_dim,
    )
    train_cfg = trainer.TrainConfig(
        **_fields_kwargs(trainer.TrainConfig, cfg),
        histogram=HistogramConfig(**_fields_kwargs(HistogramConfig, cfg)),
        multisim=MultiSimConfig(**_fields_kwargs(MultiSimConfig, cfg)),
    )
    net = model.init_model(model_cfg, seed=cfg["seed"])
    best, log = trainer.train(net, dataset, split, train_cfg)
    prepare_out(args.out, files)
    model.save_checkpoint(os.path.join(args.out, _CHECKPOINT_FILE), best)
    trainer.write_train_log(os.path.join(args.out, _TRAIN_LOG_FILE), log)
    write_resolved(args.out, cfg)
    best_txt = "-" if log.best_step is None else f"step {log.best_step}"
    print(
        f"train: {cfg['method']}/{cfg['dml']} {len(log.step_losses)} steps, "
        f"best {best_txt}, stop={log.stop_reason} -> {args.out}"
    )


def _check_report_label(key: str, value: str, error: type[OpensetError]) -> None:
    """A label copied into report rows must hold no comma and no line break
    (anything str.splitlines splits at), either of which would break a row."""
    if "," in value or "".join(value.splitlines()) != value:
        raise error(f"{key} {value!r} must not hold a comma or a line break")


def cmd_eval(args) -> None:
    cfg = _resolve(args, EVAL_SCHEMA)
    eval_cfg = episodic.EvalConfig(**cfg)
    # report labels come from the run: the split file's stem, and the metric
    # loss train recorded beside the checkpoint ('-' where it recorded none)
    split_name = os.path.splitext(os.path.basename(args.split))[0]
    _check_report_label("split_name", split_name, ConfigError)
    trained = os.path.join(os.path.dirname(args.checkpoint), _RESOLVED_FILE)
    dml = parse_config_file(trained).get("dml", "-") if os.path.isfile(trained) else "-"
    _check_report_label(f"{trained}: dml", dml, ParseError)
    prepare_out(args.out, [_EVAL_FILE], create=False)  # a failed run leaves no --out
    net = model.load_checkpoint(args.checkpoint)
    dataset = _load_data_dir(args.data)
    split = splits.read_split(args.split, dataset.classes)
    report = episodic.evaluate(net, dataset, split, eval_cfg)
    prepare_out(args.out, [_EVAL_FILE])
    episodic.write_eval_report(os.path.join(args.out, _EVAL_FILE), report)
    write_resolved(args.out, {**cfg, "method": net.method, "dml": dml, "split_name": split_name})
    for name, res in report.subsets.items():
        status = "skipped" if res.skipped else f"accuracy {res.correct}/{res.queries}"
        print(f"eval: {cfg['task']} {name}: {status}")


def _read_eval_rows(eval_dir: str) -> list[dict[str, str]]:
    resolved_path = os.path.join(eval_dir, _RESOLVED_FILE)
    eval_path = os.path.join(eval_dir, _EVAL_FILE)
    meta = parse_config_file(resolved_path)
    for needed in ("method", "dml", "split_name"):
        if needed not in meta:
            raise ParseError(f"{resolved_path}: missing key {needed!r}")
        _check_report_label(f"{resolved_path}: {needed}", meta[needed], ParseError)
    rows = []
    for _, parts in data.read_rows(eval_path, episodic.EVAL_HEADER, comments=True):
        row = dict(zip(episodic.EVAL_HEADER.split(","), parts))
        row.update(method=meta["method"], dml=meta["dml"], split=meta["split_name"])
        rows.append(row)
    return rows


_REPORT_COLUMNS = (
    "method",
    "dml",
    "task",
    "subset",
    "split",
    "n",
    "k",
    "m",
    "episodes",
    "queries",
    "correct",
    "accuracy",
)


def cmd_report(args) -> None:
    """Merge evaluation outputs into one long-form table. Accuracy cells are
    copied verbatim from the inputs, never recomputed."""
    rows, seen = [], set()
    for eval_dir in args.eval_dirs:
        # a directory given twice would count each of its rows twice
        real = os.path.realpath(eval_dir)
        if real in seen:
            raise ConfigError(f"report: eval directory {eval_dir!r} given twice")
        seen.add(real)
        rows.extend(_read_eval_rows(eval_dir))
    prepare_out(args.out, [_REPORT_FILE])
    rows.sort(key=lambda r: tuple(r[c] for c in ("method", "dml", "task", "subset", "split")))
    lines = [",".join(_REPORT_COLUMNS)]
    for row in rows:
        lines.append(",".join(row[c] for c in _REPORT_COLUMNS))
    data.write_lines(os.path.join(args.out, _REPORT_FILE), lines)
    write_resolved(args.out, {"inputs": ";".join(args.eval_dirs)})
    print(f"report: {len(rows)} rows -> {args.out}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process, on first use; parse_args leaves it unchanged."""
    parser = _Parser(prog="openset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", help="key=value config file")
    p_synth.add_argument("--out", required=True, help="output directory")
    _add_schema_flags(p_synth, SYNTH_SCHEMA)
    p_synth.set_defaults(func=cmd_synth)

    p_split = sub.add_parser("split", help="generate disjoint-class splits")
    p_split.add_argument("--class-table", required=True, help="class table CSV")
    p_split.add_argument("--config", help="key=value config file")
    p_split.add_argument("--out", required=True, help="output directory")
    _add_schema_flags(p_split, SPLIT_SCHEMA)
    p_split.set_defaults(func=cmd_split)

    p_train = sub.add_parser("train", help="train a model on one split")
    p_train.add_argument("--data", required=True, help="synth output directory")
    p_train.add_argument("--split", required=True, help="split CSV")
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--out", required=True, help="output directory")
    _add_schema_flags(p_train, TRAIN_SCHEMA)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="episodic evaluation of a checkpoint")
    p_eval.add_argument("--checkpoint", required=True, help="model checkpoint")
    p_eval.add_argument("--data", required=True, help="synth output directory")
    p_eval.add_argument("--split", required=True, help="split CSV")
    p_eval.add_argument("--config", help="key=value config file")
    p_eval.add_argument("--out", required=True, help="output directory")
    _add_schema_flags(p_eval, EVAL_SCHEMA)
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="merge eval outputs into one table")
    p_report.add_argument("eval_dirs", nargs="+", help="eval output directories")
    p_report.add_argument("--out", required=True, help="output directory")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (*VALIDATION_ERRORS, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"openset {args.command}: {exc}", file=sys.stderr)
        return 1
    except (OpensetError, OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"openset {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
