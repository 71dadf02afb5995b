"""Command-line entry point: generate / build / train / eval / cv workflows.

Every command writes its outputs under a run directory along with a
manifest (command, config snapshot, seeds, input hashes, artifact list),
written last so its presence marks a completed run. Reruns from the same
configuration produce byte-identical metrics files.

Each ``cmd_*`` function takes the parsed arguments and its run directory and
returns what the manifest records: ``(config, input_hashes, artifacts)``, the
hashes taken from the bytes the command read. `build` and the corpus loading
of `train`, `eval` and `cv` convert subject files in a `pool.ordered_map`.

An error ends in one line on stderr and an exit code: 2 for a bad flag or a
--config file that cannot be read, has an unknown key, or a value of the
wrong type or outside its flag's choices; 1 for any other bad input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial
from pathlib import Path

from .centerline import CenterlineError, clipped, parse_subject, prepare_subject, serialize_subject
from .graph import build_segment_graph, segment_graph_to_json
from .models import VARIANTS, ModelConfig, load_model, save_model
from .pool import WorkerDied, ordered_map
from .synth import GenParams, generate_corpus
from .training import (
    TrainConfig,
    TrainingError,
    predict,
    render_comparison_table,
    run_cv,
    train,
    weighted_f1,
)

EXIT_VALIDATION = 1
EXIT_USAGE = 2

#: Subject loads (`pool.LOADS_PER_WORKER`) that one `build` file counts for. A
#: build job also writes graph JSON: on a 2-CPU VM it took 3.0 ms for a
#: default-preset file and 5.6 ms for one at 0.5 mm spacing, against 1.7 ms to
#: load a default-preset file, and two workers first paid off on a fresh
#: `coroseg build` of 13-16 files at 0.5 mm. At 5, 13 files start a pool.
BUILD_FILE_LOADS = 5

#: Longest file name, in bytes, that common file systems accept (NAME_MAX).
NAME_BYTES = 255


class UsageError(Exception):
    """A bad --config file: exit 2, like a bad flag."""


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _execute(args) -> int:
    """Run one command in its run directory, then write the manifest."""
    started = time.time()
    name = args.run_name or f"run-{time.strftime('%Y%m%d-%H%M%S')}-s{args.seed}"
    run, n = Path(args.out) / name, 1
    while not args.run_name and run.exists():  # a default name never reuses a directory
        n += 1
        run = run.with_name(f"{name}-{n}")
    run.mkdir(parents=True, exist_ok=bool(args.run_name))
    config, input_hashes, artifacts = args.func(args, run)
    manifest = {
        "command": args.command,
        "config": config,
        "seed": config.get("seed"),
        "input_hashes": input_hashes,
        "artifacts": sorted(str(p.relative_to(run)) for p in artifacts),
        "duration_s": time.time() - started,
    }
    (run / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return 0


def _settings(args, *keys) -> dict:
    return {key: getattr(args, key) for key in ("seed", *keys)}


def _subject_graph(path: Path, to_json: bool = False):
    """One subject file, read once, as (sha256 of its bytes, subject_id, its
    SegmentGraph or that graph's JSON text, error). An error is returned, not
    raised, so a pool worker hands back every file it was given; subject_id is
    None when the file did not parse."""
    digest = sid = None
    try:
        raw = path.read_bytes()
        digest = _sha256(raw)
        rec = parse_subject(raw)
        sid = rec.subject_id
        sg = build_segment_graph(prepare_subject(rec))
        return digest, sid, segment_graph_to_json(sg) if to_json else sg, None
    except Exception as exc:  # raised again by _in_order, in file order
        return digest, sid, None, exc


def _in_order(files, outcomes):
    """(file, sha256, subject_id, product) per `_subject_graph` outcome, in file
    order. A file fails on its own first error: it does not parse, its
    subject_id was read before, or its graph cannot be built."""
    seen = set()
    for f, (digest, sid, product, error) in zip(files, outcomes):
        if sid is None:
            raise error
        if sid in seen:
            raise CenterlineError(f"{f}: duplicate subject_id {clipped(sid)}")
        seen.add(sid)
        if error is not None:
            raise error
        yield f, digest, sid, product


def _load_corpus(corpus_dir: str):
    """Every subject file under corpus_dir as (subject_id, SegmentGraph), in
    file order, and each file's sha256; built in a `pool.ordered_map`."""
    subj_dir = Path(corpus_dir) / "subjects"
    if not subj_dir.is_dir():
        subj_dir = Path(corpus_dir)
    files = sorted(subj_dir.glob("*.json"))
    files = [f for f in files if f.name not in ("manifest.json", "corpus_manifest.json")]
    if not files:
        raise CenterlineError(f"no subject files under {corpus_dir}")
    dataset, hashes = [], {}
    with ordered_map(_subject_graph, files, len(files)) as outcomes:
        for f, digest, sid, sg in _in_order(files, outcomes):
            dataset.append((sid, sg))
            hashes[str(f)] = digest
    return dataset, hashes


def cmd_generate(args, run: Path):
    if args.preset == "low-noise":
        params = GenParams.low_noise(n_subjects=args.subjects, seed=args.seed)
    else:
        params = GenParams(n_subjects=args.subjects, seed=args.seed)
    records, census = generate_corpus(params)
    subj_dir = run / "subjects"
    subj_dir.mkdir(exist_ok=True)
    artifacts = []
    for rec in records:
        p = subj_dir / f"{rec.subject_id}.json"
        p.write_text(serialize_subject(rec))
        artifacts.append(p)
    census_path = run / "corpus_manifest.json"
    census_path.write_text(json.dumps(census, indent=1, sort_keys=True))
    artifacts.append(census_path)
    print(f"wrote {len(records)} subjects to {subj_dir}")
    print(f"avg branches {census['avg_branches']:.2f}, avg segments {census['avg_segments']:.2f}")
    return _settings(args, "subjects", "preset"), {}, artifacts


def cmd_build(args, run: Path):
    """Files are converted in a `pool.ordered_map` and written here in input
    order, so the outputs do not depend on the worker count."""
    files = [Path(f) for f in args.subjects]
    hashes, artifacts = {}, []
    with ordered_map(partial(_subject_graph, to_json=True), files,
                     BUILD_FILE_LOADS * len(files)) as outcomes:
        for f, digest, sid, text in _in_order(files, outcomes):
            name = f"{sid}.graph.json"
            if (sid in ("", ".", "..") or any(c in sid for c in "/\\\0")
                    or len(name.encode(errors="surrogatepass")) > NAME_BYTES):
                raise CenterlineError(f"{f}: subject_id {clipped(sid)} cannot name a file")
            hashes[str(f)] = digest
            artifacts.append(run / name)
            artifacts[-1].write_text(text)
    print(f"wrote {len(artifacts)} segment graphs to {run}")
    return {"seed": None}, hashes, artifacts


def _train_config(args) -> TrainConfig:
    """Only cv has --folds; train keeps the default, which it never reads."""
    return TrainConfig(epochs=args.epochs, batch=args.batch, lr=args.lr,
                       folds=getattr(args, "folds", TrainConfig.folds), seed=args.seed)


def cmd_train(args, run: Path):
    dataset, hashes = _load_corpus(args.corpus)
    model_cfg = ModelConfig(variant=args.model, num_classes=args.classes, seed=args.seed)
    model, trace = train(model_cfg, _train_config(args), dataset)
    ckpt = run / f"{args.model}_{args.classes}.checkpoint.json"
    save_model(model, ckpt)
    trace_path = run / f"{args.model}_{args.classes}.loss_trace.json"
    trace_path.write_text(json.dumps(trace))
    print(f"checkpoint: {ckpt}")
    return (_settings(args, "model", "classes", "epochs", "batch", "lr"),
            hashes, [ckpt, trace_path])


def cmd_eval(args, run: Path):
    dataset, hashes = _load_corpus(args.corpus)
    raw = Path(args.checkpoint).read_bytes()
    model = load_model(raw)
    preds, labels = predict(model, dataset)
    if not len(labels):
        raise TrainingError("no labeled nodes to evaluate")
    metrics = {
        "model": model.config.variant,
        "classes": model.config.num_classes,
        "weighted_f1": weighted_f1(preds, labels, model.config.num_classes),
        "n_nodes": int(len(labels)),
    }
    out = run / "metrics.json"
    out.write_text(json.dumps(metrics, indent=1, sort_keys=True))
    print(json.dumps(metrics, indent=1, sort_keys=True))
    hashes[str(Path(args.checkpoint))] = _sha256(raw)
    return _settings(args, "checkpoint"), hashes, [out]


def _write_csv(path: Path, classes, matrix):
    lines = ["," + ",".join(classes)]
    for name, row in zip(classes, matrix):
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def cmd_cv(args, run: Path):
    dataset, hashes = _load_corpus(args.corpus)
    modes = [11, 13] if args.classes == "both" else [args.classes]
    train_cfg = _train_config(args)
    variants = VARIANTS if args.model == "all" else [args.model]
    rows = []
    reports = {}
    artifacts = []
    for variant in variants:
        row = {"model": variant, "f1_11": None, "f1_13": None}
        for mode in modes:
            model_cfg = ModelConfig(variant=variant, num_classes=mode, seed=args.seed)
            report = reports[f"{variant}_{mode}"] = run_cv(model_cfg, train_cfg, dataset)
            row[f"f1_{mode}"] = report["weighted_f1_mean"]
            csv_path = run / f"confusion_{variant}_{mode}.csv"
            _write_csv(csv_path, report["classes"], report["confusion_normalized"])
            artifacts.append(csv_path)
        rows.append(row)
    table = render_comparison_table(rows)
    report_json = run / "report.json"
    report_json.write_text(
        json.dumps({"comparison": rows, "details": reports}, indent=1, sort_keys=True)
    )
    report_txt = run / "report.txt"
    report_txt.write_text(table + "\n")
    artifacts += [report_json, report_txt]
    print(table)
    return (_settings(args, "model", "classes", "epochs", "batch", "lr", "folds"),
            hashes, artifacts)


DEFAULTS = {
    "seed": TrainConfig.seed, "epochs": TrainConfig.epochs, "batch": TrainConfig.batch,
    "lr": TrainConfig.lr, "folds": TrainConfig.folds, "subjects": GenParams.n_subjects,
    "classes": ModelConfig.num_classes, "out": "runs", "preset": "default", "model": "sage",
}


def _read_config(path: str) -> dict:
    """A --config file: a JSON object whose values have their DEFAULTS type."""
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"--config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"--config {path}: must be a JSON object")
    for key, value in cfg.items():
        if key not in DEFAULTS:
            raise UsageError(f"--config {path}: unknown key {clipped(key)}")
        kind = type(DEFAULTS[key])
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise UsageError(f"--config {path}: {key} must be {kind.__name__}, "
                             f"not {clipped(value)}")
    return cfg


def _resolve(args):
    """Precedence: explicit flags > config file > built-in defaults. A config
    value must be one of its flag's choices, as the flag's own value must."""
    file_cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    for key, choices in args.choices.items():
        value = file_cfg.get(key)
        if key in file_cfg and value not in choices:
            allowed = ", ".join(str(c) for c in choices if type(c) is type(value))
            raise UsageError(f"--config {args.config}: {key} must be one of {allowed}, "
                             f"not {clipped(value)}")
    for key, default in DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, file_cfg.get(key, default))
    return args


def _class_mode(text: str):
    """`cv --classes`: 11 or 13 as an int, like a config file's, or "both"."""
    return text if text == "both" else int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coroseg",
        description="Coronary segment labeling: synthetic data, graphs, GNN training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *choice_flags, model_flags=False):
        """The flags every command has; `choice_flags` are the command's own
        flags with choices, which its --config values must also keep to."""
        p.set_defaults(choices={flag.dest: flag.choices for flag in choice_flags})
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="base output directory (default: runs)")
        p.add_argument("--run-name", help="fixed run directory name (default: timestamped)")
        p.add_argument("--config", help="JSON config file; flags override it")
        if model_flags:
            p.add_argument("--epochs", type=int)
            p.add_argument("--batch", type=int)
            p.add_argument("--lr", type=float)

    g = sub.add_parser("generate", help="emit a synthetic labeled corpus")
    g.add_argument("--subjects", type=int)
    preset = g.add_argument("--preset", choices=["default", "low-noise"])
    common(g, preset)
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("build", help="convert subject files to segment graphs")
    b.add_argument("subjects", nargs="+", help="subject JSON files")
    common(b)
    b.set_defaults(func=cmd_build)

    t = sub.add_parser("train", help="train one model on a corpus")
    t.add_argument("--corpus", required=True)
    model = t.add_argument("--model", choices=VARIANTS)
    classes = t.add_argument("--classes", type=int, choices=[11, 13])
    common(t, model, classes, model_flags=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--corpus", required=True)
    common(e)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("cv", help="cross-validated model comparison report")
    c.add_argument("--corpus", required=True)
    model = c.add_argument("--model", choices=[*VARIANTS, "all"])
    classes = c.add_argument("--classes", type=_class_mode, choices=[11, 13, "both"])
    c.add_argument("--folds", type=int)
    common(c, model, classes, model_flags=True)
    c.set_defaults(func=cmd_cv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve(args)
        return _execute(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingError, WorkerDied, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
