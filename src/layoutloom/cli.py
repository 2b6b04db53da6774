"""Command-line surface: ingest, index, retrieve, generate, eval, render,
prompts, gateway.

Exit codes: 0 success, 1 domain error or unreadable file, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataset as ds
from . import gateway as gw
from . import metrics as mx
from . import pipeline as pl
from . import prompts as pr
from . import render as rd
from . import retrieval as rt
from .errors import LayoutLoomError, SchemaError
from .model import normalize


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layoutloom",
        description="Training-free layout generation with transport-based retrieval "
                    "and staged refinement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize a record stream")
    p.add_argument("--manifest", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lenient", action="store_true",
                   help="skip out-of-vocabulary records instead of failing")
    p.add_argument("--check-counts", action="store_true")

    p = sub.add_parser("index", help="build a retrieval index")
    index_sub = p.add_subparsers(dest="index_command", required=True)
    b = index_sub.add_parser("build")
    b.add_argument("--manifest", required=True)
    b.add_argument("--records", required=True)
    b.add_argument("--split", default="train")
    b.add_argument("--out", required=True)

    p = sub.add_parser("retrieve", help="top-k scan against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--query", required=True, help="layout record as a JSON file")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--exclude-self", action="store_true")

    p = sub.add_parser("generate", help="run the full generation pipeline")
    p.add_argument("--config", default=None, help="run configuration file")
    p.add_argument("--seed", type=int, default=None, help="override the run seed")
    p.add_argument("--mode", choices=("live", "record", "replay"), default=None,
                   help="override the backend mode")
    p.add_argument("--no-rag", action="store_true", help="seeded random exemplars")
    p.add_argument("--no-cot", action="store_true", help="skip staged refinement")
    p.add_argument("--stages", type=int, default=None, help="number of refinement stages")

    p = sub.add_parser("eval", help="compute metrics for generated layouts")
    p.add_argument("--generated", required=True)
    p.add_argument("--dataset", default=None, help="reference records (JSONL)")
    p.add_argument("--stats", default=None, help="area statistics JSON")
    p.add_argument("--metrics", default=None, help="comma list, e.g. align,overlap,miou")
    p.add_argument("--task", default="constraint_explicit", choices=ds.TASK_KINDS)
    p.add_argument("--out", default=None, help="write a TSV here as well")

    p = sub.add_parser("render", help="render a layout record to SVG")
    p.add_argument("--layout", required=True, help="layout record as a JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--background", default=None, help="PGM raster to embed")

    p = sub.add_parser("prompts", help="inspect prompt templates")
    prompt_sub = p.add_subparsers(dest="prompts_command", required=True)
    r = prompt_sub.add_parser("render")
    r.add_argument("--family", required=True, choices=ds.TASK_KINDS)
    r.add_argument("--stage", required=True, choices=pr.STAGE_NAMES)

    p = sub.add_parser("gateway", help="backend utilities")
    gw_sub = p.add_subparsers(dest="gateway_command", required=True)
    ping = gw_sub.add_parser("ping")
    ping.add_argument("--endpoint", default=None)
    ping.add_argument("--model", default=None)
    check = gw_sub.add_parser("replay-check")
    check.add_argument("--transcripts", required=True)

    return parser


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SchemaError(f"{path} is not a JSON file: {exc}") from exc


def _load_dataset(manifest_path: str, records_path: str, strict: bool = True,
                  check_counts: bool = False) -> ds.CanonicalDataset:
    manifest = ds.load_manifest(manifest_path)
    return ds.ingest(ds.read_jsonl(records_path), manifest, strict=strict,
                     check_counts=check_counts)


def _cmd_ingest(args) -> int:
    dataset = _load_dataset(args.manifest, args.records, strict=not args.lenient,
                            check_counts=args.check_counts)
    count = ds.write_jsonl(ds.export_records(dataset), args.out)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(dataset.split_counts().items()))
    print(f"ingested {count} layouts ({counts}) -> {args.out}")
    return 0


def _cmd_index(args) -> int:
    dataset = _load_dataset(args.manifest, args.records)
    index = rt.build_index(dataset, args.split)
    rt.save_index(index, args.out)
    print(f"indexed {len(index)} layouts from split {args.split!r} -> {args.out}")
    return 0


def _cmd_retrieve(args) -> int:
    index = rt.load_index(args.index)
    query = normalize(ds.record_to_layout(_read_json(args.query), index.vocabulary))
    for layout_id, similarity in rt.topk_retrieve(query, index, args.k,
                                                  exclude_self=args.exclude_self):
        print(f"{layout_id}\t{similarity:.6f}")
    return 0


def _cmd_generate(args) -> int:
    if not args.config:
        raise LayoutLoomError("generate requires --config")
    config = pl._load_run_config(args.config)
    # A backend that is not an object fails run_task's check instead.
    if args.mode and isinstance(config.setdefault("backend", {}), dict):
        config["backend"]["mode"] = args.mode
    if args.seed is not None:
        config["seed"] = args.seed
    if args.no_rag:
        config["use_rag"] = False
    if args.no_cot:
        config["use_cot"] = False
    if args.stages is not None:
        config["stages"] = args.stages
    run_dir = pl.run_task(config)
    print(f"run complete -> {run_dir}")
    return 0


def _cmd_eval(args) -> int:
    metric_names = args.metrics.split(",") if args.metrics else None
    generated = [ds.record_to_layout(r) for r in ds.read_jsonl(args.generated)
                 if "error" not in r]
    references = None
    saliency: dict[str, ds.SaliencyRaster] = {}
    gradient: dict[str, ds.SaliencyRaster] = {}
    if args.dataset:
        base = Path(args.dataset).parent
        references = {}
        for record in ds.read_jsonl(args.dataset):
            layout = ds.record_to_layout(record)
            if layout.elements:
                references[layout.id] = layout
            for key, target in (("saliency", saliency), ("gradient", gradient)):
                if record.get(key):
                    target[layout.id] = ds.load_raster(base / record[key])
    stats = ds.load_area_stats(args.stats) if args.stats else None
    exclude = ("underlay",) if args.task == "content_aware" else ()
    report = mx.population_report(
        generated, references=references, stats=stats,
        saliency=saliency or None, gradient=gradient or None,
        exclude_overlap_labels=exclude, metrics=metric_names,
    )
    columns = mx.CONTENT_AWARE_COLUMNS if args.task == "content_aware" \
        else mx.CONSTRAINT_COLUMNS
    if metric_names:
        columns = tuple(metric_names)
    rows = mx.report_rows(report, columns)
    width = max(len(name) for name, _ in rows)
    print(f"population: {report.population_size} layouts")
    for name, value in rows:
        try:
            pretty = f"{float(value):.3f}"
        except ValueError:
            pretty = value
        print(f"{name:<{width}}  {pretty}")
    if args.out:
        pl.write_metrics_tsv(report, columns, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_render(args) -> int:
    record = _read_json(args.layout)
    layout = ds.record_to_layout(record)
    background = ds.load_raster(args.background) if args.background else None
    style = rd.RenderStyle(show_background=background is not None)
    svg = rd.render_svg(layout, style, background)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _cmd_prompts(args) -> int:
    template = pr.default_catalog().get(args.family, args.stage)
    print(f"# system ({args.family}/{args.stage})")
    print(template.system_text)
    print()
    print(f"# user ({args.family}/{args.stage})")
    print(template.user_text)
    return 0


def _cmd_gateway(args) -> int:
    if args.gateway_command == "ping":
        overrides = {"mode": "live"}
        if args.endpoint:
            overrides["endpoint"] = args.endpoint
        if args.model:
            overrides["model"] = args.model
        config = gw.BackendConfig.from_env(**overrides)
        gw.Gateway(config).ping()
        print("ok")
        return 0
    problems = gw.replay_check(args.transcripts)
    if problems:
        for problem in problems:
            print(problem)
        raise LayoutLoomError(f"{len(problems)} bad transcripts in {args.transcripts}")
    print("all transcripts consistent")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "index": _cmd_index,
    "retrieve": _cmd_retrieve,
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "render": _cmd_render,
    "prompts": _cmd_prompts,
    "gateway": _cmd_gateway,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (LayoutLoomError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
