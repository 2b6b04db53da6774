"""CLI subcommands, exit codes, and output contracts."""

import json
import re

import numpy as np
import pytest

from layoutloom.cli import main
from layoutloom.dataset import (
    DatasetManifest,
    SaliencyRaster,
    save_manifest,
    save_raster,
    write_jsonl,
)
from layoutloom.pipeline import run_task

MANIFEST = DatasetManifest(name="mini", task_kind="content_aware",
                           vocabulary=("text", "logo", "underlay"))


def _records(count=6):
    out = []
    for i in range(count):
        out.append({
            "id": f"r{i:02d}",
            "split": "train",
            "canvas": {"w": 100, "h": 100},
            "elements": [
                {"label": "text", "bbox": [10, 10 + 4 * i, 40, 20]},
                {"label": "logo", "bbox": [60, 60, 20, 20 + i]},
            ],
        })
    return out


@pytest.fixture
def workspace(tmp_path):
    save_manifest(MANIFEST, tmp_path / "manifest.json")
    write_jsonl(_records(), tmp_path / "records.jsonl")
    return tmp_path


class TestIngestCommand:
    def test_ingest_roundtrip(self, workspace, capsys):
        code = main(["ingest", "--manifest", str(workspace / "manifest.json"),
                     "--records", str(workspace / "records.jsonl"),
                     "--out", str(workspace / "dataset.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested 6 layouts" in out

    def test_domain_error_exit_code(self, workspace, capsys):
        bad = [{"id": "x", "split": "train", "canvas": {"w": 100, "h": 100},
                "elements": [{"label": "banner", "bbox": [0, 0, 1, 1]}]}]
        write_jsonl(bad, workspace / "bad.jsonl")
        code = main(["ingest", "--manifest", str(workspace / "manifest.json"),
                     "--records", str(workspace / "bad.jsonl"),
                     "--out", str(workspace / "out.jsonl")])
        assert code == 1
        assert "VocabularyError" in capsys.readouterr().err

    @pytest.mark.parametrize("change, error", [
        ({"split_sizes": {"train": "x"}},
         "manifest split_sizes must be an object of non-negative integers, got {'train': 'x'}"),
        ({"vocabulary": 5}, "manifest vocabulary must be a non-empty list of strings, got 5"),
    ])
    def test_malformed_manifest_is_one_error_line(self, workspace, capsys, change, error):
        manifest = json.loads((workspace / "manifest.json").read_text()) | change
        (workspace / "bad.json").write_text(json.dumps(manifest))
        assert main(["ingest", "--manifest", str(workspace / "bad.json"),
                     "--records", str(workspace / "records.jsonl"),
                     "--out", str(workspace / "out.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: SchemaError: {error}\n"
        assert not (workspace / "out.jsonl").exists()


class TestIndexAndRetrieve:
    def test_build_and_query(self, workspace, capsys):
        assert main(["index", "build",
                     "--manifest", str(workspace / "manifest.json"),
                     "--records", str(workspace / "records.jsonl"),
                     "--split", "train",
                     "--out", str(workspace / "index.json")]) == 0
        query = _records(1)[0]
        (workspace / "query.json").write_text(json.dumps(query))
        capsys.readouterr()
        assert main(["retrieve", "--index", str(workspace / "index.json"),
                     "--query", str(workspace / "query.json"), "--k", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        sims = [float(line.split("\t")[1]) for line in lines]
        assert sims == sorted(sims, reverse=True)
        assert lines[0].startswith("r00\t1.000000")


    def test_build_over_a_split_of_empty_layouts_is_one_error_line(self, workspace, capsys):
        empty = [dict(record, elements=[]) for record in _records(2)]
        write_jsonl(empty, workspace / "empty.jsonl")
        capsys.readouterr()
        assert main(["index", "build", "--manifest", str(workspace / "manifest.json"),
                     "--records", str(workspace / "empty.jsonl"),
                     "--out", str(workspace / "index.json")]) == 1
        assert capsys.readouterr().err == \
            "error: EmptySplit: split 'train' has no layouts with elements to index\n"
        assert not (workspace / "index.json").exists()

    @pytest.mark.parametrize("content, error", [
        (None, "FileNotFoundError"),
        ('{"id": "r00"}\n{"id": "r01"}\n', "SchemaError"),
        (json.dumps({"entries": [], "version": "1", "vocabulary": ["text"],
                     "weights": {"w_geo": 0.5, "w_label": 0.5}}), "VersionMismatch"),
    ])
    def test_bad_index_file_exits_1(self, workspace, capsys, content, error):
        index = workspace / "index.json"
        if content is not None:
            index.write_text(content)
        (workspace / "query.json").write_text(json.dumps(_records(1)[0]))
        assert main(["retrieve", "--index", str(index),
                     "--query", str(workspace / "query.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ")
        assert err.count("\n") == 1


BROKEN_JSON = '{"id": "r00", "canvas": '


def _build_index(workspace):
    assert main(["index", "build", "--manifest", str(workspace / "manifest.json"),
                 "--records", str(workspace / "records.jsonl"),
                 "--out", str(workspace / "index.json")]) == 0


class TestMalformedJsonFiles:
    """A JSON file that does not parse, or a run config that is not an
    object, is a domain error: exit 1 with one line, not a traceback."""

    def _assert_one_line_error(self, capsys, argv, error):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ")
        assert err.count("\n") == 1

    def test_retrieve_with_a_broken_query(self, workspace, capsys):
        _build_index(workspace)
        (workspace / "query.json").write_text(BROKEN_JSON)
        self._assert_one_line_error(capsys, [
            "retrieve", "--index", str(workspace / "index.json"),
            "--query", str(workspace / "query.json")], "SchemaError")

    def test_render_with_a_broken_layout(self, workspace, capsys):
        (workspace / "layout.json").write_text(BROKEN_JSON)
        self._assert_one_line_error(capsys, [
            "render", "--layout", str(workspace / "layout.json"),
            "--out", str(workspace / "out.svg")], "SchemaError")
        assert not (workspace / "out.svg").exists()

    @pytest.mark.parametrize("content", [BROKEN_JSON, "[]", '["run"]', "3", "null"])
    @pytest.mark.parametrize("mode", [[], ["--mode", "replay"]])
    def test_generate_with_a_config_that_is_not_an_object(self, tmp_path, capsys,
                                                          content, mode):
        (tmp_path / "run.json").write_text(content)
        self._assert_one_line_error(
            capsys, ["generate", "--config", str(tmp_path / "run.json")] + mode, "ConfigError")


class TestEvalCommand:
    def test_identity_miou_prints_one(self, workspace, capsys):
        write_jsonl(_records(), workspace / "generated.jsonl")
        code = main(["eval", "--generated", str(workspace / "generated.jsonl"),
                     "--dataset", str(workspace / "records.jsonl"),
                     "--metrics", "miou,align,overlap"])
        assert code == 0
        out = capsys.readouterr().out
        miou_line = [l for l in out.splitlines() if l.startswith("miou")][0]
        assert "1.000" in miou_line

    def test_tsv_output(self, workspace, capsys):
        write_jsonl(_records(), workspace / "generated.jsonl")
        out_path = workspace / "metrics.tsv"
        assert main(["eval", "--generated", str(workspace / "generated.jsonl"),
                     "--metrics", "align,overlap,val",
                     "--out", str(out_path)]) == 0
        header, values = out_path.read_text().strip().splitlines()
        assert header.split("\t") == ["align", "overlap", "val"]
        assert len(values.split("\t")) == 3


    def test_only_generated_records_are_read(self, workspace, capsys):
        records = _records(2)
        for record in records:
            record["saliency"] = f"{record['id']}.pgm"
            record["gradient"] = f"{record['id']}.pgm"
        write_jsonl(records, workspace / "dataset.jsonl")
        save_raster(SaliencyRaster(4, 4, np.full((4, 4), 0.2)), workspace / "r00.pgm")
        # r01's raster file does not exist, and r01 was not generated.
        write_jsonl(records[:1], workspace / "generated.jsonl")
        assert main(["eval", "--generated", str(workspace / "generated.jsonl"),
                     "--dataset", str(workspace / "dataset.jsonl"),
                     "--task", "content_aware"]) == 0
        lines = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines()[1:])
        assert lines["occ"] == "0.200"
        assert lines["rea"] == "0.200"
        assert float(lines["uti"]) > 0.0

    def test_a_run_evaluates_to_its_own_metrics(self, fixture_env, tmp_path, capsys):
        root = fixture_env["root"]
        run_dir = run_task(fixture_env["run_config"](tmp_path / "run", "replay"))
        assert main(["eval", "--generated", str(run_dir / "generated.jsonl"),
                     "--dataset", str(root / "test.jsonl"), "--stats", str(root / "stats.json"),
                     "--task", "content_aware", "--out", str(tmp_path / "eval.tsv")]) == 0
        assert (tmp_path / "eval.tsv").read_bytes() == (run_dir / "metrics.tsv").read_bytes()

    def test_labels_without_stats_skip_r_e(self, workspace, capsys):
        write_jsonl(_records(), workspace / "generated.jsonl")
        (workspace / "stats.json").write_text('{"text": 0.08}\n', encoding="utf-8")
        assert main(["eval", "--generated", str(workspace / "generated.jsonl"),
                     "--stats", str(workspace / "stats.json"), "--task", "content_aware"]) == 0
        lines = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines()[1:])
        assert lines["r_e"] == "skipped(missing_label_stats)"

    def test_a_nan_area_is_one_error_line(self, workspace, capsys):
        write_jsonl(_records(), workspace / "generated.jsonl")
        stats = workspace / "stats.json"
        stats.write_text('{"logo": 0.02, "text": NaN}\n', encoding="utf-8")
        assert main(["eval", "--generated", str(workspace / "generated.jsonl"),
                     "--stats", str(stats), "--task", "content_aware"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: SchemaError: {stats}: label 'text' needs a finite, "
                                "non-negative area, got nan\n")


class TestRenderCommand:
    def test_writes_svg(self, workspace, capsys):
        (workspace / "layout.json").write_text(json.dumps(_records(1)[0]))
        out = workspace / "out.svg"
        assert main(["render", "--layout", str(workspace / "layout.json"),
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("<?xml")


class TestPromptsCommand:
    def test_render_template(self, capsys):
        assert main(["prompts", "render", "--family", "content_aware",
                     "--stage", "2"]) == 0
        out = capsys.readouterr().out
        assert "maximize IoU" in out


class TestGatewayCommand:
    def test_replay_check_clean(self, tmp_path, capsys):
        tmp_path.mkdir(exist_ok=True)
        assert main(["gateway", "replay-check", "--transcripts", str(tmp_path)]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_ping_without_credentials_fails(self, monkeypatch, capsys):
        monkeypatch.delenv("LAYOUTLOOM_API_KEY", raising=False)
        code = main(["gateway", "ping", "--endpoint", "https://example.invalid"])
        assert code == 1


class TestGenerateCommand:
    def test_replay_run(self, fixture_env, tmp_path, capsys):
        config = fixture_env["run_config"](tmp_path / "cli_run", "replay")
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(config_path),
                     "--mode", "replay"]) == 0
        assert (tmp_path / "cli_run" / "generated.jsonl").exists()
        assert (tmp_path / "cli_run" / "metrics.tsv").exists()

    def test_mode_with_a_non_object_backend(self, fixture_env, tmp_path, capsys):
        config = dict(fixture_env["run_config"](tmp_path / "cli_run", "replay"),
                      backend="replay")
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(config_path), "--mode", "replay"]) == 1
        assert "ConfigError: backend must be an object" in capsys.readouterr().err

    def test_requires_config(self, capsys):
        assert main(["generate"]) == 1

    def test_unknown_config_key_is_one_line(self, fixture_env, tmp_path, capsys):
        config = dict(fixture_env["run_config"](tmp_path / "cli_run", "replay"), use_rga=False)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: ConfigError: unknown run config keys: use_rga"]

    def test_count_below_one_is_one_line(self, fixture_env, tmp_path, capsys):
        config = dict(fixture_env["run_config"](tmp_path / "cli_run", "replay"), k_coarse=0)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: ConfigError: k_coarse must be at least 1"]
        assert not (tmp_path / "cli_run" / "generated.jsonl").exists()

    # --no-cot is stages 0, also next to --stages N; runs from existing transcripts.
    @pytest.mark.parametrize("flags", [["--no-cot"], ["--stages", "2", "--no-cot"]])
    def test_ablation_flags_accepted(self, fixture_env, tmp_path, flags):
        config = fixture_env["run_config"](tmp_path / "nocot_run", "replay")
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(config_path), *flags]) == 0
        trace = json.loads((tmp_path / "nocot_run" / "traces" / "item0.json").read_text())
        assert trace["stages"] == []
        assert trace["config"]["stages"] == 0 and trace["config"]["use_cot"] is False


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_option(self):
        assert main(["retrieve"]) == 2

    @pytest.mark.parametrize("argv", [
        # --seed, --mode and --config are read by generate only.
        ["retrieve", "--index", "i.json", "--query", "q.json", "--seed", "1"],
        ["eval", "--generated", "g.jsonl", "--mode", "replay"],
        ["render", "--layout", "x.json", "--out", "x.svg", "--config", "run.json"],
        # index query duplicated retrieve; eval never read --manifest.
        ["index", "query", "--index", "i.json", "--query", "q.json"],
        ["eval", "--generated", "g.jsonl", "--manifest", "m.json"],
    ])
    def test_removed_options_are_usage_errors(self, argv):
        assert main(argv) == 2


@pytest.mark.parametrize("command", [
    ["ingest"], ["index"], ["index", "build"], ["retrieve"], ["generate"], ["eval"],
    ["render"], ["prompts", "render"], ["gateway", "ping"], ["gateway", "replay-check"],
])
def test_help_lists_run_options_for_generate_only(command, capsys):
    assert main(command + ["--help"]) == 0
    out = capsys.readouterr().out
    for option in ("--seed", "--mode", "--config"):
        assert bool(re.search(rf"{option}\b", out)) == (command == ["generate"])
    if command == ["index"]:
        assert "{build}" in out
