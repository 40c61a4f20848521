import json
import struct

import numpy as np
import pytest

from trn import nn
from trn.cli import main
from trn.data import read_features
from trn.training import TrainConfig, build_model


def run(*argv):
    return main(list(argv))


def gen_small(tmp_path, name="data", seed="5", train="48", val="24"):
    out = tmp_path / name
    code = run(
        "gen-data",
        "--preset", "order-critical",
        "--out-dir", str(out),
        "--seed", seed,
        "--train-count", train,
        "--val-count", val,
    )
    assert code == 0
    return out


def train_small(tmp_path, data_dir, name="run", pooling="temporal-relation"):
    out = tmp_path / name
    code = run(
        "train",
        "--train-data", str(data_dir / "train.trnf"),
        "--val-data", str(data_dir / "val.trnf"),
        "--out-dir", str(out),
        "--epochs", "2",
        "--num-frames", "4",
        "--hidden-dim", "16",
        "--seed", "3",
        "--pooling", pooling,
    )
    assert code == 0
    return out


class TestGenData:
    def test_identical_config_gives_byte_identical_files(self, tmp_path):
        a = gen_small(tmp_path, "a")
        b = gen_small(tmp_path, "b")
        for split in ("train.trnf", "val.trnf"):
            assert (a / split).read_bytes() == (b / split).read_bytes()

    def test_manifest_written(self, tmp_path):
        out = gen_small(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["config"]["preset"] == "order-critical"
        assert manifest["seed"] == 5

    def test_files_readable(self, tmp_path):
        out = gen_small(tmp_path)
        ds = read_features(out / "train.trnf")
        assert len(ds) == 48
        assert ds.feature_dim == 16


class TestUsage:
    def test_unknown_subcommand_exits_one_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_exits_one(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert run("gen-data", "--config", str(cfg)) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_missing_required_setting_exits_one(self, capsys):
        assert run("gen-data") == 1
        err = capsys.readouterr().err
        assert "preset" in err or "out_dir" in err

    def test_missing_input_file_exits_two(self, tmp_path):
        code = run(
            "eval",
            "--model", str(tmp_path / "missing.trnw"),
            "--data", str(tmp_path / "missing.trnf"),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2

    def test_oversized_headers_exit_two(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        huge_model = tmp_path / "huge.trnw"
        huge_model.write_bytes(b"TRNW" + struct.pack("<IIIII", 1, 1, 2**32 - 1, 2**32 - 1, 0))
        head = tmp_path / "head.trnw"
        nn.save_mlp(head, build_model(16, 8, TrainConfig(pooling="average-pool"), hidden_dim=4))
        huge_data = tmp_path / "huge.trnf"
        huge_data.write_bytes(b"TRNF" + struct.pack("<IIIII", 1, 1, 0, 65535, 65535))
        for model, features in ((huge_model, data / "val.trnf"), (head, huge_data)):
            code = run(
                "eval",
                "--model", str(model),
                "--data", str(features),
                "--out-dir", str(tmp_path / "out"),
                "--pooling", "average-pool",
            )
            assert code == 2
            assert "byte offset 24" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = order-free\ntrain_count = 16\nval_count = 8\nseed = 1\n")
        out = tmp_path / "out"
        code = run("gen-data", "--config", str(cfg), "--out-dir", str(out), "--seed", "9")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9  # flag wins
        assert manifest["config"]["preset"] == "order-free"  # file value kept


class TestTrainEvalStream:
    def test_train_writes_artifacts(self, tmp_path):
        data = gen_small(tmp_path)
        out = train_small(tmp_path, data)
        assert (out / "model.trnw").exists()
        assert (out / "manifest.json").exists()
        history = [json.loads(l) for l in (out / "history.jsonl").read_text().splitlines()]
        assert len(history) == 2
        assert {"epoch", "loss", "accuracy"} <= set(history[0])
        eval_rows = [json.loads(l) for l in (out / "eval.jsonl").read_text().splitlines()]
        assert eval_rows[0]["kind"] == "summary"
        assert len([r for r in eval_rows if r["kind"] == "class"]) == 8

    def test_eval_round_trips_saved_model(self, tmp_path):
        data = gen_small(tmp_path)
        run_dir = train_small(tmp_path, data)
        out = tmp_path / "eval"
        code = run(
            "eval",
            "--model", str(run_dir / "model.trnw"),
            "--data", str(data / "val.trnf"),
            "--out-dir", str(out),
            "--num-frames", "4",
        )
        assert code == 0
        rows = [json.loads(l) for l in (out / "eval.jsonl").read_text().splitlines()]
        summary = rows[0]
        trained = [json.loads(l) for l in (run_dir / "eval.jsonl").read_text().splitlines()]
        assert summary["top1"] == trained[0]["top1"]

    def test_baseline_pooling_checkpoint_round_trip(self, tmp_path):
        data = gen_small(tmp_path)
        run_dir = train_small(tmp_path, data, name="avg", pooling="average-pool")
        out = tmp_path / "eval_avg"
        code = run(
            "eval",
            "--model", str(run_dir / "model.trnw"),
            "--data", str(data / "val.trnf"),
            "--out-dir", str(out),
            "--num-frames", "4",
            "--pooling", "average-pool",
        )
        assert code == 0

    def test_stream_emits_predictions(self, tmp_path):
        data = gen_small(tmp_path)
        run_dir = train_small(tmp_path, data)
        out = tmp_path / "stream"
        code = run(
            "stream",
            "--model", str(run_dir / "model.trnw"),
            "--data", str(data / "val.trnf"),
            "--out-dir", str(out),
            "--stride", "2",
        )
        assert code == 0
        rows = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        # 32 frames, stride 2, capacity 4: predictions at pushes 8,10,...,32
        per_sample = 32 // 2 - 4 + 1
        assert len(rows) == per_sample * 24
        assert all(r["frames_seen"] % 2 == 0 for r in rows)

    def test_inputs_not_mutated(self, tmp_path):
        data = gen_small(tmp_path)
        before = (data / "train.trnf").read_bytes()
        train_small(tmp_path, data, name="again")
        assert (data / "train.trnf").read_bytes() == before


class TestAnalyzeAndTools:
    def test_analyze_writes_reports(self, tmp_path):
        data = gen_small(tmp_path)
        run_dir = train_small(tmp_path, data)
        out = tmp_path / "analysis"
        code = run(
            "analyze",
            "--model", str(run_dir / "model.trnw"),
            "--data", str(data / "val.trnf"),
            "--out-dir", str(out),
            "--num-frames", "4",
            "--scale", "3",
            "--anchors", "3",
            "--fractions", "0.5,1.0",
        )
        assert code == 0
        for name in (
            "representative.jsonl",
            "alignment.jsonl",
            "early.jsonl",
            "order_sensitivity.jsonl",
            "embeddings.txt",
        ):
            assert (out / name).exists()
        early = [json.loads(l) for l in (out / "early.jsonl").read_text().splitlines()]
        assert [r["fraction"] for r in early] == [0.5, 1.0]

    def test_grad_check_passes_and_prints_error(self, capsys):
        assert run("grad-check", "--check-configs", "3") == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_compare_pool_writes_table(self, tmp_path):
        data = gen_small(tmp_path)
        out = tmp_path / "grid"
        code = run(
            "compare-pool",
            "--train-data", str(data / "train.trnf"),
            "--val-data", str(data / "val.trnf"),
            "--out-dir", str(out),
            "--epochs", "1",
            "--scales", "2,3",
            "--hidden-dim", "8",
        )
        assert code == 0
        rows = [json.loads(l) for l in (out / "compare_pool.jsonl").read_text().splitlines()]
        assert {(r["pooling"], r["scale"]) for r in rows} == {
            ("temporal-relation", 2),
            ("temporal-relation", 3),
            ("average-pool", 2),
            ("average-pool", 3),
        }
