"""End-to-end command-line interface behavior via main(argv)."""

import dataclasses
import json

import numpy as np
import pytest

from hcnet.cli import main
from hcnet.hypergraph import load_dataset
from hcnet.nn import init_params
from hcnet.synth import write_hypercycle_dataset
from hcnet.train import TrainConfig, save_checkpoint


def _tiny_dataset(tmp_path):
    """A loadable cyclic dataset with train/test r0 queries."""
    write_hypercycle_dataset(str(tmp_path / "suite"), ns=(8,), ks=(3, 4), ratio=0.5)
    return next((tmp_path / "suite" / "test").iterdir())


class TestGenerateHypercycle:
    def test_writes_loadable_directories(self, tmp_path, capsys):
        out = tmp_path / "suite"
        code = main([
            "generate-hypercycle", "--out", str(out),
            "--ns", "8", "--ks", "3,4", "--ratio", "0.5",
        ])
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        dirs = sorted(out.rglob("hypercycle_*"))
        assert len(dirs) == 2
        for d in dirs:
            g, *_ = load_dataset(str(d))
            assert g.node_count == 8


class TestRefine:
    def test_hypercycle_partition_lines(self, capsys):
        assert main(["refine", "--hypercycle", "8,3", "--rounds", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        # rounds 0..2, 8 nodes each
        assert len(lines) == 3 * 8
        for line in lines:
            rnd, node, color = line.split("\t")
            assert 0 <= int(rnd) <= 2 and 0 <= int(node) < 8
            int(color)

    def test_conditioned_query_separates_antipode_from_near(self, capsys):
        assert main([
            "refine", "--hypercycle", "8,3", "--rounds", "4",
            "--query", "r0:x0:2",
        ]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        final = {}
        for line in lines:
            rnd, node, color = line.split("\t")
            if int(rnd) == 4:
                final[int(node)] = int(color)
        assert final[2] != final[4]

    def test_dataset_source(self, tmp_path, capsys):
        data = _tiny_dataset(tmp_path)
        assert main(["refine", "--data", str(data), "--rounds", "1"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 2 * 8

    def test_unknown_relation_in_query(self, capsys):
        code = main([
            "refine", "--hypercycle", "8,3", "--query", "nope:x0:2",
        ])
        assert code == 1
        assert "unknown relation" in capsys.readouterr().err


class TestLogic:
    def test_eval_prints_boolean(self, tmp_path, capsys):
        data = _tiny_dataset(tmp_path)
        code = main([
            "logic", "eval", "--data", str(data),
            "--formula", "exists>=1 r1@1 []", "--node", "x0",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

        code = main([
            "logic", "eval", "--data", str(data),
            "--formula", "exists>=9 r1@1 []", "--node", "x0",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_eval_with_constant(self, tmp_path, capsys):
        data = _tiny_dataset(tmp_path)
        code = main([
            "logic", "eval", "--data", str(data),
            "--formula", "exists>=1 r1@1 [2:is(c)]", "--node", "x0",
            "--const", "c=x1",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_compile_emits_json_weights(self, capsys):
        code = main([
            "logic", "compile",
            "--formula", "(color(c0) and exists>=2 r@1 [])",
            "--colors", "c0", "--relations", "r:3",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subformulas"] >= 3
        assert "W0" in payload and "bias" in payload
        assert "r" in payload["Wr"] and "r" in payload["ar"]
        assert all(x in (1, 3) for row in payload["p"] for x in row)


class TestTrainEvaluate:
    def test_end_to_end(self, tmp_path, capsys):
        data = _tiny_dataset(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "d": 4, "layers": 1, "epochs": 1, "batch_size": 4,
            "negatives": 2, "steps_per_epoch": 2,
        }))
        ckpt = tmp_path / "model.ckpt"
        code = main([
            "train", "--data", str(data), "--config", str(cfg_path),
            "--out", str(ckpt), "--seed", "0",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["epochs"] == 1
        assert ckpt.exists()
        assert (tmp_path / "model.ckpt.log").exists()
        echo = json.loads((tmp_path / "model.ckpt.config.json").read_text())
        assert echo["d"] == 4 and echo["seed"] == 0

        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 < report["mrr"] <= 1.0
        assert report["queries"] == 16  # 8 test facts x 2 positions

    def test_unknown_model_kind_exits_1(self, tmp_path, capsys):
        data = _tiny_dataset(tmp_path)
        graph, _, _, _ = load_dataset(str(data))
        params = init_params(
            graph, TrainConfig(d=4, layers=1).model_config(), np.random.default_rng(0)
        )
        params.config = dataclasses.replace(params.config, kind="other")
        ckpt = tmp_path / "other.ckpt"
        save_checkpoint(str(ckpt), params)
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
        assert code == 1
        assert "unknown model kind" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        data = _tiny_dataset(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
        code = main([
            "train", "--data", str(data), "--config", str(cfg_path),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [
        {"mode": "query-dependant"},
        {"variant": "pos-rel"},
        {"accumulation": 8},
    ])
    def test_config_typo_exits_1(self, tmp_path, capsys, values):
        data = _tiny_dataset(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"d": 4, "layers": 1, "epochs": 1, **values}))
        code = main([
            "train", "--data", str(data), "--config", str(cfg_path),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("cut", ["empty", "header", "body"])
    def test_bad_checkpoint_exits_1(self, tmp_path, capsys, cut):
        data = _tiny_dataset(tmp_path)
        graph, _, _, _ = load_dataset(str(data))
        params = init_params(
            graph, TrainConfig(d=4, layers=1).model_config(), np.random.default_rng(0)
        )
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(str(ckpt), params)
        raw = ckpt.read_bytes()
        hlen = int.from_bytes(raw[:8], "little")
        ckpt.write_bytes({"empty": b"", "header": raw[: 8 + hlen // 2],
                          "body": raw[:-3]}[cut])
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_data_dir(self, tmp_path, capsys):
        code = main([
            "train", "--data", str(tmp_path / "nope"),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestGradcheck:
    def test_passes(self, capsys):
        code = main(["gradcheck", "--instances", "2", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--bogus"])
        assert exc.value.code == 2
