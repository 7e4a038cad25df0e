"""End-to-end command-line interface behavior via main(argv) and `python -m`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hcnet
import hcnet.train as train_module
from hcnet.cli import main
from hcnet.hypergraph import HyperEdge, Relation, build_graph, load_dataset, save_dataset
from hcnet.nn import init_params
from hcnet.synth import hypercycle, write_hypercycle_dataset
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

    @pytest.mark.parametrize("query", ["r0:x0:5", "r0::2"])
    def test_query_not_fitting_the_relation_exits_1(self, query, capsys):
        code = main(["refine", "--hypercycle", "8,3", "--query", query])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_dict_with_a_gap_exits_1(self, tmp_path, capsys):
        data = _tiny_dataset(tmp_path)
        lines = (data / "entities.dict").read_text(encoding="utf-8").splitlines()
        (data / "entities.dict").write_text("\n".join(lines[:-1]) + "\n9\tlast\n", encoding="utf-8")
        assert main(["refine", "--data", str(data)]) == 1
        assert "entities.dict: ids must be" in capsys.readouterr().err

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

    def test_superscript_digit_is_an_unknown_entity(self, tmp_path, capsys):
        # '\u00b2'.isdigit() holds, but int() cannot read it.
        data = _tiny_dataset(tmp_path)
        for argv in (["refine", "--data", str(data), "--query", "r0:\u00b2:2"],
                     ["logic", "eval", "--data", str(data),
                      "--formula", "exists>=1 r1@1 []", "--node", "\u00b2"]):
            assert main(argv) == 1
            assert "unknown entity" in capsys.readouterr().err

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

    @pytest.mark.parametrize("arity", ["-1", "0"])
    def test_compile_rejects_arity_below_one(self, arity, capsys):
        code = main([
            "logic", "compile", "--formula", "color(c0)", "--relations", f"r:{arity}",
        ])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "arity" in err


    def test_compile_rejects_a_repeated_relation(self, capsys):
        code = main([
            "logic", "compile", "--relations", "r:2,r:3",
            "--formula", "exists>=1 r@1 [j2: color(c0)]",
        ])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and "relation 'r' is listed twice" in err

    @pytest.mark.parametrize("formula", ["color(zz)", "exists>=1 r@1 [j2: color(zz)]"],
                             ids=["top-level", "guard"])
    def test_compile_rejects_a_color_outside_the_signature(self, formula, capsys):
        code = main(["logic", "compile", "--formula", formula, "--relations", "r:2"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.strip() == "error: zz"

    @pytest.mark.parametrize("formula, colors, message", [
        ("exists>=1 r@1 [2: color(zz)]", "c0", "zz"),
        ("(color(c1) and color(zz))", "c0,c1", "zz"),
        ("(color(c1) and exists>=1 nosuch@1 [])", "c0,c1", "nosuch"),
        ("(color(c1) and exists>=1 s@1 [1: color(c0)])", "c0,c1", "guard position 1"),
    ], ids=["guard", "false-conjunct", "relation", "position"])
    def test_eval_refuses_a_fault_at_every_node(self, formula, colors, message, tmp_path,
                                                capsys):
        # Each fault was reported only at the nodes whose evaluation reached
        # it; elsewhere `logic eval` printed false and exited 0.
        (tmp_path / "train.txt").write_text("r\ta\tb\nr\tb\tc\ns\ta\tb\tc\n",
                                            encoding="utf-8")
        for node in ("a", "b", "c"):
            code = main(["logic", "eval", "--data", str(tmp_path), "--formula", formula,
                         "--colors", colors, "--node", node])
            assert code == 1
            out, err = capsys.readouterr()
            assert out == "" and err.strip() == f"error: {message}"

    def test_eval_unknown_relation_exits_1(self, tmp_path, capsys):
        data = _tiny_dataset(tmp_path)
        code = main([
            "logic", "eval", "--data", str(data),
            "--formula", "exists>=1 nosuch@1 []", "--node", "x0",
        ])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.strip() == "error: nosuch"


def _python_m(module, *argv):
    """Run `python -m module argv...` with the package's source on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(hcnet.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["hcnet", "hcnet.cli"])
    def test_python_m_runs_the_cli(self, module, capsys):
        argv = ["refine", "--hypercycle", "8,3", "--rounds", "1"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        proc = _python_m(module, *argv)
        assert proc.returncode == 0, proc.stderr
        assert expected and proc.stdout == expected

    def test_python_m_passes_the_exit_code(self):
        proc = _python_m("hcnet", "logic", "compile", "--formula", "color(zz)",
                         "--relations", "r:2")
        assert proc.returncode == 1
        assert proc.stdout == "" and proc.stderr.strip() == "error: zz"


class TestMalformedFlags:
    @pytest.mark.parametrize("argv", [
        ["refine", "--hypercycle", "8"],
        ["refine", "--hypercycle", "8,x"],
        ["refine", "--hypercycle", "8,3", "--query", "r0:x0"],
        ["refine", "--hypercycle", "8,3", "--query", "r0:x0:z"],
        ["generate-hypercycle", "--out", "unused", "--ns", "8,a"],
        ["logic", "compile", "--formula", "color(c0)", "--relations", "r:x"],
        ["logic", "compile", "--formula", "color(c0)", "--relations", "r"],
        ["refine", "--hypercycle", "8,3", "--rounds", "-2"],
        ["generate-hypercycle", "--out", "unused", "--seed", "-1"],
        ["gradcheck", "--seed", "-1"],
        ["gradcheck", "--instances", "-2"],
        ["gradcheck", "--instances", "0"],
        ["theorem-suite", "--seed", "-1"],
    ], ids=" ".join)
    def test_usage_error_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "Traceback" not in err


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

    def test_inductive_evaluation_on_an_unseen_larger_graph(self, tmp_path, capsys):
        # The paper's inductive setting: train on one graph, rank on a graph
        # of other, more entities. The checkpoint holds no node-sized tensor,
        # so any node count fits; the relations are pinned to the same ids.
        rng = np.random.default_rng(0)

        def write(directory, prefix, nodes, facts):
            directory.mkdir()
            (directory / "relations.dict").write_text("0\tr\n1\ts\n", encoding="utf-8")
            splits = {}
            for split, count in zip(("train", "valid", "test"), facts):
                lines = [
                    "\t".join([rel] + [f"{prefix}{v}" for v in rng.integers(0, nodes, k)])
                    for rel, k in (("r", 2), ("s", 3)) for _ in range(count)
                ]
                (directory / f"{split}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
                splits[split] = lines
            return splits

        write(tmp_path / "seen", "a", 10, (12, 2, 2))
        unseen = write(tmp_path / "unseen", "b", 17, (20, 3, 4))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "d": 4, "layers": 1, "epochs": 1, "batch_size": 4,
            "negatives": 2, "steps_per_epoch": 2,
        }))
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--data", str(tmp_path / "seen"), "--config", str(cfg_path),
                     "--out", str(ckpt), "--seed", "0"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--data", str(tmp_path / "unseen")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert load_dataset(str(tmp_path / "unseen"))[0].node_count > 10
        assert report["queries"] == sum(len(line.split("\t")) - 1 for line in unseen["test"])
        assert 0.0 < report["mrr"] <= 1.0

    def test_unknown_model_kind_exits_1(self, tmp_path, capsys):
        data = _tiny_dataset(tmp_path)
        graph, _, _, _ = load_dataset(str(data))
        params = init_params(
            graph, TrainConfig(d=4, layers=1).model_config(), np.random.default_rng(0)
        )
        ckpt = tmp_path / "other.ckpt"
        save_checkpoint(str(ckpt), params)
        # A ModelConfig of an unknown kind cannot be built, so write it
        # into the header.
        raw = ckpt.read_bytes()
        hlen = int.from_bytes(raw[:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        header["model"]["kind"] = "other"
        blob = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(len(blob).to_bytes(8, "little") + blob + raw[8 + hlen :])
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
        assert code == 1
        assert "unknown model kind" in capsys.readouterr().err

    @pytest.mark.parametrize("misfit", ["relation", "arity", "decoder"])
    def test_data_the_checkpoint_does_not_fit_exits_1(self, tmp_path, capsys, misfit):
        # The checkpoint is built for hypercycle(8, 3): three relations of
        # arity <= 3, and hrnet decoders for arities 2 and 3.
        base = hypercycle(8, 3)
        kind = "hrnet" if misfit == "decoder" else "hcnet"
        params = init_params(
            base, TrainConfig(d=4, layers=1).model_config(kind), np.random.default_rng(0)
        )
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(str(ckpt), params)
        test = [HyperEdge(0, (0, 4))]
        if misfit == "relation":
            g = build_graph(base.relations + [Relation(3, "r3", 2)],
                            base.edges + [HyperEdge(3, (0, 1))], 8)
        elif misfit == "arity":
            g = hypercycle(8, 5)
        else:
            g = build_graph([Relation(0, "r0", 1), *base.relations[1:]], base.edges, 8)
            test = [HyperEdge(0, (0,))]
        save_dataset(str(tmp_path / "data"), g, {"train": g.edges, "test": test})
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(tmp_path / "data")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_query_dependent_hrnet_checkpoint_exits_1(self, tmp_path, capsys):
        # hrnet has no query for W_r z_q; loading such a config is an error.
        data = _tiny_dataset(tmp_path)
        graph, _, _, _ = load_dataset(str(data))
        params = init_params(
            graph, TrainConfig(d=4, layers=1).model_config("hrnet"), np.random.default_rng(0)
        )
        ckpt = tmp_path / "hrnet.ckpt"
        save_checkpoint(str(ckpt), params)
        raw = ckpt.read_bytes()
        hlen = int.from_bytes(raw[:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        header["model"]["mode"] = "query-dependent"
        blob = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(len(blob).to_bytes(8, "little") + blob + raw[8 + hlen :])
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "query-independent" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("text", ["{bad", '["d"]', "3", "\udcff"])
    def test_config_not_a_json_object_exits_1(self, tmp_path, capsys, text):
        data = _tiny_dataset(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text, encoding="utf-8", errors="surrogateescape")
        code = main([
            "train", "--data", str(data), "--config", str(cfg_path),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("values", [
        {"mode": "query-dependant"},
        {"variant": "pos-rel"},
        {"accumulation": 8},
        {"batch_size": 0},
        {"lr": "x"},
        {"dropout": 1.5},
        {"negatives": 0},
        {"epochs": -1},
        {"d": 4.5},
        {"layers": -1},
        {"steps_per_epoch": 0},
        {"adv_temperature": 0},
        {"pe_kind": "learned"},
        {"d": 3},
        {"d": 1, "pe_kind": "one-hot"},
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

    def test_negative_seed_flag_exits_1(self, tmp_path, capsys):
        data = _tiny_dataset(tmp_path)
        code = main(["train", "--data", str(data), "--seed", "-1",
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_training_exits_1(self, tmp_path, capsys, monkeypatch):
        def poisoned(*args, **kwargs):
            params = init_params(*args, **kwargs)
            params.tensors["dec_W1"][0, 0] = np.nan
            return params

        monkeypatch.setattr(train_module, "init_params", poisoned)
        data = _tiny_dataset(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"d": 4, "layers": 1, "epochs": 1, "batch_size": 4}))
        code = main([
            "train", "--data", str(data), "--config", str(cfg_path),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: loss nan")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "cut",
        ["empty", "header", "body", "negative", "non-integer", "layernorm-off", "skip-off",
         "layers-x", "layers-5", "layers-negative", "dropout-2", "mode-bogus", "relations-9",
         "max-arity-x"],
    )
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
        # A shape of [-1] with nbytes -4 passes the size equation, and a
        # count of -1 would read the rest of the file; a dimension "a" is
        # no number at all. Older headers carry `use_layernorm` and
        # `use_skip`; the model now always applies both. The last seven cuts
        # give a header that describes no valid model, or not the 1-layer
        # model of the body.
        header = json.loads(raw[8 : 8 + hlen])
        spec = next(s for s in header["tensors"] if s["name"] == "W_l0")
        model_edits = {"layers-x": {"layers": "x"}, "layers-5": {"layers": 5},
                       "layers-negative": {"layers": -1}, "dropout-2": {"dropout": 2.0},
                       "mode-bogus": {"mode": "bogus"}}
        if cut.endswith("-off"):
            header["model"].update(use_layernorm=cut != "layernorm-off",
                                   use_skip=cut != "skip-off")
        elif cut in model_edits:
            header["model"].update(model_edits[cut])
        elif cut == "relations-9":
            header["num_relations"] = 9
        elif cut == "max-arity-x":
            header["max_arity"] = "x"
        else:
            spec["shape"], spec["nbytes"] = {"negative": ([-1], -4)}.get(cut, (["a"], 4))
        blob = json.dumps(header).encode("utf-8")
        resized = len(blob).to_bytes(8, "little") + blob + raw[8 + hlen :]
        ckpt.write_bytes({"empty": b"", "header": raw[: 8 + hlen // 2],
                          "body": raw[:-3]}.get(cut, resized))
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_missing_data_dir(self, tmp_path, capsys):
        code = main([
            "train", "--data", str(tmp_path / "nope"),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line, fault", [
        ("r\tb\t", "empty entity name"), ("\tb\tc", "empty relation name"),
    ], ids=["entity", "relation"])
    @pytest.mark.parametrize("command", ["train", "logic-eval"])
    def test_an_empty_name_exits_1(self, tmp_path, capsys, command, line, fault):
        # A trailing TAB read as an entity named '', a leading one as a relation named ''.
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.txt").write_text(f"r\ta\tb\n{line}\n", encoding="utf-8")
        argv = {
            "train": ["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt")],
            "logic-eval": ["logic", "eval", "--data", str(data),
                           "--formula", "exists>=1 r@1 []", "--node", "a"],
        }[command]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {data / 'train.txt'}:2: {fault}\n"


class TestGradcheck:
    def test_passes(self, capsys):
        code = main(["gradcheck", "--instances", "2", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS gradient-check: 2 checked, 0 failed")
        assert "np.float64" not in out


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--bogus"])
        assert exc.value.code == 2
