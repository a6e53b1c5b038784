import dataclasses
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deepicf
from deepicf import cli, data
from deepicf.checkpoint import load_checkpoint, save_checkpoint
from deepicf.cli import main
from deepicf.data import InteractionDataset, load_split
from deepicf.errors import TrainingDiverged
from deepicf.evaluation import rank_test_item
from deepicf.model import ModelConfig, Variant, init_params
from deepicf.numerics import rng_from_seed

import attention_oracle
from conftest import synthetic_lines

BASE_CONFIG = """\
variant = DeepICF
k = 8
L = 2
alpha = 0.5
NS = 4
lr = 0.05
epochs = 3
seed = 11
"""


def exit_code(argv):
    """main's return value, or the code of the SystemExit that argparse
    raises for a bad argument."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def workdir(tmp_path):
    log = tmp_path / "log.tsv"
    log.write_text("\n".join(synthetic_lines(num_users=25, num_items=300,
                                             seed=7)) + "\n")
    cfg = tmp_path / "model.cfg"
    cfg.write_text(BASE_CONFIG)
    rc = main(["split", str(log), "--split", str(tmp_path / "sp"),
               "--seed", "5"])
    assert rc == 0
    return tmp_path


class TestSplitCommand:
    def test_writes_four_files(self, workdir):
        for ext in (".train", ".test", ".negatives", ".idmap"):
            assert (workdir / f"sp{ext}").is_file()

    def test_rerun_is_byte_identical(self, workdir):
        rc = main(["split", str(workdir / "log.tsv"),
                   "--split", str(workdir / "sp2"), "--seed", "5"])
        assert rc == 0
        for ext in (".train", ".test", ".negatives", ".idmap"):
            assert filecmp.cmp(workdir / f"sp{ext}", workdir / f"sp2{ext}",
                               shallow=False)

    @pytest.mark.parametrize("scorer", ["itempop", "itemknn"])
    def test_eval_refuses_a_cut_train(self, workdir, capsys, scorer):
        # the first two thirds of .train are sound rows; the split record
        # in .idmap still counts the whole file
        path = workdir / "sp.train"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:len(lines) * 2 // 3]))
        assert main(["eval", "--split", str(workdir / "sp"),
                     "--scorer", scorer]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: {len(lines) * 2 // 3} rows, but the split record" \
            f" lists {len(lines)}" in captured.err

    def test_thin_user_dropped_and_logged(self, tmp_path, caplog):
        log = tmp_path / "log.tsv"
        lines = synthetic_lines(num_users=20, num_items=300, seed=1)
        lines.append("loner\ti0\t1\t9")
        log.write_text("\n".join(lines) + "\n")
        with caplog.at_level("INFO"):
            rc = main(["split", str(log), "--split", str(tmp_path / "sp"),
                       "--seed", "2"])
        assert rc == 0
        assert "dropped 1 users" in caplog.text
        split = load_split(tmp_path / "sp")
        assert "loner" not in split.train.user_ids

    def test_raw_id_with_tab_fails_before_writing(self, tmp_path, capsys):
        # a tab in a raw id would make the written .idmap unreadable
        log = tmp_path / "tabsp.log"
        log.write_text("a\tb::i1::5::1\na\tb::i2::5::2\nc::i1::5::3\n"
                       "c::i2::4::4\n", encoding="utf-8")
        rc = main(["split", str(log), "--format", "double_colon",
                   "--split", str(tmp_path / "tabsp")])
        assert rc == 1
        assert f"{log}: line 1: raw id" in capsys.readouterr().err
        assert not (tmp_path / "tabsp.idmap").exists()

    def test_parse_error_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("u\ti\t1\n")
        rc = main(["split", str(bad), "--split", str(tmp_path / "sp")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTrainCommand:
    def test_train_writes_checkpoint_and_metrics(self, workdir):
        rc = main(["train", "--config", str(workdir / "model.cfg"),
                   "--split", str(workdir / "sp"),
                   "--checkpoint", str(workdir / "m.ckpt"),
                   "--metrics", str(workdir / "m.csv")])
        assert rc == 0
        params, cfg, num_users, num_items = load_checkpoint(workdir / "m.ckpt")
        split = load_split(workdir / "sp")
        assert (num_users, num_items) == (split.train.num_users,
                                          split.train.num_items)
        csv = (workdir / "m.csv").read_text().splitlines()
        assert csv[0] == "epoch,loss,hr10,ndcg10,seconds"
        assert len(csv) == 4  # header + three epochs
        assert csv[1].split(",")[2] == ""  # hr blank when eval skipped

    def test_zero_epochs_equals_initialization(self, workdir):
        cfg_file = workdir / "zero.cfg"
        cfg_file.write_text(BASE_CONFIG.replace("epochs = 3", "epochs = 0"))
        rc = main(["train", "--config", str(cfg_file),
                   "--split", str(workdir / "sp"),
                   "--checkpoint", str(workdir / "z.ckpt")])
        assert rc == 0
        params, cfg, num_users, num_items = load_checkpoint(workdir / "z.ckpt")
        split = load_split(workdir / "sp")
        fresh = init_params(cfg.__class__(**{**cfg.__dict__,
                                             "lr": 0.05, "epochs": 0,
                                             "seed": 11}),
                            num_users, num_items,
                            rng_from_seed(11, "init"))
        for a, b in zip(params.values(), fresh.values()):
            assert np.array_equal(a, b)

    def test_pretrain_alias_logs_two_phases(self, workdir, caplog):
        with caplog.at_level("INFO"):
            rc = main(["pretrain", "--config", str(workdir / "model.cfg"),
                       "--split", str(workdir / "sp"),
                       "--checkpoint", str(workdir / "p.ckpt")])
        assert rc == 0
        assert "phase 1/2" in caplog.text
        assert "phase 2/2" in caplog.text
        _, cfg, _, _ = load_checkpoint(workdir / "p.ckpt")
        assert cfg.variant is Variant.DEEPICF

    def test_seed_flag_overrides_config(self, workdir):
        for seed, name in (("11", "a.ckpt"), ("12", "b.ckpt")):
            rc = main(["train", "--config", str(workdir / "model.cfg"),
                       "--split", str(workdir / "sp"),
                       "--checkpoint", str(workdir / name), "--seed", seed])
            assert rc == 0
        a = (workdir / "a.ckpt").read_bytes()
        b = (workdir / "b.ckpt").read_bytes()
        assert a != b


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_saves_the_last_finite_epoch(self, workdir, caplog,
                                                    monkeypatch):
        # the first steps make the embeddings overflow
        cfg_file = workdir / "diverge.cfg"
        cfg_file.write_text(BASE_CONFIG.replace("lr = 0.05", "lr = 1e300"))
        original, raised = cli.fit, []

        def fit(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except TrainingDiverged as err:
                raised.append(err)
                raise
        monkeypatch.setattr(cli, "fit", fit)
        path = workdir / "d.ckpt"
        with caplog.at_level("ERROR"):
            rc = main(["train", "--config", str(cfg_file), "--split",
                       str(workdir / "sp"), "--checkpoint", str(path)])
        assert rc == 1
        [err] = raised
        assert (f"training diverged at epoch {err.epoch}" in caplog.text
                and f"saved last finite epoch to {path}" in caplog.text)
        params = load_checkpoint(path)[0]
        assert np.isfinite(params.flat).all()
        assert np.array_equal(params.flat, err.last_params.flat)


class TestEvalCommand:
    @pytest.fixture()
    def trained(self, workdir):
        main(["train", "--config", str(workdir / "model.cfg"),
              "--split", str(workdir / "sp"),
              "--checkpoint", str(workdir / "m.ckpt")])
        return workdir

    def test_model_eval_prints_summary(self, trained, capsys):
        rc = main(["eval", "--checkpoint", str(trained / "m.ckpt"),
                   "--split", str(trained / "sp"), "--k", "10",
                   "--metrics", str(trained / "report.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("HR@10=") and "NDCG@10=" in out
        assert (trained / "report.csv").read_text().startswith("user,rank")

    def test_hr_monotone_in_k(self, trained, capsys):
        def hr_at(k):
            main(["eval", "--checkpoint", str(trained / "m.ckpt"),
                  "--split", str(trained / "sp"), "--k", str(k)])
            out = capsys.readouterr().out
            return float(out.split()[0].split("=")[1])
        assert hr_at(1) <= hr_at(10)

    def test_baseline_scorer_ignores_checkpoint(self, trained, capsys):
        rc = main(["eval", "--split", str(trained / "sp"),
                   "--scorer", "itempop"])
        assert rc == 0
        baseline = capsys.readouterr().out
        rc = main(["eval", "--checkpoint", str(trained / "m.ckpt"),
                   "--split", str(trained / "sp"), "--scorer", "itempop"])
        assert rc == 0
        assert capsys.readouterr().out == baseline

    def test_itemknn_scorer_runs(self, trained, capsys):
        rc = main(["eval", "--split", str(trained / "sp"),
                   "--scorer", "itemknn"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("HR@10=")

    def test_shape_mismatch_is_an_error(self, trained, capsys):
        cfg = ModelConfig(variant=Variant.FISM, k=4)
        params = init_params(cfg, 3, 5, rng_from_seed(0))
        save_checkpoint(trained / "tiny.ckpt", params, cfg)
        rc = main(["eval", "--checkpoint", str(trained / "tiny.ckpt"),
                   "--split", str(trained / "sp")])
        assert rc == 1
        assert "checkpoint is for" in capsys.readouterr().err

    def test_model_scorer_needs_a_checkpoint(self, workdir, capsys):
        rc = main(["eval", "--split", str(workdir / "sp")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--checkpoint is required for the model scorer" in err

    def test_itemknn_over_its_budget_names_the_bytes(self, workdir, capsys,
                                                     monkeypatch):
        split = load_split(workdir / "sp")
        need = split.train.num_items ** 2      # uint8 counts of 25 users
        monkeypatch.setattr(deepicf.evaluation, "KNN_COUNT_BYTES", need - 1)
        rc = main(["eval", "--split", str(workdir / "sp"),
                   "--scorer", "itemknn"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert (f"ItemKNN over {split.train.num_items} items needs {need}"
                f" bytes of co-occurrence counts, over its budget of"
                f" {need - 1} bytes") in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_rejected_before_ranking(self, workdir, capsys, k):
        rc = exit_code(["eval", "--split", str(workdir / "sp"),
                        "--scorer", "itempop", "--k", k])
        assert rc != 0
        out, err = capsys.readouterr()
        assert out == ""
        assert "--k" in err


class TestRecommendCommand:
    def test_bias_only_model_recommends_global_best(self, workdir, capsys):
        split = load_split(workdir / "sp")
        cfg = ModelConfig(variant=Variant.FISM, k=4)
        params = init_params(cfg, split.train.num_users,
                             split.train.num_items, rng_from_seed(0))
        params["target_embed"][:] = 0.0
        params["history_embed"][:] = 0.0
        best = 17
        params["item_bias"][best] = 3.0
        save_checkpoint(workdir / "bias.ckpt", params, cfg)
        user = split.train.user_ids[0]
        assert best not in set(split.train.history_items(0).tolist())
        rc = main(["recommend", user, "--checkpoint", str(workdir / "bias.ckpt"),
                   "--split", str(workdir / "sp"), "--k", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"user {user}"
        rank, item, score = lines[1].split("\t")
        assert item == split.train.item_ids[best]

    def test_attention_weights_sum_to_one(self, workdir, capsys):
        split = load_split(workdir / "sp")
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=4, k_prime=3, beta=1.0)
        params = init_params(cfg, split.train.num_users,
                             split.train.num_items, rng_from_seed(1))
        save_checkpoint(workdir / "att.ckpt", params, cfg)
        user = split.train.user_ids[2]
        rc = main(["recommend", user, "--checkpoint", str(workdir / "att.ckpt"),
                   "--split", str(workdir / "sp"), "--k", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        blocks = [i for i, l in enumerate(lines) if l.startswith("# attention")]
        assert len(blocks) == 2
        hist = split.train.history_items(2)
        for start in blocks:
            weights = []
            for line in lines[start + 1:]:
                if line.startswith("#"):
                    break
                weights.append(float(line.split("\t")[1]))
            assert len(weights) == hist.size
            assert abs(sum(weights) - 1.0) < 1e-4  # printed at 6 decimals
            # the history-major formula's weights, to the printed digits
            item = split.train.item_index[lines[start].split()[-1]]
            want = attention_oracle.forward(params, cfg, hist, 2, item).weights
            assert np.abs(np.array(weights) - want).max() <= 5e-7 + 1e-12

    def test_tied_scores_list_lower_index_first(self, workdir, capsys):
        # a model of zeros scores every item alike
        split = load_split(workdir / "sp")
        cfg = ModelConfig(variant=Variant.FISM, k=4)
        params = init_params(cfg, split.train.num_users,
                             split.train.num_items, rng_from_seed(0))
        params.flat[:] = 0.0
        save_checkpoint(workdir / "zero.ckpt", params, cfg)
        user = 3
        rc = main(["recommend", split.train.user_ids[user], "--checkpoint",
                   str(workdir / "zero.ckpt"), "--split", str(workdir / "sp"),
                   "--k", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        recommended = [split.train.item_index[l.split("\t")[1]] for l in lines]
        history = set(split.train.history_items(user).tolist())
        unseen = [i for i in range(split.train.num_items) if i not in history]
        assert recommended == unseen[:5]
        # rank_test_item breaks the same tie the same way
        test_item = int(split.test_items[user])
        negatives = split.eval_negatives[user]
        assert rank_test_item(np.zeros_like, test_item, negatives) == (
            1 + int((negatives < test_item).sum()))

    def test_excludes_training_history(self, workdir, capsys):
        split = load_split(workdir / "sp")
        cfg = ModelConfig(variant=Variant.FISM, k=4)
        params = init_params(cfg, split.train.num_users,
                             split.train.num_items, rng_from_seed(3))
        save_checkpoint(workdir / "f.ckpt", params, cfg)
        user_idx = 1
        user = split.train.user_ids[user_idx]
        rc = main(["recommend", user, "--checkpoint", str(workdir / "f.ckpt"),
                   "--split", str(workdir / "sp"), "--k", "50"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        recommended = {l.split("\t")[1] for l in lines[1:] if "\t" in l
                       and not l.startswith("#")}
        hist_ids = {split.train.item_ids[i]
                    for i in split.train.history_items(user_idx).tolist()}
        assert not recommended & hist_ids

    def test_unknown_user_lists_id_space(self, workdir, capsys):
        split = load_split(workdir / "sp")
        cfg = ModelConfig(variant=Variant.FISM, k=4)
        params = init_params(cfg, split.train.num_users,
                             split.train.num_items, rng_from_seed(0))
        save_checkpoint(workdir / "f.ckpt", params, cfg)
        rc = main(["recommend", "nobody", "--checkpoint",
                   str(workdir / "f.ckpt"), "--split", str(workdir / "sp")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown user 'nobody'" in err
        assert "u0" in err

    def test_user_holding_every_item_is_an_error(self, workdir, capsys,
                                                 monkeypatch):
        # a saved split cannot hold one, since its test item lies outside
        # the history; an in-memory split can
        split = load_split(workdir / "sp")
        train = split.train
        every = np.arange(train.num_items)
        full = InteractionDataset(
            train.user_ids, train.item_ids,
            [every, *train.item_arrays()[1:]],
            [every] + [train.history_times(u)
                       for u in range(1, train.num_users)])
        monkeypatch.setattr(data, "load_split", lambda prefix:
                            dataclasses.replace(split, train=full))
        cfg = ModelConfig(variant=Variant.FISM, k=4)
        save_checkpoint(workdir / "f.ckpt", init_params(
            cfg, train.num_users, train.num_items, rng_from_seed(0)), cfg)
        rc = main(["recommend", train.user_ids[0], "--checkpoint",
                   str(workdir / "f.ckpt"), "--split", str(workdir / "sp")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"user {train.user_ids[0]!r} interacted with every item" in err

    def test_shape_mismatch_names_both_shapes(self, workdir, capsys):
        split = load_split(workdir / "sp")
        cfg = ModelConfig(variant=Variant.FISM, k=4)
        save_checkpoint(workdir / "tiny.ckpt",
                        init_params(cfg, 3, 5, rng_from_seed(0)), cfg)
        rc = main(["recommend", split.train.user_ids[0], "--checkpoint",
                   str(workdir / "tiny.ckpt"), "--split", str(workdir / "sp")])
        assert rc == 1
        assert (f"checkpoint is for 3 users x 5 items, split has"
                f" {split.train.num_users} x {split.train.num_items}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_rejected_before_printing(self, workdir, capsys, k):
        split = load_split(workdir / "sp")
        cfg = ModelConfig(variant=Variant.FISM, k=4)
        params = init_params(cfg, split.train.num_users,
                             split.train.num_items, rng_from_seed(0))
        save_checkpoint(workdir / "f.ckpt", params, cfg)
        rc = exit_code(["recommend", split.train.user_ids[0], "--checkpoint",
                        str(workdir / "f.ckpt"), "--split", str(workdir / "sp"),
                        "--k", k])
        assert rc != 0
        out, err = capsys.readouterr()
        assert out == ""
        assert "--k" in err


def package_env():
    """The environment for a child Python that imports this checkout's
    ``deepicf`` and the tests' helpers, which pytest's ``pythonpath``
    setting puts on the path of its own process only."""
    tests_dir = Path(__file__).resolve().parent
    src_dir = Path(deepicf.__file__).resolve().parents[1]
    path = [str(src_dir), str(tests_dir), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_console_entry_point_subprocess(tmp_path):
    log = tmp_path / "log.tsv"
    log.write_text("\n".join(synthetic_lines(num_users=20, num_items=300,
                                             seed=3)) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "deepicf", "split", str(log),
         "--split", str(tmp_path / "sp"), "--seed", "1"],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sp.train").is_file()
    proc = subprocess.run([sys.executable, "-m", "deepicf", "eval",
                           "--split", str(tmp_path / "sp"),
                           "--scorer", "itempop"],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("HR@10=")


NO_SCIPY_SCRIPT = """\
import sys
sys.modules["scipy"] = None          # any later `import scipy` fails
import deepicf as d
from conftest import synthetic_dataset

split = d.leave_one_out_split(synthetic_dataset(), seed=3)
# histories of 5 to 11 of 60 items: the ItemKNN fit counts users both ways
log = synthetic_dataset(num_items=60)
dense = d.evaluation.dense_users([h.size for h in log.item_arrays()], 60)
assert dense.any() and not dense.all()
d.ItemKnnModel(log)
config = d.ModelConfig(variant="DeepICF_A", k=4, k_prime=3, num_layers=1,
                       epochs=1, batch_size=8, eval_every=1)
params, report = d.fit(config, split)
assert len(report.epochs) == 1
assert sys.modules["scipy"] is None
print("ok")
"""


def test_package_runs_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                          capture_output=True, text=True, env=package_env(),
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize("name", ["log.tsv", "model.cfg", "sp.idmap",
                                  "sp.train", "sp.test", "sp.negatives"])
def test_non_utf8_byte_names_file_and_line(workdir, capsys, name):
    path = workdir / name
    lines = path.read_bytes().split(b"\n")
    lines[2] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    argv = {"log.tsv": ["split", str(path), "--split", str(workdir / "sp2")],
            "model.cfg": ["train", "--config", str(path), "--split",
                          str(workdir / "sp"), "--checkpoint",
                          str(workdir / "m.ckpt")],
            }.get(name, ["eval", "--split", str(workdir / "sp"),
                         "--scorer", "itempop"])
    assert main(argv) == 1
    assert f"{name}: line 3: not UTF-8 text" in capsys.readouterr().err


class TestMetricsCsv:
    def test_non_utf8_metrics_file_names_the_file(self, workdir, capsys):
        csv_path = workdir / "m.csv"
        csv_path.write_bytes(b"\xff\xfeepoch\n")
        rc = main(["train", "--config", str(workdir / "model.cfg"),
                   "--split", str(workdir / "sp"),
                   "--checkpoint", str(workdir / "m.ckpt"),
                   "--metrics", str(csv_path)])
        assert rc == 1
        assert f"{csv_path}: line 1: not UTF-8 text" in capsys.readouterr().err
        assert csv_path.read_bytes() == b"\xff\xfeepoch\n"

    def test_eval_every_populates_columns_and_appends(self, workdir):
        cfg_file = workdir / "ev.cfg"
        cfg_file.write_text(BASE_CONFIG.replace("epochs = 3", "epochs = 2")
                            + "eval_every = 1\n")
        csv_path = workdir / "ev.csv"
        for _ in range(2):
            rc = main(["train", "--config", str(cfg_file),
                       "--split", str(workdir / "sp"),
                       "--checkpoint", str(workdir / "ev.ckpt"),
                       "--metrics", str(csv_path)])
            assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "epoch,loss,hr10,ndcg10,seconds"
        assert len(lines) == 5  # one header, two runs of two epochs
        assert sum(l.startswith("epoch,") for l in lines) == 1
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[2] != "" and fields[3] != ""
            assert 0.0 <= float(fields[3]) <= float(fields[2]) <= 1.0
