"""Command-line interface: full pipeline, exit codes, output formats."""

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sidkit.catalog import SidStructure, load_item_catalog
from sidkit.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from sidkit.quantizer import RqvaeConfig, train_rqvae


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    code = main(
        [
            "gen-toy", "--items", "200", "--clusters", "5", "--d-in", "8",
            "--train-sequences", "100", "--eval-sequences", "30",
            "--history-len", "3", "--targets", "2", "--seed", "0",
            "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def pipeline(toy_dir, tmp_path_factory):
    """gen-toy output taken through tokenize, collide, corpus, scorer."""
    work = tmp_path_factory.mktemp("work")
    base = [
        "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
    ]
    code = main(
        [
            "tokenize", *base, "--levels", "5,4", "--code-dim", "8",
            "--kind", "rqkmeans", "--seed", "0", "--iters", "50",
            "--out-assignment", str(work / "raw.tsv"),
            "--out-model", str(work / "model.tsv"),
            "--out-trace", str(work / "trace.csv"),
        ]
    )
    assert code == EXIT_OK
    code = main(
        [
            "collide", *base, "--model", str(work / "model.tsv"),
            "--policy", "knn", "--sigma", "15", "--out", str(work / "knn.tsv"),
        ]
    )
    assert code == EXIT_OK
    code = main(
        [
            "build-pretrain-corpus", "--levels", "5,4",
            "--sequences", str(toy_dir / "train_sequences.tsv"),
            "--assignment", str(work / "knn.tsv"),
            "--out", str(work / "corpus.txt"),
        ]
    )
    assert code == EXIT_OK
    code = main(
        [
            "train-scorer", "--levels", "5,4", "--code-dim", "8",
            "--corpus", str(work / "corpus.txt"),
            "--order", "2", "--out", str(work / "scorer.tsv"),
        ]
    )
    assert code == EXIT_OK
    return work


class TestGenToy:
    def test_writes_all_four_files(self, toy_dir):
        for name in ("catalog.tsv", "train_sequences.tsv", "eval_sequences.tsv", "labels.tsv"):
            assert (toy_dir / name).exists()

    def test_row_counts_match_request(self, toy_dir):
        assert len((toy_dir / "catalog.tsv").read_text().splitlines()) == 200
        assert len((toy_dir / "train_sequences.tsv").read_text().splitlines()) == 100
        assert len((toy_dir / "eval_sequences.tsv").read_text().splitlines()) == 30

    @pytest.mark.parametrize("bad", [
        (["--d-in", "0"], "d_in and n_targets must be at least 1"),
        (["--targets", "0"], "d_in and n_targets must be at least 1"),
        (["--history-len", "-1"], "history_len must be in [0, 100]"),
        (["--history-len", "101"], "history_len must be in [0, 100]"),
        (["--train-sequences", "-1"], "sequence counts must be non-negative"),
        (["--eval-sequences", "-1"], "sequence counts must be non-negative"),
        (["--items", "1"], "need at least one item per cluster"),
        (["--clusters", "1"], "the transition ring needs at least 2 clusters"),
    ])
    def test_counts_that_make_a_bad_world_are_usage_errors(self, bad, tmp_path, capsys):
        options, message = bad
        out = tmp_path / "toy"
        argv = ["gen-toy", "--items", "20", "--clusters", "2", "--seed", "0", "--out-dir", str(out)]
        assert main(argv + options) == EXIT_USAGE
        assert capsys.readouterr().err == f"sidkit: invalid arguments: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("history_len", ["0", "100"])
    def test_history_len_bounds_are_accepted(self, history_len, tmp_path, capsys):
        assert main(["gen-toy", "--items", "20", "--clusters", "2", "--seed", "0",
                     "--train-sequences", "3", "--eval-sequences", "2",
                     "--history-len", history_len, "--out-dir", str(tmp_path)]) == EXIT_OK


class TestPipelineArtifacts:
    def test_assignment_covers_every_item(self, pipeline):
        lines = (pipeline / "knn.tsv").read_text().splitlines()
        assert len(lines) == 200
        assert all(re.match(r"^item\d{5}\t\[\d+,\d+\]$", line) for line in lines)

    def test_trace_is_per_level_objective(self, pipeline):
        lines = (pipeline / "trace.csv").read_text().splitlines()
        assert lines[0] == "level,step,objective"
        assert len(lines) > 2

    def test_corpus_streams_are_whole_sids(self, pipeline):
        for line in (pipeline / "corpus.txt").read_text().splitlines():
            tokens = line.split(",")
            assert len(tokens) % 2 == 0  # two levels per item

    def test_tokenize_is_deterministic(self, pipeline, toy_dir, tmp_path):
        code = main(
            [
                "tokenize", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                "--levels", "5,4", "--code-dim", "8", "--kind", "rqkmeans",
                "--seed", "0", "--iters", "50",
                "--out-assignment", str(tmp_path / "raw.tsv"),
                "--out-model", str(tmp_path / "model.tsv"),
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "raw.tsv").read_bytes() == (pipeline / "raw.tsv").read_bytes()
        assert (tmp_path / "model.tsv").read_bytes() == (pipeline / "model.tsv").read_bytes()


class TestEvalHr:
    def test_csv_shape_and_monotonicity(self, pipeline, toy_dir, tmp_path):
        out = tmp_path / "hr.csv"
        code = main(
            [
                "eval-hr", "--scorer", str(pipeline / "scorer.tsv"),
                "--assignment", str(pipeline / "knn.tsv"),
                "--sequences", str(toy_dir / "eval_sequences.tsv"),
                "--beam", "10,20", "--k", "1,5,20", "--stage", "eval",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "stage,k,hr"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["eval"] * 3
        assert [int(r[1]) for r in rows] == [1, 5, 20]
        rates = [float(r[2]) for r in rows]
        assert all(0.0 <= r <= 1.0 for r in rates)
        assert rates == sorted(rates)

    def test_stdout_when_no_out_file(self, pipeline, toy_dir, capsys):
        code = main(
            [
                "eval-hr", "--scorer", str(pipeline / "scorer.tsv"),
                "--assignment", str(pipeline / "knn.tsv"),
                "--sequences", str(toy_dir / "eval_sequences.tsv"),
                "--beam", "10,20", "--k", "5", "--stage", "smoke",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "stage,k,hr"
        assert lines[1].startswith("smoke,5,")


class TestRetrieve:
    def test_csv_output_shape(self, pipeline, capsys):
        code = main(
            [
                "retrieve", "--scorer", str(pipeline / "scorer.tsv"),
                "--beam", "10,20", "--k", "5",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank,sid,log_prob"
        assert len(lines) == 6
        for rank, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert int(fields[0]) == rank
            assert re.match(r"^C\d+C\d+$", fields[1])
            float(fields[2])

    def test_context_forms_agree(self, pipeline, capsys):
        args = [
            "retrieve", "--scorer", str(pipeline / "scorer.tsv"),
            "--beam", "10,20", "--k", "3",
        ]
        assert main([*args, "--context", "C0C5"]) == EXIT_OK
        from_sid_string = capsys.readouterr().out
        assert main([*args, "--context", "0,5"]) == EXIT_OK
        from_tokens = capsys.readouterr().out
        assert from_sid_string == from_tokens

    def test_partial_sid_context_rejected(self, pipeline, capsys):
        code = main(
            [
                "retrieve", "--scorer", str(pipeline / "scorer.tsv"),
                "--beam", "10,20", "--k", "3", "--context", "C0",
            ]
        )
        assert code == EXIT_DATA

    def test_partial_token_context_rejected(self, pipeline, capsys):
        code = main(
            [
                "retrieve", "--scorer", str(pipeline / "scorer.tsv"),
                "--beam", "10,20", "--k", "3", "--context", "0",
            ]
        )
        assert code == EXIT_DATA
        assert "whole number of SIDs" in capsys.readouterr().err

    @pytest.mark.parametrize("context", ["5,5,5", "C5C5C5"])
    def test_out_of_band_context_rejected_in_either_form(self, context, tmp_path, capsys):
        scorer = tmp_path / "scorer.tsv"
        scorer.write_text("#order\t2\n#alpha\t0.1\n#levels\t4\t4\t4\n#code_dim\t2\n")
        code = main(["retrieve", "--scorer", str(scorer), "--k", "3", "--context", context])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert "token 5 at position 0 is outside level 0's band" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("context", [
        "1_0,16,32", "10,+16,32", "10, 16,32", "\u0661\u0660,16,32", "C\u0661\u0660C16C32",
        "C10C16C\uff13\uff12", "10,,16,32", "10,16,32,", ",10,16,32",
    ])
    def test_context_tokens_must_be_ascii_digits(self, context, tmp_path, capsys):
        """Each spelling int() would read as 10,16,32, empty tokens dropped,
        which decodes."""
        scorer = tmp_path / "scorer.tsv"
        scorer.write_text("#order\t2\n#alpha\t0.1\n#levels\t16\t16\t16\n#code_dim\t2\n")
        argv = ["retrieve", "--scorer", str(scorer), "--k", "3", "--context"]
        assert main([*argv, "10,16,32"]) == EXIT_OK
        assert main([*argv, "C10C16C32"]) == EXIT_OK
        capsys.readouterr()
        assert main([*argv, context]) == EXIT_DATA
        captured = capsys.readouterr()
        assert f"cannot parse context {context!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_rejected(self, k, pipeline, capsys):
        code = main(
            ["retrieve", "--scorer", str(pipeline / "scorer.tsv"), "--beam", "10,20", "--k", k]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"k={k} must be positive" in captured.err
        assert captured.out == ""


class TestEvalSid:
    def test_prints_metric_table_and_csv(self, pipeline, toy_dir, tmp_path, capsys):
        csv_path = tmp_path / "metrics.csv"
        code = main(
            [
                "eval-sid", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                "--assignment", str(pipeline / "knn.tsv"),
                "--model", str(pipeline / "model.tsv"),
                "--labels", str(toy_dir / "labels.tsv"),
                "--sequences", str(toy_dir / "eval_sequences.tsv"),
                "--k", "5", "--csv", str(csv_path),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for name in ("gini", "utilization_pct", "style_consistency_pct",
                     "origin_consistency_pct", "embedding_hr@5"):
            assert name in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "metric,value"
        values = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
        assert 0.0 <= values["gini"] < 1.0
        assert 0.0 < values["utilization_pct"] <= 100.0

    def test_csv_to_redirected_stdout_follows_the_table(self, pipeline, toy_dir, tmp_path):
        """`--csv /dev/stdout > out.csv` leaves the printed table, then the
        CSV, in the file, as a terminal shows them."""
        out = tmp_path / "out.csv"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        with open(out, "w") as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "sidkit.cli", "eval-sid",
                 "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                 "--assignment", str(pipeline / "knn.tsv"), "--levels", "5,4",
                 "--csv", "/dev/stdout"],
                stdout=fh, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        cut = lines.index("metric,value")
        names = [line.split()[0] for line in lines[:cut]]
        assert names[0] == "gini" and names == [line.split(",")[0] for line in lines[cut + 1 :]]

    def test_occupied_only_changes_the_gini_alone(self, pipeline, toy_dir, tmp_path, capsys):
        """With --occupied-only every utilization row equals the plain run's,
        and the Gini is a dense Gini over the occupied SIDs alone.  The 16x16
        space leaves most SIDs empty, so both figures move if the flag
        shrinks the space they read."""
        argv = ["eval-sid", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                "--assignment", str(pipeline / "knn.tsv"), "--levels", "16,16"]
        plain, occupied = tmp_path / "plain.csv", tmp_path / "occupied.csv"
        assert main([*argv, "--csv", str(plain)]) == EXIT_OK
        assert main([*argv, "--occupied-only", "--csv", str(occupied)]) == EXIT_OK
        plain, occupied = ({name: float(value) for name, value in
                            (line.split(",") for line in path.read_text().splitlines()[1:])}
                           for path in (plain, occupied))
        assert plain["utilization_pct"] < 100.0
        assert {name: v for name, v in occupied.items() if name != "gini"} == \
            {name: v for name, v in plain.items() if name != "gini"}
        sids = Counter(line.split("\t")[1] for line in
                       (pipeline / "knn.tsv").read_text().splitlines())
        x = np.sort(np.array(list(sids.values()), dtype=np.float64))
        i = np.arange(1, len(x) + 1)
        dense = 2.0 * (i * x).sum() / (len(x) * x.sum()) - (len(x) + 1) / len(x)
        assert occupied["gini"] == pytest.approx(dense, abs=1e-12)
        assert occupied["gini"] < plain["gini"]

    def test_levels_flag_replaces_model(self, pipeline, toy_dir, capsys):
        code = main(
            [
                "eval-sid", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                "--assignment", str(pipeline / "knn.tsv"), "--levels", "5,4",
            ]
        )
        assert code == EXIT_OK
        assert "gini" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval-sid", "build-pretrain-corpus"])
    def test_code_dim_is_not_an_option(self, command, pipeline, toy_dir, tmp_path, capsys):
        """Neither command reads a codeword dimension, so neither takes one."""
        out = tmp_path / "out.txt"
        argv = {
            "eval-sid": ["eval-sid", "--catalog", toy_dir / "catalog.tsv", "--d-in", "8",
                         "--assignment", pipeline / "knn.tsv", "--csv", out],
            "build-pretrain-corpus": ["build-pretrain-corpus", "--out", out,
                                      "--sequences", toy_dir / "train_sequences.tsv",
                                      "--assignment", pipeline / "knn.tsv"],
        }[command]
        assert main([str(a) for a in (*argv, "--levels", "5,4", "--code-dim", "8")]) == EXIT_USAGE
        assert "unrecognized arguments: --code-dim 8" in capsys.readouterr().err
        assert not out.exists()

    def test_levels_that_disagree_with_the_model_are_rejected(self, pipeline, toy_dir, capsys):
        """--levels must name the model's structure when both are given; the
        message names both.  Agreeing levels change nothing."""
        base = ["eval-sid", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                "--assignment", str(pipeline / "knn.tsv"), "--model", str(pipeline / "model.tsv")]
        assert main(base + ["--levels", "9,9,9"]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"sidkit: data error: --levels 9,9,9 disagrees with the levels 5,4 of "
            f"--model {pipeline / 'model.tsv'}\n")
        assert main(base) == EXIT_OK
        alone = capsys.readouterr().out
        assert main(base + ["--levels", "5,4"]) == EXIT_OK
        assert capsys.readouterr().out == alone

    def test_malformed_levels_are_a_usage_error(self, pipeline, toy_dir, capsys):
        code = main(["eval-sid", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                     "--assignment", str(pipeline / "knn.tsv"), "--levels", "5,x"])
        assert code == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err

    def test_structure_required(self, pipeline, toy_dir, capsys):
        code = main(
            [
                "eval-sid", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                "--assignment", str(pipeline / "knn.tsv"),
            ]
        )
        assert code == EXIT_DATA


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(
            [
                "train-scorer", "--levels", "4,4", "--code-dim", "4",
                "--corpus", str(tmp_path / "absent.txt"),
                "--out", str(tmp_path / "scorer.tsv"),
            ]
        )
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_missing_required_argument_is_usage_error(self, capsys):
        assert main(["tokenize"]) == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_choice_is_usage_error(self, toy_dir, tmp_path, capsys):
        code = main(
            [
                "tokenize", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                "--levels", "4,4", "--kind", "quantum", "--seed", "0",
                "--out-assignment", str(tmp_path / "a.tsv"),
                "--out-model", str(tmp_path / "m.tsv"),
            ]
        )
        assert code == EXIT_USAGE

    def test_train_scorer_needs_a_source(self, tmp_path, capsys):
        code = main(
            [
                "train-scorer", "--levels", "4,4", "--code-dim", "4",
                "--out", str(tmp_path / "scorer.tsv"),
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("other", [["--sequences"], ["--assignment"],
                                       ["--sequences", "--assignment"]])
    def test_train_scorer_takes_one_source(self, other, pipeline, tmp_path, capsys):
        """--corpus with --sequences or --assignment exits 2 naming both
        sources, even when the other file does not exist, and writes nothing."""
        out = tmp_path / "scorer.tsv"
        missing = tmp_path / "nonexistent.tsv"
        argv = ["train-scorer", "--levels", "5,4", "--code-dim", "8",
                "--corpus", str(pipeline / "corpus.txt"), "--out", str(out)]
        for flag in other:
            argv += [flag, str(missing)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"--corpus {pipeline / 'corpus.txt'}" in err
        assert all(f"{flag} {missing}" in err for flag in other)
        assert not out.exists()

    def test_catalog_narrower_than_kmeans_model_is_data_error(
        self, pipeline, tmp_path, capsys
    ):
        narrow = tmp_path / "narrow"
        assert main(["gen-toy", "--items", "200", "--d-in", "6", "--seed", "0",
                     "--out-dir", str(narrow)]) == EXIT_OK
        code = main(
            [
                "collide", "--catalog", str(narrow / "catalog.tsv"), "--d-in", "6",
                "--model", str(pipeline / "model.tsv"), "--policy", "knn",
                "--out", str(tmp_path / "knn.tsv"),
            ]
        )
        assert code == EXIT_DATA
        assert "input width 6" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["knn", "random"])
    def test_rebuilding_policies_say_they_do_not_read_the_assignment(
        self, toy_dir, pipeline, tmp_path, capsys, policy
    ):
        """knn and random rebuild the raw table from the catalog and model:
        --assignment, even a file that is not there, is not read, and one
        stderr line says so.  The output equals the run without the flag."""
        base = ["collide", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                "--model", str(pipeline / "model.tsv"), "--policy", policy]
        missing = tmp_path / "missing.tsv"
        capsys.readouterr()
        assert main([*base, "--out", str(tmp_path / "plain.tsv")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert main([*base, "--assignment", str(missing),
                     "--out", str(tmp_path / "flagged.tsv")]) == EXIT_OK
        err = capsys.readouterr().err
        assert err == (f"sidkit: collide --policy {policy} does not read --assignment "
                       f"{missing}; it rebuilds the raw table from --catalog and --model\n")
        assert (tmp_path / "flagged.tsv").read_bytes() == (tmp_path / "plain.tsv").read_bytes()

    def test_catalog_narrower_than_rqvae_encoder_is_data_error(
        self, toy_dir, pipeline, tmp_path, capsys
    ):
        code = main(
            [
                "tokenize", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                "--levels", "5,4", "--code-dim", "4", "--kind", "rqvae", "--seed", "0",
                "--epochs", "1", "--warmup-epochs", "1", "--batch-size", "100",
                "--hidden-dims", "8",
                "--out-assignment", str(tmp_path / "raw.tsv"),
                "--out-model", str(tmp_path / "rqvae.tsv"),
            ]
        )
        assert code == EXIT_OK
        narrow = tmp_path / "narrow"
        assert main(["gen-toy", "--items", "200", "--d-in", "6", "--seed", "0",
                     "--out-dir", str(narrow)]) == EXIT_OK
        capsys.readouterr()
        code = main(
            [
                "eval-sid", "--catalog", str(narrow / "catalog.tsv"), "--d-in", "6",
                "--model", str(tmp_path / "rqvae.tsv"),
                "--assignment", str(tmp_path / "raw.tsv"),
            ]
        )
        assert code == EXIT_DATA
        assert "input width 6" in capsys.readouterr().err

    def test_garbled_model_float_names_its_line(self, toy_dir, pipeline, tmp_path, capsys):
        lines = (pipeline / "model.tsv").read_text().splitlines(keepends=True)
        lines[5] = lines[5].replace("\t", "x\t", 1)
        model = tmp_path / "model.tsv"
        model.write_text("".join(lines))
        code = main(
            [
                "collide", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                "--model", str(model), "--policy", "knn", "--out", str(tmp_path / "knn.tsv"),
            ]
        )
        assert code == EXIT_DATA
        assert f"{model}:6: " in capsys.readouterr().err

    def test_multivq_model_missing_an_encoder_is_data_error(self, toy_dir, tmp_path, capsys):
        base = ["--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8"]
        assert main(
            [
                "tokenize", *base, "--levels", "3,3,3", "--code-dim", "2", "--kind", "multivq",
                "--seed", "0", "--epochs", "1", "--warmup-epochs", "1", "--batch-size", "100",
                "--hidden-dims", "4", "--out-assignment", str(tmp_path / "raw.tsv"),
                "--out-model", str(tmp_path / "model.tsv"),
            ]
        ) == EXIT_OK
        text = (tmp_path / "model.tsv").read_text()
        (tmp_path / "model.tsv").write_text(text[: text.index("#mlp\tencoder2")])
        capsys.readouterr()
        code = main(["collide", *base, "--model", str(tmp_path / "model.tsv"),
                     "--policy", "knn", "--out", str(tmp_path / "knn.tsv")])
        assert code == EXIT_DATA
        assert "#mlp encoder2" in capsys.readouterr().err

    def test_out_of_band_scorer_row_is_data_error(self, tmp_path, capsys):
        scorer = tmp_path / "scorer.tsv"
        scorer.write_text("#order\t2\n#alpha\t0.1\n#levels\t4\t4\t4\n#code_dim\t2\n0\t999\t3\n")
        assert main(["retrieve", "--scorer", str(scorer), "--k", "3"]) == EXIT_DATA
        assert f"{scorer}:5: " in capsys.readouterr().err

    def test_scorer_structure_beyond_the_key_bound_is_data_error(self, tmp_path, capsys):
        scorer = tmp_path / "scorer.tsv"
        scorer.write_text("#order\t2\n#alpha\t0.1\n#levels\t4611686018427387904\t3\n"
                          "#code_dim\t2\n\t0\t5\n")
        assert main(["retrieve", "--scorer", str(scorer), "--k", "3"]) == EXIT_DATA
        assert f"{scorer}:5: the levels hold" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "eval-sid", "noco", "merge",  # --assignment vs --catalog
        "eval-hr", "build-pretrain-corpus", "train-scorer",  # --sequences vs --assignment
        "labels",  # eval-sid --labels vs --assignment
        "eval-sid-sequences",  # eval-sid --sequences vs --catalog
    ])
    def test_item_unknown_to_another_file(
        self, case, toy_dir, pipeline, tmp_path, capsys
    ):
        """Each cross-file rule exits 2 naming the file at fault, the owner,
        the item and the file that lacks it, and writes no output."""
        catalog, assignment = toy_dir / "catalog.tsv", pipeline / "knn.tsv"
        if case in ("eval-sid", "noco", "merge"):
            source, row, owner, lacking = assignment, "ghost\t[0,0]\n", "assignment", catalog
        elif case == "labels":
            source, row, lacking = toy_dir / "labels.tsv", "item00001\tghost\tstyle\n", assignment
            owner = "style pair ('item00001', 'ghost')"
        else:
            source, row = toy_dir / "eval_sequences.tsv", "pv9\tghost\t\titem00001\n"
            owner = "sequence 'pv9'"
            lacking = catalog if case == "eval-sid-sequences" else assignment
        bad = tmp_path / source.name
        bad.write_text(source.read_text() + row)
        out = tmp_path / "out.txt"
        base = ["--catalog", str(catalog), "--d-in", "8"]
        model = ["--model", str(pipeline / "model.tsv")]
        levels = ["--levels", "5,4"]
        argv = {
            "eval-sid": ["eval-sid", *base, *model, "--assignment", bad, "--csv", out],
            "noco": ["collide", *base, *model, "--assignment", bad, "--policy", "noco",
                     "--out", out],
            "merge": ["collide", *base, *model, "--assignment", bad, "--policy", "merge",
                      "--out", out],
            "eval-hr": ["eval-hr", "--scorer", pipeline / "scorer.tsv", "--beam", "10,20",
                        "--assignment", assignment, "--sequences", bad, "--out", out],
            "build-pretrain-corpus": ["build-pretrain-corpus", *levels,
                                      "--assignment", assignment, "--sequences", bad,
                                      "--out", out],
            "train-scorer": ["train-scorer", *levels, "--code-dim", "8",
                             "--assignment", assignment, "--sequences", bad, "--out", out],
            "labels": ["eval-sid", *base, *levels, "--assignment", assignment,
                       "--labels", bad, "--csv", out],
            "eval-sid-sequences": ["eval-sid", *base, *levels, "--assignment", assignment,
                                   "--sequences", bad, "--csv", out],
        }[case]
        assert main([str(a) for a in argv]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"sidkit: data error: {bad}: {owner} names item 'ghost', which is not in {lacking}\n")
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "tokenize" in capsys.readouterr().out


class TestArgumentLimits:
    """A setting that would build a wrong model, or a malformed number list,
    exits 1 before any output is written."""

    @pytest.mark.parametrize("kind, bad", [
        ("rqkmeans", ["--iters", "0"]), ("rqvae", ["--epochs", "-1"]),
        ("rqvae", ["--warmup-epochs", "-1"]), ("rqvae", ["--batch-size", "0"]),
        ("multivq", ["--batch-size", "0"]), ("rqvae", ["--hidden-dims", "0"]),
        ("multivq", ["--hidden-dims", "4,0"]), ("rqvae", ["--lr", "-1"]),
        ("rqvae", ["--lr", "nan"]),
    ])
    def test_training_settings_out_of_range(self, kind, bad, toy_dir, tmp_path, capsys):
        out = tmp_path / "model.tsv"
        code = main(["tokenize", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                     "--levels", "5,4", "--code-dim", "8", "--kind", kind, "--seed", "0",
                     "--epochs", "1", "--hidden-dims", "4", *bad,
                     "--out-assignment", str(tmp_path / "raw.tsv"), "--out-model", str(out)])
        assert code == EXIT_USAGE
        assert "sidkit: invalid arguments: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tokenize", "collide", "eval-sid"])
    @pytest.mark.parametrize("d_in", ["0", "-1"])
    def test_d_in_below_one(self, command, d_in, toy_dir, pipeline, tmp_path, capsys):
        out = tmp_path / "out.tsv"
        base = ["--catalog", str(toy_dir / "catalog.tsv"), "--d-in", d_in]
        model = ["--model", str(pipeline / "model.tsv")]
        argv = {
            "tokenize": ["tokenize", *base, "--levels", "5,4", "--kind", "rqkmeans",
                         "--seed", "0", "--out-assignment", out, "--out-model", out],
            "collide": ["collide", *base, *model, "--policy", "knn", "--out", out],
            "eval-sid": ["eval-sid", *base, *model, "--assignment", pipeline / "knn.tsv",
                         "--csv", out],
        }[command]
        assert main([str(a) for a in argv]) == EXIT_USAGE
        assert f"d_in must be at least 1, got {d_in}" in capsys.readouterr().err
        assert not out.exists()

    # each spelling of the list "a,b" that int() reads, or whose empty item it drops
    TYPOS = ["{a},,{b}", "{a},{b},", ",{a},{b}", "{a}, {b}", "{a},+{b}", "{a}_0,{b}",
             "{a},{wide}"]

    @pytest.mark.parametrize("option", ["--levels", "--beam", "--k", "--hidden-dims"])
    @pytest.mark.parametrize("typo", TYPOS)
    def test_malformed_number_list(self, option, typo, toy_dir, pipeline, tmp_path, capsys):
        out = tmp_path / "out.txt"
        a, b = {"--levels": ("5", "4"), "--beam": ("10", "20"), "--k": ("1", "5"),
                "--hidden-dims": ("8", "8")}[option]
        wide = b.translate({ord("0") + d: 0xFF10 + d for d in range(10)})  # fullwidth digits
        text = typo.format(a=a, b=b, wide=wide)
        if option in ("--levels", "--hidden-dims"):
            argv = ["tokenize", "--catalog", toy_dir / "catalog.tsv", "--d-in", "8",
                    "--levels", "5,4", "--code-dim", "8", "--seed", "0", "--epochs", "1",
                    "--kind", "rqvae", "--out-assignment", out, "--out-model", out, option, text]
        elif option == "--beam":
            argv = ["retrieve", "--scorer", pipeline / "scorer.tsv", "--k", "3", "--beam", text]
        else:
            argv = ["eval-hr", "--scorer", pipeline / "scorer.tsv", "--beam", "10,20",
                    "--assignment", pipeline / "knn.tsv",
                    "--sequences", toy_dir / "eval_sequences.tsv", "--out", out, "--k", text]
        assert main([str(x) for x in argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{text!r} is not a comma list of integers in ASCII digits" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        (["collide", "--sigma", "0"], "sigma must be >= 1"),
        (["collide", "--sigma", "-1"], "sigma must be >= 1"),
        (["eval-sid", "--k", "0"], "K must be >= 1"),
        (["retrieve", "--k", "21"], "k=21 exceeds the final beam width 20"),
        (["eval-hr", "--k", "0"], "K values must be positive"),
        (["retrieve", "--beam", ""], "beam widths must be positive"),
        (["eval-hr", "--beam", ""], "beam widths must be positive"),
    ])
    def test_typed_value_out_of_range(self, bad, message, toy_dir, pipeline, tmp_path, capsys):
        """A value out of range is a bad argument, whatever the files hold."""
        out = tmp_path / "out.csv"
        catalog = ["--catalog", toy_dir / "catalog.tsv", "--d-in", "8"]
        argv = {
            "collide": ["collide", *catalog, "--model", pipeline / "model.tsv",
                        "--policy", "knn", "--out", out],
            "eval-sid": ["eval-sid", *catalog, "--model", pipeline / "model.tsv",
                         "--assignment", pipeline / "knn.tsv",
                         "--sequences", toy_dir / "eval_sequences.tsv", "--csv", out],
            "retrieve": ["retrieve", "--scorer", pipeline / "scorer.tsv", "--beam", "10,20"],
            "eval-hr": ["eval-hr", "--scorer", pipeline / "scorer.tsv", "--beam", "10,20",
                        "--assignment", pipeline / "knn.tsv",
                        "--sequences", toy_dir / "eval_sequences.tsv", "--out", out],
        }[bad[0]]
        assert main([str(a) for a in argv + bad[1:]]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"sidkit: invalid arguments: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_empty_hidden_dims_and_context_stay_legal(self, toy_dir, pipeline, tmp_path):
        assert main(["tokenize", "--catalog", str(toy_dir / "catalog.tsv"), "--d-in", "8",
                     "--levels", "5,4", "--code-dim", "8", "--kind", "rqvae", "--seed", "0",
                     "--epochs", "1", "--hidden-dims", "",
                     "--out-assignment", str(tmp_path / "raw.tsv"),
                     "--out-model", str(tmp_path / "model.tsv")]) == EXIT_OK
        assert main(["retrieve", "--scorer", str(pipeline / "scorer.tsv"), "--k", "3",
                     "--context", ""]) == EXIT_OK


class TestRqvaeTokenize:
    """tokenize --kind rqvae on a 60-item world: its trace file, and a loss
    that diverges."""

    @pytest.fixture(scope="class")
    def small_toy(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("small_toy")
        assert main(["gen-toy", "--items", "60", "--clusters", "4", "--d-in", "4",
                     "--seed", "0", "--out-dir", str(out)]) == EXIT_OK
        return out

    @staticmethod
    def tokenize(small_toy, tmp_path, lr, *extra):
        return main(["tokenize", "--catalog", str(small_toy / "catalog.tsv"), "--d-in", "4",
                     "--kind", "rqvae", "--levels", "2,2", "--code-dim", "2",
                     "--hidden-dims", "8", "--epochs", "3", "--warmup-epochs", "0",
                     "--batch-size", "16", "--lr", lr, "--seed", "0",
                     "--out-model", str(tmp_path / "model.tsv"),
                     "--out-assignment", str(tmp_path / "raw.tsv"), *extra])

    def test_diverged_loss_exits_3_and_writes_nothing(self, small_toy, tmp_path, capsys):
        with np.errstate(all="ignore"):
            assert self.tokenize(small_toy, tmp_path, "1e300") == EXIT_NUMERIC
        assert ("sidkit: numeric failure: rqvae loss diverged at epoch 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "model.tsv").exists()
        assert not (tmp_path / "raw.tsv").exists()
        with np.errstate(all="ignore"):
            assert self.tokenize(small_toy, tmp_path, "1e30") == EXIT_OK

    def test_trace_holds_the_library_traces(self, small_toy, tmp_path):
        trace = tmp_path / "trace.csv"
        assert self.tokenize(small_toy, tmp_path, "0.01", "--out-trace", str(trace)) == EXIT_OK
        catalog = load_item_catalog(small_toy / "catalog.tsv", d_in=4)
        model = train_rqvae(catalog.embedding_matrix(), SidStructure((2, 2), code_dim=2),
                            RqvaeConfig(epochs=3, warmup_epochs=0, learning_rate=0.01,
                                        batch_size=16, hidden_dims=(8,), seed=0))
        header, *rows = trace.read_text().splitlines()
        assert header == "epoch,total_loss,recon_loss"
        assert len(rows) == 3 + 1
        assert rows == [f"{e},{total!r},{recon!r}" for e, (total, recon)
                        in enumerate(zip(model.loss_trace, model.recon_trace))]
