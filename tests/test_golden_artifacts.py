"""Golden digests: the CLI pipeline's artifacts keep their bytes.

A small fixed-seed toy world goes through tokenize (with --out-trace), every
collision policy (with the occupancy line it prints) and eval-sid --csv, for
the two quantizer kinds whose output involves no autodiff matrix products
(rqkmeans and random); rqvae and multivq train through matmuls whose last
bits may vary between BLAS builds.
The rqkmeans assignment then goes through retrieval: build-pretrain-corpus,
train-scorer, retrieve and eval-hr --out.
Each artifact's sha256 must equal the digest recorded below, so a faster
kernel that changes any decision, value or written float fails here.

After an intended output change, `pytest -vv` on this file shows the new
digests in the failure diff; record them and say in CHANGES.md why the bytes
moved.
"""

import hashlib

import pytest

from sidkit.cli import EXIT_DATA, EXIT_OK, main

LEVELS = "8,8,4"

INPUT_DIGESTS = {
    "catalog.tsv": "f997fb5cfd6b52cd6ea38a18d1ba870f9a509d645442bf7d25af405fb189c75e",
    "labels.tsv": "c03cb9468fbf30e155483da13effbaf6d8fa83ce5527ffdac25bf4479f1c5e8a",
}

GOLDEN = {
    "rqkmeans": {
        "raw.tsv": "df670a9729a1bd6358383fc68a77d755f2e862a7d01264e04716f0c2bffe79b6",
        "model.tsv": "ce23f5c1b948045c98bb30b171a9eebdca7923e03e828382ec9607c841b9a016",
        "trace.csv": "839977e56cc3ae1c609d20aae9cea8ad1c9f7119c22fe6e50ef6a841078524fd",
        "noco.tsv": "df670a9729a1bd6358383fc68a77d755f2e862a7d01264e04716f0c2bffe79b6",
        "knn.tsv": "0ac215082b18fcb42f5810c2a08d4a42857fdc94f4a2ffa474b3f53f12e94078",
        "random.tsv": "590a8afc4f50514bc86620e705aaf79bfdccd41dc4acc26ef6a07e7601480a07",
        "merge.tsv": "e5d52c434c3c621307c43822e82b1cbc6013473c463683d6737b87ecca2e976f",
        "eval_raw.csv": "2d730b1d88fdeca76d50955135589a0017291911bc58c05e0521ac9cfe11fdba",
        "eval_noco.csv": "2d730b1d88fdeca76d50955135589a0017291911bc58c05e0521ac9cfe11fdba",
        "eval_knn.csv": "af1475c3e2272e2064d52de8c9a8d414b278093068a1d6d1a193c999487a73c7",
        "eval_random.csv": "f6616801e1b741d3bbb66fbad6bcb1fb933c37e0d99e7762c08bce031c8f3c4d",
        "eval_merge.csv": "f2ba999f38ea8ff588ba1f39d4a80d79b424baba798a20ccf92452fb3e74a910",
        "collide_noco.stdout": "af804b6d12e7c6fbf338cda09a76d1bd089a90075149acd051d16b6ed4bfb75f",
        "collide_knn.stdout": "a4db3582a3f81ce49ef6c0e65aea959d0e920a9f203a1b3bf9a24152dd56112a",
        "collide_random.stdout": "6853515dc5c9a6984d29c9658005a989da8afa070d52ea50bf3b23fcb1d33a3b",
        "collide_merge.stdout": "9b232211682e0204250f2d50553d5979aeb6d942b786752cc7735c5434e2e6a8",
    },
    # knn and random policies rank codewords by content, which the random
    # baseline has none of: both exit as data errors
    "random": {
        "raw.tsv": "3dde369ba4cefb89a80f036df4ea1b4f0f4f015689fabfe58eeff48a98e70b95",
        "model.tsv": "e4fbc42e1a692f902d8a3aa7561dc00c041c931c6540d4144e0142d2c1c528ef",
        "trace.csv": "5d46c279fa578f5e3eaf5d6667b1b956b1a400e314d83e1756baa580f5297e80",
        "noco.tsv": "3dde369ba4cefb89a80f036df4ea1b4f0f4f015689fabfe58eeff48a98e70b95",
        "merge.tsv": "aba322ef4bd04b1bb47e3ec60efa809c1c6314233af9e61f2ea89b2b8d9c77e7",
        "eval_raw.csv": "0441018d3cbcb250adc5b99a8c4fe86d154a7fceecce2054944edb6655206dea",
        "eval_noco.csv": "0441018d3cbcb250adc5b99a8c4fe86d154a7fceecce2054944edb6655206dea",
        "eval_merge.csv": "fef2796bceed46d2e23895f19cd057771a791fc5b10e845aae00b8b4b6fa12fc",
        "collide_noco.stdout": "8db32deef6f290f3a6aac2bed73d56e07cd86f3b9134f8aa5d663b39fd474dbb",
        "collide_merge.stdout": "5944651e3437a5307443461f5dc655b0dc06d2be181260588179c21d5c63c716",
        "knn.tsv": EXIT_DATA,
        "random.tsv": EXIT_DATA,
    },
}


# Printed output is pinned as "<command>.stdout".  The narrow beam 2,4,4 on
# the unseen context C0C8C16 has tied scores straddling the cut at every
# level, so it pins which of the tied candidates a level keeps.
RETRIEVE_RUNS = {
    "retrieve_default": ["--context", "C3C12C17", "--k", "1200"],
    "retrieve_full_k": ["--context", "C3C12C17", "--beam", "4,16,32", "--k", "32"],
    "retrieve_ties": ["--context", "C0C8C16", "--beam", "2,4,4", "--k", "4"],
    "retrieve_ties_k2": ["--context", "C0C8C16", "--beam", "2,4,4", "--k", "2"],
}

EVAL_HR_RUNS = {
    "hr_default.csv": ["--k", "1,5,20,100"],
    "hr_narrow.csv": ["--beam", "4,8,16", "--k", "1,5,16"],
}

RETRIEVAL_GOLDEN = {
    "build-pretrain-corpus.stdout": "97117760c273052821a3fd504a93a71df254f2be2225ab8247801977ff8c6af0",
    "corpus.txt": "bfc83691a47618079767210d6867b4a7b39ca4b58b2a2a188b82f22a57627410",
    "train-scorer.stdout": "7b73e8df88d8505346d32b64ab7fe66ea50881f76426b7e949d75ef6a1375707",
    "scorer.tsv": "2b157f0829963d215804b2b4e0c0b89626dc59c2fcc9af3277cf9ee66ed72cd0",
    "retrieve_default.stdout": "f23977b5a3b104361d0309be17edcd25f0c83918ed27152924dec486cd62c86e",
    "retrieve_full_k.stdout": "b4d969536447979586be3489b7febbd5310af24dfa981d66f49370c03429e9df",
    "retrieve_ties.stdout": "ac93386d9c6165a12ecffdc51ce69a848a58561a0398266deda7ca00176743c4",
    "retrieve_ties_k2.stdout": "9d6c120351450388a822fe270897f8d954c6f4daca06cead2bbf919afe0f7046",
    "hr_default.csv": "b7e1403115560e18c000dd3427d5e884c05002661060e24d2e32acd77480184b",
    "hr_narrow.csv": "4bc5887258b9220b8c1ec36971ac15769817f76fe259d4ed319dbeead27411f2",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_world")
    code = main(
        [
            "gen-toy", "--items", "400", "--clusters", "8", "--d-in", "8",
            "--train-sequences", "40", "--eval-sequences", "10",
            "--seed", "3", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


def _stdout_sha256(capsys) -> str:
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _run_pipeline(world, work, kind, capsys) -> dict[str, str]:
    """Every artifact of one kind's pipeline, by file name -> sha256, and
    each collide's printed output as "collide_<policy>.stdout"; a policy the
    kind cannot run maps to its exit code instead."""
    base = ["--catalog", str(world / "catalog.tsv"), "--d-in", "8"]
    assert main(
        [
            "tokenize", *base, "--levels", LEVELS, "--code-dim", "8",
            "--kind", kind, "--seed", "5", "--iters", "20",
            "--out-assignment", str(work / "raw.tsv"),
            "--out-model", str(work / "model.tsv"),
            "--out-trace", str(work / "trace.csv"),
        ]
    ) == EXIT_OK
    capsys.readouterr()
    model = ["--model", str(work / "model.tsv")]
    produced = ["raw.tsv", "model.tsv", "trace.csv"]
    codes, printed = {}, {}
    policies = {
        "noco": [],
        "knn": ["--sigma", "2"],
        "random": [],
        "merge": ["--merge-threshold", "3", "--assignment", str(work / "raw.tsv")],
    }
    for policy, extra in policies.items():
        name = f"{policy}.tsv"
        code = main(
            ["collide", *base, *model, "--policy", policy, *extra, "--out", str(work / name)]
        )
        if code == EXIT_OK:
            produced.append(name)
            printed[f"collide_{policy}.stdout"] = _stdout_sha256(capsys)
        else:
            codes[name] = code
    for name in [n for n in produced if n.endswith(".tsv") and n != "model.tsv"]:
        csv_name = f"eval_{name[:-4]}.csv"
        assert main(
            [
                "eval-sid", *base, *model, "--assignment", str(work / name),
                "--labels", str(world / "labels.tsv"), "--csv", str(work / csv_name),
            ]
        ) == EXIT_OK
        produced.append(csv_name)
    digests = {name: _sha256(work / name) for name in produced}
    digests.update(codes, **printed)
    return digests


def test_toy_world_inputs_are_unchanged(world):
    assert {name: _sha256(world / name) for name in INPUT_DIGESTS} == INPUT_DIGESTS


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_pipeline_artifacts_match_golden_digests(world, tmp_path, kind, capsys):
    assert _run_pipeline(world, tmp_path, kind, capsys) == GOLDEN[kind]



def _run_retrieval(world, work, capsys) -> dict[str, str]:
    """sha256 of every retrieval artifact and printed output, by name."""
    levels = ["--levels", LEVELS]
    structure = [*levels, "--code-dim", "8"]
    assert main(
        [
            "tokenize", "--catalog", str(world / "catalog.tsv"), "--d-in", "8", *structure,
            "--kind", "rqkmeans", "--seed", "5", "--iters", "20",
            "--out-assignment", str(work / "raw.tsv"), "--out-model", str(work / "model.tsv"),
        ]
    ) == EXIT_OK
    capsys.readouterr()
    digests = {}

    def run(name, argv):
        assert main(argv) == EXIT_OK
        digests[f"{name}.stdout"] = _stdout_sha256(capsys)

    sequences = ["--sequences", str(world / "train_sequences.tsv")]
    assignment = ["--assignment", str(work / "raw.tsv")]
    run("build-pretrain-corpus", [
        "build-pretrain-corpus", *levels, *sequences, *assignment,
        "--out", str(work / "corpus.txt"),
    ])
    run("train-scorer", [
        "train-scorer", *structure, "--corpus", str(work / "corpus.txt"), "--order", "2",
        "--out", str(work / "scorer.tsv"),
    ])
    scorer = ["--scorer", str(work / "scorer.tsv")]
    for name, extra in RETRIEVE_RUNS.items():
        run(name, ["retrieve", *scorer, *extra])
    for name, extra in EVAL_HR_RUNS.items():
        assert main([
            "eval-hr", *scorer, *assignment, "--sequences", str(world / "eval_sequences.tsv"),
            *extra, "--out", str(work / name),
        ]) == EXIT_OK
    for name in ("corpus.txt", "scorer.tsv", *EVAL_HR_RUNS):
        digests[name] = _sha256(work / name)
    return digests


def test_retrieval_artifacts_match_golden_digests(world, tmp_path, capsys):
    assert _run_retrieval(world, tmp_path, capsys) == RETRIEVAL_GOLDEN
