"""The three workloads: what each sets up, runs per pass, and checks.

Every workload drives sidkit the way a user does: ``sidkit.cli.main(argv)``
in this process for each CLI stage, with the files of the README walkthrough
between stages, and library calls where the CLI has no command (alignment
training and one-sequence HR queries).

- build: ID construction at 10k items, levels 64,64,64.  The quantizer's
  Lloyd iterations and the merge policy do most of the work.
- decode: generative retrieval at 5k items.  A Markov scorer is trained
  (the write path), then one client sends HR queries one after another.
- train: neural training at 2k items, levels 8,8,8.  The rqvae tokenizer and
  the projection trainer run on the autodiff engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from sidkit import alignment, catalog, cli, collision, quantizer, retrieval, sidmetrics

import checks
from inputs import World, WorldShape, sha256_file, write_world


class Ledger:
    """Operations and checks attempted, and why each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Pass:
    """One measured pass: seconds per stage, outputs, artifact digests."""

    stages: dict[str, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.stages.values()) + sum(self.latencies)


class Session:
    """Runs timed operations, inside ``stage.*`` spans while a tracer is set."""

    def __init__(self, ledger: Ledger, log):
        self.ledger = ledger
        self.log = log
        self.tracer = None

    def timed(self, stage: str, fn, *args):
        span = self.tracer.span(f"stage.{stage}") if self.tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - t0
        return result, seconds

    def cli(self, stage: str, argv: list[str]) -> float:
        """One ``sidkit`` command; a non-zero exit is a failed operation."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc, seconds = self.timed(stage, cli.main, [str(a) for a in argv])
        self.log.write(f"$ sidkit {' '.join(map(str, argv))}\n{buf.getvalue()}[exit {rc}]\n")
        self.ledger.check(rc == 0, f"sidkit {argv[0]} exited {rc}")
        return seconds


def digest_files(paths: dict[str, Path]) -> dict[str, str]:
    return {name: sha256_file(path) for name, path in paths.items()}


def _levels(sizes) -> str:
    return ",".join(str(n) for n in sizes)


def check_reload(ledger: Ledger, model_path: Path, world: World, raw_path: Path) -> None:
    """load_quantizer + assign_batch on the catalog reproduces the raw table."""
    model = quantizer.load_quantizer(model_path)
    codes = model.assign_batch(world.embeddings)
    raw = checks.codes_matrix(checks.read_assignment(raw_path), world.item_ids)
    ledger.check((codes == raw).all(),
                 f"reloaded {model_path.name} does not reproduce {raw_path.name}")


def check_gini(ledger: Ledger, reported: float, assignment: Path, world: World, sizes) -> float:
    codes = checks.codes_matrix(checks.read_assignment(assignment), world.item_ids)
    dense = checks.dense_gini(codes, sizes)
    ledger.check(abs(reported - dense) <= 1e-12,
                 f"gini {reported!r} differs from the dense oracle {dense!r}")
    return reported


class Workload:
    """Set-up, one measured pass, and the checks of one workload."""

    name = ""
    warmup_passes = 0  # untimed passes before the measured ones

    def setup(self, seed: int, work: Path, session: Session) -> dict:
        raise NotImplementedError

    def check_setup(self, state: dict, ledger: Ledger) -> dict[str, float]:
        """Checks on set-up artifacts; returns quality figures set-up fixes."""
        return {}

    def run_pass(self, state: dict, session: Session) -> Pass:
        raise NotImplementedError

    def check_pass(self, state: dict, p: Pass, ledger: Ledger) -> None:
        pass

    def report(self, passes: list[Pass]) -> dict:
        """Workload-specific figures over all passes."""
        return {}

    def trace_hooks(self, state: dict) -> dict:
        """Extra tracer hooks, by span name."""
        return {}


class Build(Workload):
    name = "build"
    shape = WorldShape(n_items=10_000, n_clusters=50, d_in=32, n_eval=100)
    levels = (64, 64, 64)
    code_dim = 32

    def setup(self, seed: int, work: Path, session: Session) -> dict:
        world = write_world(self.shape, seed, work)
        return {"world": world, "work": work}

    def run_pass(self, state: dict, session: Session) -> Pass:
        w, f = state["work"], state["world"].files
        p = Pass()
        base = ["--catalog", f["catalog"], "--d-in", self.shape.d_in]
        p.stages["tokenize_s"] = session.cli("tokenize", [
            "tokenize", *base, "--levels", _levels(self.levels), "--code-dim", self.code_dim,
            "--kind", "rqkmeans", "--iters", 20, "--seed", 0, "--out-assignment", w / "raw.tsv",
            "--out-model", w / "model.tsv", "--out-trace", w / "trace.csv"])
        p.stages["collide_knn_s"] = session.cli("collide_knn", [
            "collide", *base, "--model", w / "model.tsv", "--assignment", w / "raw.tsv",
            "--policy", "knn", "--sigma", 10, "--out", w / "knn.tsv"])
        p.stages["collide_merge_s"] = session.cli("collide_merge", [
            "collide", *base, "--model", w / "model.tsv", "--assignment", w / "raw.tsv",
            "--policy", "merge", "--merge-threshold", 3, "--out", w / "merge.tsv"])
        p.stages["eval_sid_s"] = session.cli("eval_sid", [
            "eval-sid", *base, "--assignment", w / "knn.tsv", "--model", w / "model.tsv",
            "--labels", f["labels"], "--sequences", f["eval_sequences"], "--csv", w / "eval.csv"])
        p.digests = digest_files({n: w / n for n in (
            "raw.tsv", "model.tsv", "trace.csv", "knn.tsv", "merge.tsv", "eval.csv")})
        p.quality["gini"] = checks.read_metric_csv(w / "eval.csv")["gini"]
        return p

    def check_pass(self, state: dict, p: Pass, ledger: Ledger) -> None:
        w, world = state["work"], state["world"]
        for name in ("raw.tsv", "knn.tsv", "merge.tsv"):
            ledger.check(checks.covers_exactly(w / name, world.item_ids),
                         f"{name} does not cover every item exactly once")
        check_gini(ledger, p.quality["gini"], w / "knn.tsv", world, self.levels)
        ledger.check(checks.merge_keeps_prefixes(checks.read_assignment(w / "raw.tsv"),
                                                 checks.read_assignment(w / "merge.tsv")),
                     "merge changed a prefix or added a SID")
        check_reload(ledger, w / "model.tsv", world, w / "raw.tsv")
        ledger.check(checks.objective_never_increases(w / "trace.csv"),
                     "an rqkmeans objective trace increases")


class Decode(Workload):
    name = "decode"
    shape = WorldShape(n_items=5_000, n_clusters=50, d_in=32, n_train=20_000, n_eval=400)
    levels = (64, 64, 64)
    code_dim = 32
    k_list = (20, 100)

    def setup(self, seed: int, work: Path, session: Session) -> dict:
        world = write_world(self.shape, seed, work)
        f = world.files
        base = ["--catalog", f["catalog"], "--d-in", self.shape.d_in]
        tokenize_s = session.cli("tokenize", [
            "tokenize", *base, "--levels", _levels(self.levels), "--code-dim", self.code_dim,
            "--kind", "rqkmeans", "--iters", 10, "--seed", 0, "--out-assignment", work / "raw.tsv",
            "--out-model", work / "model.tsv", "--out-trace", work / "trace.csv"])
        knn_s = session.cli("collide_knn", [
            "collide", *base, "--model", work / "model.tsv", "--assignment", work / "raw.tsv",
            "--policy", "knn", "--sigma", 10, "--out", work / "knn.tsv"])
        return {"world": world, "work": work, "tokenize_s": tokenize_s, "collide_knn_s": knn_s,
                "capture": CaptureDecodes()}

    def check_setup(self, state: dict, ledger: Ledger) -> dict[str, float]:
        """Checks on the set-up artifacts, and the Gini of the served table."""
        w, world = state["work"], state["world"]
        for name in ("raw.tsv", "knn.tsv"):
            ledger.check(checks.covers_exactly(w / name, world.item_ids),
                         f"{name} does not cover every item exactly once")
        check_reload(ledger, w / "model.tsv", world, w / "raw.tsv")
        ledger.check(checks.objective_never_increases(w / "trace.csv"),
                     "an rqkmeans objective trace increases")
        structure = catalog.SidStructure(self.levels, self.code_dim)
        table = collision.load_assignment(w / "knn.tsv", structure)
        gini = sidmetrics.gini_coefficient(sidmetrics.OccupancyVector.from_table(table))
        return {"gini": check_gini(ledger, gini, w / "knn.tsv", world, self.levels)}

    def run_pass(self, state: dict, session: Session) -> Pass:
        w, f = state["work"], state["world"].files
        structure = catalog.SidStructure(self.levels, self.code_dim)
        p = Pass()
        write_s = session.cli("train_scorer", [
            "train-scorer", "--sequences", f["train_sequences"], "--assignment", w / "knn.tsv",
            "--levels", _levels(self.levels), "--code-dim", self.code_dim, "--order", 3,
            "--out", w / "scorer.tsv"])
        (scorer, table, sequences), load_s = session.timed("serve_load", lambda: (
            retrieval.load_markov_scorer(w / "scorer.tsv"),
            collision.load_assignment(w / "knn.tsv", structure),
            catalog.load_sequences(f["eval_sequences"])))
        p.stages["train_scorer_s"] = write_s + load_s
        schedule = retrieval.default_schedule(structure)
        width = schedule.widths[-1]
        capture = state["capture"]
        capture.table = table
        decoded = capture.sink
        hits = {k: 0.0 for k in self.k_list}
        with capture.installed():
            for seq in sequences:
                hr, seconds = session.timed("query", retrieval.evaluate_hr, scorer, table, [seq],
                                            schedule, self.k_list)
                p.latencies.append(seconds)
                for k in self.k_list:
                    session.ledger.check(0.0 <= hr[k] <= 1.0, f"HR@{k} {hr[k]!r} outside [0, 1]")
                    hits[k] += hr[k]
                result = decoded.pop() if decoded else []
                session.ledger.check(checks.valid_decode(result, width, self.levels),
                                     f"decode for {seq.pv_id} is not {width} valid SIDs "
                                     "with non-increasing log-probs <= 0")
        for k in self.k_list:
            p.quality[f"hr_at_{k}"] = hits[k] / len(sequences)
        p.digests = digest_files({"scorer.tsv": w / "scorer.tsv"})
        hr_json = json.dumps(p.quality, sort_keys=True).encode()
        p.digests["hr.json"] = hashlib.sha256(hr_json).hexdigest()
        return p

    def trace_hooks(self, state: dict) -> dict:
        return {"retrieval.dynamic_beam_search": state["capture"].count_empty}

    def report(self, passes: list[Pass]) -> dict:
        # one latency per query: its median over the passes
        per_query = [statistics.median(q) for q in zip(*(p.latencies for p in passes))]
        ms = sorted(x * 1e3 for x in per_query)
        tail_pct, tail_ms = tail_percentile(ms)
        total = sum(sum(p.latencies) for p in passes)
        return {
            "decode_p50_ms": statistics.median(ms),
            "decode_tail_ms": tail_ms,
            "decode_tail_percentile": tail_pct,
            "decode_samples": len(ms),
            "queries_per_s": sum(len(p.latencies) for p in passes) / total,
        }


class CaptureDecodes:
    """Keeps each ``dynamic_beam_search`` result for checking after the query.

    Replaces ``sidkit.retrieval.dynamic_beam_search``, the name ``evaluate_hr``
    calls, by a function that appends the result to a list; the cost inside
    the timed query is one extra call and one append.
    """

    def __init__(self):
        self.sink: list = []
        self.table = None

    @contextlib.contextmanager
    def installed(self):
        original = retrieval.dynamic_beam_search
        sink = self.sink

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            sink.append(result)
            return result

        retrieval.dynamic_beam_search = capture
        try:
            yield
        finally:
            retrieval.dynamic_beam_search = original

    def count_empty(self, tracer, args, kwargs, result) -> None:
        """Tracer hook: decoded SIDs, and those no item holds."""
        tracer.count("retrieval.decoded_sids", len(result))
        tracer.count("retrieval.empty_sids",
                     sum(1 for sid, _ in result if self.table.occupancy_of(sid) == 0))


def tail_percentile(sorted_values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    With n samples that is the (n - 10)-th smallest value (1-based), the
    100 * (n - 10) / n percentile.
    """
    n = len(sorted_values)
    if n <= 10:
        return 100.0, sorted_values[-1]
    return 100.0 * (n - 10) / n, sorted_values[n - 11]


class Train(Workload):
    name = "train"
    shape = WorldShape(n_items=2_000, n_clusters=20, d_in=16)
    levels = (8, 8, 8)
    code_dim = 16
    epochs = 30
    # the first pass grows the allocator by ~600 MB of autodiff graphs and
    # runs ~10% slower; a pass is short enough to afford an untimed one
    warmup_passes = 1

    def setup(self, seed: int, work: Path, session: Session) -> dict:
        world = write_world(self.shape, seed, work)
        return {"world": world, "work": work}

    def run_pass(self, state: dict, session: Session) -> Pass:
        w, f = state["work"], state["world"].files
        p = Pass()
        base = ["--catalog", f["catalog"], "--d-in", self.shape.d_in]
        p.stages["tokenize_s"] = session.cli("tokenize", [
            "tokenize", *base, "--levels", _levels(self.levels), "--code-dim", self.code_dim,
            "--kind", "rqvae", "--epochs", self.epochs, "--batch-size", 256,
            "--warmup-epochs", 5, "--hidden-dims", "256,256", "--seed", 0,
            "--out-assignment", w / "raw.tsv", "--out-model", w / "model.tsv",
            "--out-trace", w / "trace.csv"])
        p.stages["eval_sid_s"] = session.cli("eval_sid", [
            "eval-sid", *base, "--assignment", w / "raw.tsv", "--model", w / "model.tsv",
            "--csv", w / "eval.csv"])
        head, p.stages["align_s"] = session.timed("align", lambda: alignment.train_projection(
            catalog.load_item_catalog(f["catalog"], self.shape.d_in), alignment.AlignmentConfig()))
        state["projection_trace"] = head.loss_trace
        metrics = checks.read_metric_csv(w / "eval.csv")
        p.quality["gini"] = metrics["gini"]
        p.quality["feature_fidelity_pct"] = metrics["feature_fidelity_pct"]
        p.quality["recon_loss"] = checks.rqvae_trace(w / "trace.csv")[1][-1]
        p.digests = digest_files({n: w / n for n in (
            "raw.tsv", "model.tsv", "trace.csv", "eval.csv")})
        weights = head.weight.tobytes() + head.bias.tobytes()
        p.digests["projection"] = hashlib.sha256(weights).hexdigest()
        return p

    def check_pass(self, state: dict, p: Pass, ledger: Ledger) -> None:
        w, world = state["work"], state["world"]
        ledger.check(checks.covers_exactly(w / "raw.tsv", world.item_ids),
                     "raw.tsv does not cover every item exactly once")
        check_gini(ledger, p.quality["gini"], w / "raw.tsv", world, self.levels)
        check_reload(ledger, w / "model.tsv", world, w / "raw.tsv")
        total, recon = checks.rqvae_trace(w / "trace.csv")
        ledger.check(len(total) == self.epochs + 1 and all(map(math.isfinite, total + recon)),
                     "rqvae trace is short or holds a non-finite loss")
        proj = state["projection_trace"]
        ledger.check(all(map(math.isfinite, proj)), "projection loss is not finite")
        ledger.check(proj[-1] < proj[0], "projection loss did not fall")


WORKLOADS = {w.name: w for w in (Build(), Decode(), Train())}
