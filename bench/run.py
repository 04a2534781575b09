"""labelpure benchmark: end-to-end and per-layer numbers for three workloads.

    python3 bench/run.py --workload {paper-2k,embed-20k,cli-20k} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each run makes its inputs from ``--seed``,
sets them up several times (``setup_s`` is the median), runs one short
warm-up round, then repeats rounds of purify -> retrain -> eval for
``--seconds`` seconds, checking every output. ``paper-2k`` and ``embed-20k``
call the library in this process; ``cli-20k`` runs each step as a
``labelpure`` subprocess, one at a time. With ``--trace 0`` the last line of
stdout holds the end-to-end metrics; with ``--trace 1`` rounds alternate
between untraced and traced and the last line holds the per-layer metrics
(see spans.py). Why each workload exists, and which layer should move which
end-to-end metric, is written down in README.md next to this file.

BLAS and OpenMP run single-threaded: the thread variables are set below,
before numpy is imported here or in any child.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BATCH = 256  # PurifierConfig's default batch size, used to count iterations
RETRAIN_EPOCHS = 20
WARMUP_EPOCHS = 1
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 1.0
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape. ``min_gain`` sets the label-accuracy floor:
    purified labels must beat the seed's noisy labels by at least this much."""

    name: str
    cli: bool
    n: int
    dim: int
    classes: int
    separation: float
    n_val: int
    n_test: int
    noise: str
    ratio: float
    epochs: int
    min_gain: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-2k", False, 2000, 32, 5, 8.0, 100, 2000, "symmetric", 0.5, 100, 0.40),
        Workload("embed-20k", False, 20000, 512, 10, 4.0, 500, 5000, "symmetric", 0.5, 3, 0.30),
        Workload("cli-20k", True, 20000, 128, 10, 4.0, 500, 5000, "asymmetric", 0.4, 5, 0.04),
    )
}

END_TO_END = {
    "setup_s": "s",
    "purify_s": "s",
    "retrain_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "label_acc": "fraction",
    "test_acc": "fraction",
}
STAGES = ("purify", "retrain", "eval")


class CheckFailed(Exception):
    """An output check of one operation failed."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def op(self, label: str, fn, *args):
        """Run one operation and return its value; None when it raised, which is
        counted as a failure and reported."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            print(f"bench: {label} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def timed(self, label: str, fn, *args):
        start = time.perf_counter()
        value = self.op(label, fn, *args)
        return value, time.perf_counter() - start


@dataclass
class Round:
    walls: dict[str, float] = field(default_factory=dict)
    label_acc: float | None = None
    test_acc: float | None = None
    peak_rss_mb: float | None = None
    unit: dict | None = None

    @property
    def complete(self) -> bool:
        return len(self.walls) == len(STAGES)

    @property
    def total(self) -> float:
        return sum(self.walls.values())


def tracing_if(recorder):
    return spans.tracing(recorder) if recorder is not None else contextlib.nullcontext()


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def check_hard_labels(values, n: int, c: int) -> None:
    import numpy as np

    check(values.shape == (n,), f"hard labels shape {values.shape}, want ({n},)")
    check(bool(np.all((values >= 0) & (values < c))), f"hard labels outside [0, {c})")


def check_iterations(summary: dict, epochs: int, n: int) -> int:
    expected = epochs * math.ceil(n / BATCH)
    check(summary["iterations"] == expected, f"{summary['iterations']} iterations, want {expected}")
    return expected


def check_accuracy(acc: float, floor: float) -> None:
    check(acc >= floor, f"label accuracy {acc:.4f} below floor {floor:.4f}")


def check_manifest(path: Path) -> None:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for name, entry in manifest["inputs"].items():
        check(sha256(Path(entry["path"])) == entry["sha256"], f"manifest sha256 of {name} does not match the file")


class Replay:
    """Checks that every measured round returns the same outputs as the first."""

    def __init__(self) -> None:
        self.digest = None

    def check(self, digest: str) -> None:
        if self.digest is None:
            self.digest = digest
        check(digest == self.digest, "outputs differ from the first round's")


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        return cfg["Build Dependencies"]["blas"].get("version")

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config(mode="dicts")),
        "openblas_scipy": blas(scipy.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---------------------------------------------------------------- CLI children


@dataclass
class Child:
    wall: float
    code: int
    peak_rss_mb: float
    spans: list | None
    log: str


def run_child(argv: list, work: Path, traced: bool) -> Child:
    """Run one labelpure command through child.py and wait for it. Its peak
    RSS comes from its own rusage, not from the running maximum over all
    children that RUSAGE_CHILDREN reports."""
    out = work / "spans.json"
    out.unlink(missing_ok=True)
    log_path = work / "child.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH / "child.py"), str(out) if traced else "-", *map(str, argv)]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=work, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    recorded = json.loads(out.read_text()) if traced and out.exists() else None
    log_text = log_path.read_text(errors="replace")
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, recorded, log_text)


def check_child(child: Child, name: str) -> None:
    check(child.code == 0, f"{name} exited {child.code}: {child.log.strip()[-500:]}")


# ---------------------------------------------------------------- library workloads


class LibraryBench:
    """paper-2k and embed-20k: purify, retrain and eval as calls in this process."""

    def __init__(self, w: Workload, seed: int, work: Path, tally: Tally):
        self.w, self.seed, self.work, self.tally = w, seed, work, tally
        self.replay = Replay()
        self.last = None

    def setup(self, traced: bool):
        from labelpure import data, noise

        w = self.w
        # Drop the previous set-up's inputs first, so peak RSS holds one copy.
        self.F = self.truth = self.noisy = self.val = self.Ft = self.yt = None
        recorder = spans.Recorder() if traced else None
        start = time.perf_counter()
        with tracing_if(recorder):
            spec = noise.MixtureSpec(
                n=w.n, dim=w.dim, classes=w.classes, separation=w.separation, seed=self.seed
            )
            (F, y), (Fv, yv), (Ft, yt) = noise.gen_gaussian_mixture_split(spec, w.n_val, w.n_test)
            noisy = noise.inject_symmetric(y, w.ratio, self.seed + 1)
            val = data.CleanValidationSet(Fv, data.one_hot(yv))
        wall = time.perf_counter() - start
        self.F, self.truth, self.noisy, self.val, self.Ft, self.yt = F, y, noisy, val, Ft, yt
        self.floor = float((noisy.values == y.values).mean()) + w.min_gain
        return wall, [(recorder.spans, None)] if traced else None

    def round(self, traced: bool, warmup: bool) -> Round:
        from labelpure import evaluate, purifier

        out, tally = Round(), self.tally
        epochs = WARMUP_EPOCHS if warmup else self.w.epochs
        cfg = purifier.PurifierConfig(epochs=epochs)
        tcfg = evaluate.TrainConfig(epochs=WARMUP_EPOCHS if warmup else RETRAIN_EPOCHS)
        recorder = spans.Recorder() if traced else None
        with tracing_if(recorder):
            result, wall = tally.timed("purify", purifier.purify, self.F, self.noisy, self.val, cfg)
            if result is None or not tally.op("purify check", self.check_purify, result, epochs, warmup):
                return out
            out.walls["purify"] = wall
            hard = result[1]
            out.label_acc = float((hard.values == self.truth.values).mean())
            clf, wall = tally.timed("retrain", evaluate.train_linear_ce, self.F, hard, tcfg)
            if clf is None or not tally.op("retrain check", self.check_classifier, clf):
                return out
            out.walls["retrain"] = wall
            acc, wall = tally.timed("eval", evaluate.evaluate_classifier, clf, self.Ft, self.yt)
        if acc is None or not tally.op("eval check", self.check_eval, clf, acc):
            return out
        out.walls["eval"] = wall
        out.test_acc = acc
        if not warmup:
            self.last = result
        if traced:
            out.unit = {"kind": "round", "procs": [(recorder.spans, None)]}
        return out

    def check_purify(self, result, epochs: int, warmup: bool) -> bool:
        import numpy as np

        logits, hard, report = result
        n, c = self.w.n, self.w.classes
        check(logits.values.shape == (n, c), f"logits shape {logits.values.shape}")
        check(bool(np.all(np.isfinite(logits.values))), "non-finite logits")
        check_hard_labels(hard.values, n, c)
        check(bool(np.array_equal(hard.values, np.argmax(logits.values, axis=1))), "hard labels != argmax")
        expected = check_iterations(report.summary, epochs, n)
        check(len(report.records) == expected, f"{len(report.records)} report records, want {expected}")
        if not warmup:
            check_accuracy(float((hard.values == self.truth.values).mean()), self.floor)
            self.replay.check(hashlib.sha256(logits.values.tobytes()).hexdigest())
        return True

    def check_classifier(self, clf) -> bool:
        import numpy as np

        check(bool(np.all(np.isfinite(clf.weights)) and np.all(np.isfinite(clf.bias))), "non-finite classifier")
        return True

    def check_eval(self, clf, acc: float) -> bool:
        import numpy as np

        pred = np.argmax(self.Ft.values @ clf.weights + clf.bias, axis=1)
        check(acc == float(np.mean(pred == self.yt.values)), f"eval accuracy {acc} disagrees with a recount")
        return True

    def final_check(self, traced: bool) -> dict | None:
        """Write the last outputs as the CLI would, convert the report with the
        ``labelpure report`` command, and read everything back."""
        return self.tally.op("output round trip", self._round_trip, traced)

    def _round_trip(self, traced: bool) -> dict | None:
        import numpy as np

        from labelpure import data, purifier

        check(self.last is not None, "no completed round to check")
        logits, hard, report = self.last
        paths = {k: self.work / k for k in ("purified.txt", "logits.bin", "report.jsonl", "report.csv")}
        recorder = spans.Recorder() if traced else None
        with tracing_if(recorder):
            data.write_hard_labels(hard, paths["purified.txt"])
            data.write_features(data.FeatureMatrix(logits.values), paths["logits.bin"])
            purifier.save_report(report, paths["report.jsonl"])
        child = run_child(["report", "--in", paths["report.jsonl"], "--csv", paths["report.csv"]], self.work, traced)
        check_child(child, "report")
        check_manifest(Path(f"{paths['report.csv']}.manifest.json"))
        iterations = report.summary["iterations"]
        check(count_lines(paths["report.jsonl"]) == iterations + 1, "report line count")
        check(count_lines(paths["report.csv"]) == iterations + 1, "report CSV line count")
        with tracing_if(recorder):
            back = data.load_hard_labels(paths["purified.txt"], self.w.classes)
            back_logits = data.load_features(paths["logits.bin"])
        check(bool(np.array_equal(back.values, hard.values)), "labels changed on a file round trip")
        want = logits.values.astype(np.float32).astype(np.float64)
        check(bool(np.array_equal(back_logits.values, want)), "logits changed on a file round trip")
        if not traced:
            return None
        return {"kind": "check", "procs": [(recorder.spans, None), (child.spans, child.wall)]}


# ---------------------------------------------------------------- CLI workload


class CliBench:
    """cli-20k: synth and corrupt as set-up, then purify, retrain and eval as
    separate ``labelpure`` processes, run one at a time."""

    FILES = (
        "train.bin", "train_labels.txt", "val.bin", "val.csv", "test.bin", "test_labels.txt",
        "noisy.txt", "purified.txt", "logits.bin", "report.jsonl", "model.json", "eval.json",
    )

    def __init__(self, w: Workload, seed: int, work: Path, tally: Tally):
        self.w, self.seed, self.work, self.tally = w, seed, work, tally
        self.f = {k: work / k for k in self.FILES}
        self.replay = Replay()

    def setup(self, traced: bool):
        w, f = self.w, self.f
        synth = [
            "synth", "--n", w.n, "--dim", w.dim, "--classes", w.classes,
            "--separation", w.separation, "--seed", self.seed,
            "--out-features", f["train.bin"], "--out-labels", f["train_labels.txt"],
            "--n-val", w.n_val, "--out-val-features", f["val.bin"], "--out-val-labels", f["val.csv"],
            "--n-test", w.n_test, "--out-test-features", f["test.bin"],
            "--out-test-labels", f["test_labels.txt"],
        ]
        corrupt = [
            "corrupt", "--labels", f["train_labels.txt"], "--kind", w.noise,
            "--ratio", w.ratio, "--seed", self.seed + 1, "--out", f["noisy.txt"],
        ]
        wall, procs = 0.0, []
        for argv in (synth, corrupt):
            child = run_child(argv, self.work, traced)
            if child.code != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {child.code}: {child.log.strip()[-500:]}")
            wall += child.wall
            procs.append((child.spans, child.wall))

        from labelpure import data

        self.truth = data.load_hard_labels(f["train_labels.txt"], w.classes)
        noisy = data.load_hard_labels(f["noisy.txt"], w.classes)
        self.floor = float((noisy.values == self.truth.values).mean()) + w.min_gain
        return wall, procs if traced else None

    def round(self, traced: bool, warmup: bool) -> Round:
        f, out = self.f, Round()
        epochs = WARMUP_EPOCHS if warmup else self.w.epochs
        commands = {
            "purify": [
                "purify", "--features", f["train.bin"], "--labels", f["noisy.txt"],
                "--val-features", f["val.bin"], "--val-labels", f["val.csv"],
                "--truth", f["train_labels.txt"], "--out-labels", f["purified.txt"],
                "--out-logits", f["logits.bin"], "--report", f["report.jsonl"], "--epochs", epochs,
            ],
            "retrain": [
                "retrain", "--features", f["train.bin"], "--labels", f["purified.txt"],
                "--epochs", WARMUP_EPOCHS if warmup else RETRAIN_EPOCHS, "--out-model", f["model.json"],
            ],
            "eval": [
                "eval", "--model", f["model.json"], "--features", f["test.bin"],
                "--labels", f["test_labels.txt"], "--out-json", f["eval.json"],
            ],
        }
        checks = {
            "purify": lambda: self.check_purify(epochs, warmup),
            "retrain": self.check_retrain,
            "eval": self.check_eval,
        }
        procs = []
        for stage in STAGES:
            child = self.tally.op(stage, run_child, commands[stage], self.work, traced)
            if child is None:
                return out
            procs.append((child.spans or [], child.wall))
            value = self.tally.op(f"{stage} check", self.checked, child, stage, checks[stage])
            if value is None:
                return out
            out.walls[stage] = child.wall
            if stage == "purify":
                out.label_acc, out.peak_rss_mb = value, child.peak_rss_mb
            elif stage == "eval":
                out.test_acc = value
        if traced:
            out.unit = {"kind": "round", "procs": procs}
        return out

    @staticmethod
    def checked(child: Child, stage: str, check_outputs):
        check_child(child, stage)
        return check_outputs()

    def check_purify(self, epochs: int, warmup: bool) -> float:
        from labelpure import data

        w, f = self.w, self.f
        hard = data.load_hard_labels(f["purified.txt"], w.classes)
        check_hard_labels(hard.values, w.n, w.classes)
        logits = data.load_features(f["logits.bin"])  # rejects non-finite values
        check(logits.values.shape == (w.n, w.classes), f"logits shape {logits.values.shape}")
        summary = json.loads(f["report.jsonl"].read_text().splitlines()[-1])["summary"]
        iterations = check_iterations(summary, epochs, w.n)
        check(count_lines(f["report.jsonl"]) == iterations + 1, "report line count")
        check_manifest(Path(f"{f['purified.txt']}.manifest.json"))
        acc = float((hard.values == self.truth.values).mean())
        if not warmup:
            check_accuracy(acc, self.floor)
            self.replay.check(sha256(f["purified.txt"]) + sha256(f["logits.bin"]))
        return acc

    def check_retrain(self) -> bool:
        import numpy as np

        model = json.loads(self.f["model.json"].read_text())
        check(bool(np.all(np.isfinite(model["weights"])) and np.all(np.isfinite(model["bias"]))), "non-finite model")
        check_manifest(Path(f"{self.f['model.json']}.manifest.json"))
        return True

    def check_eval(self) -> float:
        import numpy as np

        from labelpure import data

        f = self.f
        metrics = json.loads(f["eval.json"].read_text())
        model = json.loads(f["model.json"].read_text())
        test = data.load_features(f["test.bin"]).values
        labels = data.load_hard_labels(f["test_labels.txt"], self.w.classes).values
        pred = np.argmax(test @ np.asarray(model["weights"]) + np.asarray(model["bias"]), axis=1)
        check(metrics["n"] == self.w.n_test, f"eval counted {metrics['n']} rows")
        check(metrics["accuracy"] == float(np.mean(pred == labels)), "eval accuracy disagrees with a recount")
        check_manifest(Path(f"{f['eval.json']}.manifest.json"))
        return float(metrics["accuracy"])

    def final_check(self, traced: bool) -> None:
        """Every round's files were checked as it ran."""
        return None


# ---------------------------------------------------------------- run


def median(values) -> float:
    return float(statistics.median(values))


def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict], dict]:
    """One benchmark run; returns the result object, the traced units and run info."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    tally = Tally()
    units: list[dict] = []
    try:
        bench = (CliBench if w.cli else LibraryBench)(w, seed, work, tally)

        setup_walls: list[float] = []
        while len(setup_walls) < SETUP_MIN or (
            sum(setup_walls) < SETUP_SECONDS and len(setup_walls) < SETUP_MAX
        ):
            tally.attempted += 1
            wall, procs = bench.setup(trace)
            setup_walls.append(wall)
            if procs is not None:
                units.append({"kind": "setup", "procs": procs})

        bench.round(False, warmup=True)

        rounds: list[tuple[bool, Round]] = []
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline or (trace and len(rounds) < 2):
            traced = trace and len(rounds) % 2 == 1
            r = bench.round(traced, warmup=False)
            rounds.append((traced, r))
            if r.unit is not None:
                units.append(r.unit)

        check_unit = bench.final_check(trace)
        if check_unit is not None:
            units.append(check_unit)
        peak_self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for traced, r in rounds if not traced and r.complete]
    if not plain:
        raise RuntimeError("no untraced round completed")
    samples = {stage: [r.walls[stage] for r in plain] for stage in STAGES}
    if trace:
        traced_walls = [r.total for t, r in rounds if t and r.complete]
        if not traced_walls:
            raise RuntimeError("no traced round completed")
        metrics = spans.layer_metrics(units)
        overhead = median(traced_walls) / median(r.total for r in plain) - 1.0
        metrics["trace_overhead"] = {"value": overhead, "unit": "fraction"}
        metrics["error_rate"] = {"value": tally.failed / tally.attempted, "unit": "fraction"}
    else:
        values = {
            "setup_s": median(setup_walls),
            "purify_s": median(samples["purify"]),
            "retrain_s": median(samples["retrain"]),
            "eval_s": median(samples["eval"]),
            "peak_rss_mb": median(r.peak_rss_mb for r in plain) if w.cli else peak_self_mb,
            "label_acc": median(r.label_acc for r in plain),
            "test_acc": median(r.test_acc for r in plain),
        }
        metrics = {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in values.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    info = {
        "workload": w.name,
        "seed": seed,
        "label_acc_floor": bench.floor,
        "rounds": len(rounds),
        "setup_samples": len(setup_walls),
        "samples": {
            stage: {
                "n": len(v),
                "median": median(v),
                "quartiles": statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3,
                "max": max(v),
            }
            for stage, v in samples.items()
        },
    }
    return result, units, info


def import_labelpure() -> str | None:
    """Import labelpure from this checkout's sources; an error message if that fails."""
    if not (SRC / "labelpure" / "__init__.py").is_file():
        return f"bench: no labelpure sources under {SRC}; run from the root of a checkout"
    sys.path.insert(0, str(SRC))
    import labelpure

    if Path(labelpure.__file__).resolve().parent != (SRC / "labelpure").resolve():
        return f"bench: imported labelpure from {labelpure.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_labelpure()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    result, _, info = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment(), **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
