"""Benchmark of hopprompt's two training stages, end to end and per layer.

    python3 bench/run.py --workload {pretrain,tune-node,tune-graph} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. One process, one caller, a closed
loop: each call starts when the previous one has returned. A run sets its
workload up several times, makes one untimed warm-up call, then repeats
rounds (one call of each kind the workload makes) until the next round would
end after S seconds. Every call's output is checked.

With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics, measured on every
other round with the layer functions wrapped, the rounds in between giving
the untraced timings that the tracing overhead is measured against. The line
before it is a fuller report: sample counts, whether a value is measured or
computed, and the environment. Scratch files live under bench/out/ and are
removed at exit; a traced run leaves its spans in bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

from tracing import COUNTERS, Tracer, layer_metrics

SETUPS = 3           # set-ups per run: at least this many,
SETUP_SECONDS = 1.0  # and more until they have taken this long in all
# one BLAS thread, so that the run is one caller on one core with no worker
# threads and its timings do not depend on how many cores the host has
BLAS_THREADS = "1"
MB = 1e6

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pretrain", "tune-node", "tune-graph"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _metric(value, unit, n, source="measured"):
    return {"value": value, "unit": unit, "n": n, "source": source}


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads(numpy):
    """Threads the OpenBLAS bundled with numpy will use, if it is found."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed, derived_seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "machine": platform.machine(),
        "seed": seed,
        "derived_seed": derived_seed,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Run:
    """Set-ups, warm-up and rounds of one workload, with every call's
    timing and check result."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.round_s = {False: [], True: []}   # keyed by traced
        self.call_s: dict[str, list[float]] = {}
        self.outcomes = []
        self.attempted = 0
        self.failed = 0
        self.invalid: list[str] = []
        self._reference = {}

    def _traced(self, name, traced):
        if not traced:
            return contextlib.nullcontext()
        return self.tracer.root(name)

    def setups(self, scratch: Path) -> None:
        """Set the workload up several times (a traced run traces them all);
        the last set-up's state serves the calls."""
        traced = self.tracer is not None
        if traced:
            self.tracer.install()
        fill_losses = set()
        i = 0
        while i < SETUPS or sum(self.setup_s) < SETUP_SECONDS:
            i += 1
            with self._traced("setup", traced):
                t0 = time.perf_counter()
                self.workload.setup(scratch / f"setup-{i}")
                self.setup_s.append(time.perf_counter() - t0)
            fill_losses.add(self.workload.fill_loss)
        if traced:
            self.tracer.remove()
        if len(fill_losses) != 1:
            self.invalid.append(f"set-ups pre-trained differently: {fill_losses}")

    def _call(self, label, fn) -> tuple[float, bool]:
        """One checked call; a repeat must match the first call of its kind."""
        t0 = time.perf_counter()
        try:
            outcome = fn()
        except Exception:  # a failed call is counted, and the run goes on
            seconds = time.perf_counter() - t0
            print(f"bench: {label} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return seconds, False
        seconds = time.perf_counter() - t0
        first = self._reference.setdefault(label, outcome.fingerprint)
        if outcome.fingerprint != first:
            print(f"bench: {label} differs from the first call with this seed",
                  file=sys.stderr)
            return seconds, False
        self.outcomes.append(outcome)
        return seconds, True

    def warm_up(self) -> None:
        label, fn = self.workload.calls()[0]
        _seconds, ok = self._call(label, fn)
        if not ok:
            self.invalid.append(f"warm-up call {label} failed")
        self.outcomes.clear()

    def rounds(self, seconds: float) -> None:
        calls = self.workload.calls()
        misses = self.workload.misses()
        start = time.perf_counter()
        k = 0
        while True:
            traced = self.tracer is not None and k % 2 == 1
            if self.tracer is not None:
                (self.tracer.install if traced else self.tracer.remove)()
            total = 0.0
            with self._traced("round", traced):
                for label, fn in calls:
                    dt, ok = self._call(label, fn)
                    self.attempted += 1
                    self.failed += not ok
                    total += dt
                    if not traced:
                        self.call_s.setdefault(label, []).append(dt)
            self.round_s[traced].append(total)
            k += 1
            if self.tracer is not None and k < 2:
                continue  # a traced run needs a round of each kind
            done = self.round_s[False] + self.round_s[True]
            if time.perf_counter() - start + median(done) > seconds:
                break
        if self.tracer is not None:
            self.tracer.remove()
        if self.workload.misses() != misses:
            self.invalid.append("a call missed the cache filled in set-up")

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict:
        untraced = self.round_s[False]
        loss, loss_n = self.workload.pretrain_loss(self.outcomes)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        return {
            "setup_s": _metric(median(self.setup_s), "s", len(self.setup_s)),
            "round_s": _metric(median(untraced), "s", len(untraced)),
            "peak_tape_mb": _metric(self._peak_tape() / MB, "MB",
                                    len(self.outcomes)),
            "peak_rss_mb": _metric(peak_rss / MB, "MB", 1),
            "pretrain_loss": _metric(loss, "nat", loss_n),
        }

    def _peak_tape(self) -> int:
        return max((o.peak_tape_bytes for o in self.outcomes), default=0)

    def per_layer(self, call_kinds) -> dict:
        per_round = self.tracer.per_root("round")
        n = len(per_round)
        out = {}
        for name, (value, unit, samples) in layer_metrics(
                self.tracer.per_root("setup"), per_round).items():
            source = ("computed" if name in COUNTERS
                      else "counted" if unit == "count" else "measured")
            out[name] = _metric(value, unit, samples, source)
        hits = out["harness.cache.hits"]["value"]
        lookups = hits + out["harness.cache.misses"]["value"]
        out["harness.cache.hit_ratio"] = _metric(
            hits / lookups if lookups else 0.0, "ratio", n, "computed")
        out["numcore.peak_tape_bytes"] = _metric(
            self._peak_tape(), "B", len(self.outcomes))
        for kind in call_kinds:
            samples = self.call_s.get(kind, [])
            out[kind] = _metric(median(samples) if samples else 0.0, "s",
                                len(samples))
        accs = [o.test_acc for o in self.outcomes if o.test_acc is not None]
        out["test_acc"] = _metric(sum(accs) / len(accs) if accs else 0.0,
                                  "ratio", len(accs))
        out["failed_frac"] = _metric(self.failed / self.attempted, "ratio",
                                     self.attempted)
        plain, traced = median(self.round_s[False]), median(self.round_s[True])
        out["trace.overhead_s"] = _metric(
            traced - plain, "s", min(len(self.round_s[False]),
                                     len(self.round_s[True])))
        out["trace.overhead_frac"] = _metric(
            (traced - plain) / plain, "ratio", out["trace.overhead_s"]["n"])
        return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hopprompt" / "__init__.py").is_file() or not (
            ROOT / "datasets").is_dir():
        print(f"bench: no hopprompt source tree and datasets under {ROOT}",
              file=sys.stderr)
        return 2

    # set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    import hopprompt.harness  # noqa: F401  (every package module, before patching)
    from workloads import CALL_KINDS, WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    tracer = Tracer() if args.trace else None
    run = Run(workload, tracer)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="scratch-") as scratch:
        run.setups(Path(scratch))
        run.warm_up()
        run.rounds(args.seconds)

    if tracer is None:
        metrics = run.end_to_end()
    else:
        metrics = run.per_layer(CALL_KINDS)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    correct = run.failed == 0 and not run.invalid
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "rounds": len(run.round_s[False]) + len(run.round_s[True]),
        "invalid": run.invalid,
        "env": environment(args.seed, workload.seed),
        "metrics": metrics,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
