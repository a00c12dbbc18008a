"""Benchmark of latsym: the classify, monodromy and genus workloads.

Run from the repository root:

    python3 perfbench/run.py                       # classify and genus, untraced
    python3 perfbench/run.py --workload classify --seed 1 --seconds 40 --trace 0

One process sends one input at a time (a closed loop) and runs the number
of whole rounds of inputs that fills --seconds most nearly.  Inputs are
made from the seed before any timing starts.  Every timing is scaled to a
reference machine speed, measured beside it (calibrate.py).  Every answer
is checked afterwards; an input that raises or fails a check counts as
failed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See README.md in this
directory.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
from calibrate import timed_chunks

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
LISTED = ("classify", "genus")      # the workloads of BENCHMARK.json
WORKLOADS = LISTED + ("monodromy",)
SETUP_SAMPLES = 15          # one in this process, the rest in fresh ones
CAL_CHUNKS = 20             # calibration chunks after each set-up and input
TAIL_MIN_INPUTS = 40
TAIL_BEYOND = 10


def scaled(seconds, cal_seconds):
    """`seconds` at the reference speed, given the time of CAL_CHUNKS
    calibration chunks measured beside it."""
    return seconds * CAL_CHUNKS * calibrate.REF_CHUNK_S / cal_seconds


def setup_seconds():
    """Scaled set-up times of fresh interpreters and of this one, and the
    model.

    Fresh interpreters run first, so that compiling bytecode in a new
    checkout falls on a sample that the median discards.
    """
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_sample.py"),
                               str(CAL_CHUNKS)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(scaled(*map(float, proc.stdout.split()[-2:])))
    start = time.perf_counter()
    from setup_sample import program_setup
    model = program_setup()
    times.append(scaled(time.perf_counter() - start, timed_chunks(CAL_CHUNKS)))
    return times, model


def tail_ms(latencies):
    """The highest value with at least TAIL_BEYOND inputs beyond it.

    A run of fewer than TAIL_MIN_INPUTS inputs has no such tail, but every
    run must print the metric: there it is the 75th percentile by nearest
    rank, which is the same input at TAIL_MIN_INPUTS.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= TAIL_MIN_INPUTS:
        return ordered[n - TAIL_BEYOND - 1]
    return ordered[-(-3 * n // 4) - 1]


def repeat_for(seconds, step):
    """Call step(0), step(1), ... as many times as fills `seconds` most
    nearly: stop when one more call would end over half a call late."""
    start = time.perf_counter()
    done = 0
    while True:
        step(done)
        done += 1
        wall = time.perf_counter() - start
        if wall * (done + 0.5) / done >= seconds:
            return


class Loop:
    """The closed loop over one workload's pool of rounds.

    CAL_CHUNKS calibration chunks run before the first input and after
    every input; an input's speed is the mean of the chunks on its two
    sides.
    """

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.results = []       # (input, answer or None, seconds, scaled s)
        self.raised = 0
        self.cal = None         # the chunks' seconds after the last input

    def run_round(self, index, tracer=None):
        """Send the inputs of one pool round, one at a time; returns the
        scaled seconds of the round's inputs."""
        if self.cal is None:
            self.cal = timed_chunks(CAL_CHUNKS)
        total = 0.0
        for item in self.pool[index % len(self.pool)]:
            if tracer:
                tracer.begin_item(len(self.results))
            t0 = time.perf_counter()
            try:
                answer = self.workload.run(item)
            except Exception:
                answer = None
                self.raised += 1
                traceback.print_exc(file=sys.stderr)
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.end_item()
            before, self.cal = self.cal, timed_chunks(CAL_CHUNKS)
            at_ref = scaled(dt, (before + self.cal) / 2)
            total += at_ref
            self.results.append((item, answer, dt, at_ref))
        return total

    def check(self):
        """(failed inputs, wrong answers): raised or failed a check."""
        wrong = 0
        for item, answer, _dt, _at_ref in self.results:
            if answer is None:
                continue
            try:
                problems = self.workload.check(item, answer)
            except Exception as exc:
                problems = ["check raised %r" % exc]
            if problems:
                wrong += 1
                print("FAIL %s: %s" % (item.path.name, "; ".join(problems)),
                      file=sys.stderr)
        return self.raised + wrong, wrong


def run_workload(args):
    setup, model = setup_seconds()
    import tracer as tracing
    import workloads
    from latsym import cli, discform, fixtures, genus, intmat, isometry, \
        lattice, walls

    workload = workloads.make(args.workload, model, fixtures.load_table())
    workdir = OUT / ("%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pool = workload.generate(args.seed, workdir)
    loop = Loop(workload, pool)

    if args.trace:
        # each round runs untraced and then traced, so that drift in the
        # machine's speed falls on both sides of the overhead ratio
        tr = tracing.Tracer()
        layers = {"cli": cli, "isometry": isometry, "walls": walls,
                  "discform": discform, "genus": genus, "lattice": lattice,
                  "intmat": intmat, "fixtures": fixtures}
        sides = [0.0, 0.0]      # untraced and traced scaled seconds
        traced = []             # indices of the traced inputs

        def pair(index):
            sides[0] += loop.run_round(index)
            tr.install(layers)
            start = len(loop.results)
            try:
                sides[1] += loop.run_round(index, tracer=tr)
            finally:
                tr.uninstall()
                traced.extend(range(start, len(loop.results)))

        repeat_for(args.seconds, pair)
        tr.write(OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed)))
        raw = sum(loop.results[i][2] for i in traced)
        metrics = tr.metrics(len(traced), sides[1] / sides[0],
                             scale=sides[1] / raw,
                             extra=args.workload not in LISTED)
    else:
        repeat_for(args.seconds, loop.run_round)
        latencies = [at_ref for _item, answer, _dt, at_ref in loop.results
                     if answer is not None]
        busy = sum(at_ref for _item, _answer, _dt, at_ref in loop.results)
        metrics = {
            "items_per_s": (len(latencies) / busy, "1/s"),
            "item_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "item_tail_ms": (1000 * tail_ms(latencies), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    failed, wrong = loop.check()
    result = {
        "correct": wrong == 0,
        "attempted": len(loop.results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("%s seed %d: %d inputs attempted, %d failed" % (
        args.workload, args.seed, result["attempted"], failed))
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.4f %s" % (name, value, unit))
    raw = [dt for _item, _answer, dt, _at_ref in loop.results]
    print("  unscaled median input %.1f ms; scale to reference speed %.3f" % (
        1000 * statistics.median(raw),
        sum(r[3] for r in loop.results) / sum(raw)))
    saved = dict(result, latencies_ms=[
        [str(item.slot), 1000 * dt, 1000 * at_ref]
        for item, _answer, dt, at_ref in loop.results])
    (OUT / ("result-%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))).write_text(json.dumps(saved))
    shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each listed workload in its own process, one after another."""
    summary = {}
    for name in LISTED:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            print("%s exited with %d" % (name, proc.returncode))
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
