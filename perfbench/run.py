"""Benchmark of the `pvi` command line, run in-process.

    python3 perfbench/run.py --workload {rh,flow,geometry} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; `pvi` is imported from `src/`.  The
workload's inputs come from the seed.  After one warm-up operation the run
executes whole rounds of operations while another round fits into S
seconds, timing each operation, then checks every output with the
independent computations in `checks.py`.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics.

With --trace 0 the metrics are the end-to-end ones (untraced).  Times are
wall times rescaled to a reference host speed: a fixed probe computation
(`probe`) runs between operations, and each operation's wall time is
multiplied by PROBE_REF_S over the mean of the probes on either side of
it, so that the host's own speed, which moves by up to a factor of two
between minutes on a shared machine, cancels.  op_s is the median rescaled
seconds of one operation; ops_per_s, operations over their summed rescaled
seconds; setup_s, seconds from the first statement of this script through
`import pvi` and the generation of the warm-up operation and the first
round, rescaled by the run's median probe; peak_rss_mb, the peak resident
set of the process at the end of the timed phase, before any check runs.
The raw wall-time figures go to standard error.

With --trace 1 each operation runs twice, untraced and with the wrappers
of `tracing.py`, alternating which goes first; the metrics are per-layer
values per traced operation, plus trace.overhead, the median ratio of
traced to untraced time of the same operation.  The per-layer table goes to
standard error and to perfbench/out/layers_<workload>.txt, the spans of
the first traced operation to perfbench/out/spans_<workload>.jsonl.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One thread of BLAS or OpenMP work, whatever the machine offers: the load
# comes from this one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("params", "cubic", "modular", "fuchsian", "flow", "backlund", "rk", "serialize", "cli")

# Per-layer metrics: name -> (source, key).  "calls", "self" and "total"
# read the span table (a key ending in "." sums a whole module), "counter"
# the tracer's counters, "op" the runner's own per-operation sums.
LAYER_METRICS = {
    "rk.adaptive_rk.calls": ("calls", "rk.adaptive_rk"),
    "rk.adaptive_rk.self_s": ("self", "rk.adaptive_rk"),
    "rk.rhs_evals": ("counter", "rk.rhs_evals"),
    "rk.rhs_s": ("total", "rk.rhs"),
    "rk.accepted": ("counter", "rk.accepted"),
    "rk.rejected": ("counter", "rk.rejected"),
    "fuchsian.monodromy.calls": ("calls", "fuchsian.monodromy"),
    "fuchsian.apparent_check.calls": ("calls", "fuchsian.apparent_check"),
    "fuchsian.transport.calls": ("calls", "fuchsian.transport"),
    "fuchsian.transport.self_s": ("self", "fuchsian.transport"),
    "fuchsian.build_equation.self_s": ("self", "fuchsian.build_equation"),
    "flow.integrate.s": ("total", "flow.integrate"),
    "flow.samples": ("counter", "flow.samples"),
    "flow.pvi_residual.s": ("total", "flow.pvi_residual"),
    "serialize.self_s": ("self", "serialize."),
    "serialize.bytes_out": ("op", "bytes_out"),
    "cubic.singular_points.calls": ("calls", "cubic.singular_points"),
    "cubic.singular_points.self_s": ("self", "cubic.singular_points"),
    "params.classify_stratum.s": ("total", "params.classify_stratum"),
    "modular.apply_word.letters": ("counter", "modular.apply_word.letters"),
    "modular.orbit.s": ("total", "modular.orbit"),
    "backlund.apply_word.s": ("total", "backlund.apply_word"),
    "cli.main.self_s": ("self", "cli.main"),
}
UNITS = {"calls": "count", "counter": "count", "self": "s", "total": "s", "op": "bytes"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("rh", "flow", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import `pvi` from this checkout's src/ and nowhere else."""
    if not (SRC / "pvi" / "__init__.py").is_file():
        raise SystemExit(f"error: no pvi sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    pvi = importlib.import_module("pvi")
    if Path(pvi.__file__).resolve().parent != SRC / "pvi":
        raise SystemExit(f"error: imported pvi from {pvi.__file__}, not from {SRC}")
    return pvi


# Steps of probe(), and its seconds at the reference host speed: the
# median of 400 probes on a 2-vCPU Intel Xeon (2.1 GHz) virtual machine.
PROBE_STEPS = 200
PROBE_REF_S = 0.0084


def probe():
    """A fixed computation of the kind `pvi` does, timed to read the host's speed.

    Fixed-step RK4 of a Fuchsian 2x2 system in companion form, with numpy
    arrays of four complex numbers and Python complex scalar arithmetic,
    as in the program's ODE layers.  Independent of `pvi`.
    """
    start = time.perf_counter()
    poles = np.array([0.0, 1.0, 2.0, 0.4 + 0.3j])
    r1 = np.array([-0.7, -0.8, -0.6, 1.0])
    r2 = np.array([0.1 - 0.2j, 0.3j, -0.2, 0.5])

    def f(z, y):
        w = 1.0 / (z - poles)
        v1 = complex(np.dot(r1, w))
        v2 = complex(np.dot(r2, w))
        return np.array([y[2], y[3], v1 * y[2] - v2 * y[0], v1 * y[3] - v2 * y[1]])

    y = np.array([1, 0, 0, 1], dtype=complex)
    z, h = 3.0 + 2.0j, -0.01 - 0.005j
    for _ in range(PROBE_STEPS):
        k1 = f(z, y)
        k2 = f(z + h / 2, y + h / 2 * k1)
        k3 = f(z + h / 2, y + h / 2 * k2)
        k4 = f(z + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        z += h
    return time.perf_counter() - start


class Runner:
    """Runs operations through `pvi.cli.main` and checks what they wrote.

    Each call writes one file under out_dir; the files stay there until
    check_all reads them after the timed phase.  Only the file names are
    kept, not the calls: check_all is handed the same operations again.
    """

    def __init__(self, cli, out_dir, tracer):
        self.cli = cli
        self.out_dir = out_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.op_times = []  # per timed operation: rescaled, or traced when tracing
        self.raw_times = []  # per timed operation: wall seconds, untraced
        self.probes = []  # probe() seconds, one before the first timed operation and one after each
        self.ratios = []  # traced over untraced seconds of one operation
        self.problems = []
        self.n_ops = 0  # operations taken, warm-up included; one traced is run twice and counts once
        self.kept = []  # (operation number, call index, path, accepted steps or None) of the calls that exited 0
        self.layers = [Counter() for _ in range(5)]  # calls, total, self, counters, per-op sums
        self.first_spans = None

    def _run(self, op):
        self.attempted += 1
        rec = []
        start = time.perf_counter()
        for j, call in enumerate(op):
            path = self.out_dir / f"{self.attempted}.{j}"
            try:
                rc = self.cli.main([*call.argv, "--out", str(path)])
            except Exception as exc:  # an escaped exception fails the operation
                rc = f"{type(exc).__name__}: {exc}"
            rec.append((call, path, rc))
        dt = time.perf_counter() - start
        bad = [(call.kind, rc) for call, _, rc in rec if rc != 0]
        if bad:
            self.failed += 1
            print(f"failed operation {self.attempted}: {bad}", file=sys.stderr)
        return dt, rec

    def _keep(self, rec, accepted=None):
        self.kept.extend((self.n_ops, j, path, accepted) for j, (_, path, rc) in enumerate(rec) if rc == 0)

    def _run_traced(self, op):
        self.tracer.install()
        try:
            dt, rec = self._run(op)
        finally:
            self.tracer.uninstall()
        if self.first_spans is None:
            self.first_spans = [tuple(s) for s in self.tracer.spans]
        calls, total, self_s, counters = self.tracer.take()
        for acc, part in zip(self.layers, (calls, total, self_s, counters)):
            acc.update(part)
        self.layers[4]["bytes_out"] += sum(path.stat().st_size for _, path, _ in rec if path.exists())
        self._keep(rec, counters["rk.accepted"])
        return dt

    def warm_up(self, op):
        self._keep(self._run(op)[1])
        self.n_ops += 1
        if self.tracer is None:
            self.probes.append(probe())

    def run_one(self, op):
        if self.tracer is None:
            dt, rec = self._run(op)
            self._keep(rec)
            self.probes.append(probe())
            self.raw_times.append(dt)
            self.op_times.append(dt * 2 * PROBE_REF_S / (self.probes[-2] + self.probes[-1]))
            self.n_ops += 1
            return
        traced_first = len(self.ratios) % 2 == 0
        if traced_first:
            traced = self._run_traced(op)
        dt, rec = self._run(op)
        self._keep(rec)
        if not traced_first:
            traced = self._run_traced(op)
        self.op_times.append(traced)
        self.ratios.append(traced / dt)
        self.n_ops += 1

    def _check(self, check, call, path, text):
        try:
            found = check(call.spec, text)
        except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            found = [f"output cannot be checked: {type(exc).__name__}: {exc}"]
        self.problems.extend(f"pvi {call.kind} {path.name}: {p}" for p in found)

    def check_all(self, ops):
        """Every check, and the scipy oracle where there is one, on every kept output.

        ops yields the operations in the order the run took them.
        """
        number, op = -1, ()
        for n, j, path, accepted in self.kept:
            while number < n:
                number, op = number + 1, next(ops)
            call = op[j]
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                self.problems.append(f"pvi {call.kind} {path.name}: output cannot be read: {exc}")
                continue
            self._check(checks.CHECKS[call.kind], call, path, text)
            if call.kind in checks.ORACLES:
                self._check(checks.ORACLES[call.kind], call, path, text)
            rows = text.count("\n") - 2  # header and initial sample
            if accepted is not None and call.kind == "flow" and accepted != rows:
                self.problems.append(f"pvi flow {path.name}: rk.accepted {accepted} != {rows} rows after the first")


def timed_rounds(first_round, next_round, seconds, run_one):
    """Run whole rounds while one more round, at the mean round time, fits.

    next_round() makes the next round; its time is left out of the timed
    phase.  Returns the wall time of the timed phase and the number of
    rounds.
    """
    start = time.perf_counter()
    untimed = 0.0
    ops, done = first_round, 0
    while True:
        for op in ops:
            run_one(op)
        done += 1
        t = time.perf_counter()
        elapsed = t - start - untimed
        if elapsed * (done + 1) / done > seconds:
            return elapsed, done
        ops = next_round()
        untimed += time.perf_counter() - t


def layer_values(per_op, n_ops):
    calls, total, self_s, counters, op_sums = per_op
    values = {}
    for name, (source, key) in LAYER_METRICS.items():
        if source == "calls":
            v = calls[key]
        elif source == "counter":
            v = counters[key]
        elif source == "op":
            v = op_sums[key]
        else:
            table = self_s if source == "self" else total
            v = sum(t for k, t in table.items() if k == key or (key.endswith(".") and k.startswith(key)))
        values[name] = v / n_ops
    return values


def layer_table(calls, total, self_s, n_ops):
    lines = [f"{'span':32s} {'calls/op':>12s} {'total s/op':>12s} {'self s/op':>12s}"]
    for name in sorted(calls, key=lambda k: -self_s[k]):
        lines.append(f"{name:32s} {calls[name] / n_ops:12.1f} {total[name] / n_ops:12.6f} {self_s[name] / n_ops:12.6f}")
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    pvi = import_program()
    import_s = time.perf_counter() - _START

    inputs_start = time.perf_counter()
    warmup, next_round = workloads.generate(args.workload, args.seed)
    first_round = next_round()
    inputs_s = time.perf_counter() - inputs_start
    setup_s = time.perf_counter() - _START

    out_dir = OUT / f"{args.workload}.{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = tracing.Tracer(pvi, MODULES) if args.trace else None
    runner = Runner(pvi.cli, out_dir, tracer)
    try:
        runner.warm_up(warmup)
        elapsed, n_rounds = timed_rounds(first_round, next_round, args.seconds, runner.run_one)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check_all(workloads.operations(args.workload, args.seed))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems, op_times = runner.problems, runner.op_times
    for p in problems[:20]:
        print(f"incorrect: {p}", file=sys.stderr)

    n_ops = len(op_times)
    q1, med, q3 = statistics.quantiles(op_times, n=4) if n_ops > 1 else (op_times[0],) * 3
    print(f"{args.workload}: {n_rounds} rounds, {n_ops} operations in {elapsed:.2f} s; "
          f"op_s quartiles {q1:.4f} {med:.4f} {q3:.4f}; {len(problems)} problems", file=sys.stderr)
    if tracer is None:
        probe_s = statistics.median(runner.probes)
        print(f"raw wall time: op_s {statistics.median(runner.raw_times):.4f}, "
              f"ops_per_s {n_ops / sum(runner.raw_times):.4f}, setup_s {setup_s:.4f}; "
              f"median probe {probe_s * 1e3:.3f} ms (reference {PROBE_REF_S * 1e3:.3f} ms)", file=sys.stderr)
        metrics = {
            "op_s": (statistics.median(op_times), "s"),
            "ops_per_s": (n_ops / sum(op_times), "1/s"),
            "setup_s": (setup_s * PROBE_REF_S / probe_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        calls, total, self_s = runner.layers[:3]
        values = layer_values(runner.layers, n_ops)
        metrics = {name: (values[name], UNITS[source]) for name, (source, _) in LAYER_METRICS.items()}
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.inputs_s"] = (inputs_s, "s")
        metrics["trace.overhead"] = (statistics.median(runner.ratios), "ratio")
        table = layer_table(calls, total, self_s, n_ops)
        print(table, file=sys.stderr)
        (OUT / f"layers_{args.workload}.txt").write_text(table + "\n", encoding="utf-8")
        with open(OUT / f"spans_{args.workload}.jsonl", "w", encoding="utf-8") as fh:
            for span in runner.first_spans:
                fh.write(json.dumps(span) + "\n")
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
