"""Run-to-run spread of the benchmark: one run per seed, one after another.

    python3 perfbench/spread.py --workload rh --seeds 1 2 3 4 5 [--seconds 32]

For each end-to-end metric prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and their distance as a share
of the median, and the failed share of the operations; the same for the
raw wall-time figures and the probe time that run.py prints to standard
error.  The raw results go
to perfbench/out/spread_<workload>_<first seed>.json.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        raw = re.search(r"raw wall time: op_s (\S+), ops_per_s (\S+), setup_s (\S+); median probe (\S+) ms",
                        proc.stderr)
        result["raw"] = dict(zip(("op_s", "ops_per_s", "setup_s", "probe_ms"), map(float, raw.groups())))
        results.append(result)
        values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"{result['failed']}/{result['attempted']} failed {values}", flush=True)

    rows = [(name, [r["metrics"][name]["value"] for r in results]) for name in results[0]["metrics"]]
    rows += [(f"raw {name}", [r["raw"][name] for r in results]) for name in results[0]["raw"]]
    for name, values in rows:
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:16s} median {med:.4f} quartiles {q1:.4f} {q3:.4f} spread {(q3 - q1) / med:.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares {sorted(shares)}")
    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"spread_{args.workload}_{args.seeds[0]}.json"
    out.write_text(json.dumps({"seeds": args.seeds, "results": results}, indent=1) + "\n")


if __name__ == "__main__":
    main()
