#!/usr/bin/env python3
"""Maintenance commands for the benchmark, run from the repository root.

    python3 perfbench/tools.py record              # refill reference.json's sim statistics
    python3 perfbench/tools.py spread [runs] [seconds] [first_seed] [workload...]
                                                    # runs per workload -> a set in SPREAD.json
    python3 perfbench/tools.py spread-traced [runs] [seconds] [first_seed] [workload...]
                                                    # the same for the per-layer metrics -> SPREAD_TRACED.json
    python3 perfbench/tools.py selfcheck [seconds] # the decorators must trip the checks and the bound

`spread` prints, per workload and end-to-end metric, the median and the
interquartile range as a share of the median (the figure the bound in
BENCHMARK.json is compared with), and records them in SPREAD.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def bench():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace=0, extra=(), env=None):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    lines = out.stdout.splitlines()
    return out.returncode, lines


def record():
    with open(REFERENCE) as f:
        ref = json.load(f)
    env = dict(os.environ, PERFBENCH_RECORD="1")
    slots = ref["sim-2d-online"]["slots"]
    for i in range(len(slots)):
        code, lines = run("sim-2d-online", i, 1, env=env)
        row = next(json.loads(l) for l in lines if l.startswith("{\"sim_seed\""))
        assert code == 0 and row["sim_seed"] == slots[i]["sim_seed"], (code, lines)
        slots[i] = row
        print(json.dumps(row))
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")


def spread(runs, seconds, first_seed, workloads, trace=0):
    """Runs seeds first_seed.. first_seed+runs-1 on each workload and records
    the set in SPREAD.json under "seeds <first>-<last>"; with more than one
    set recorded, prints how far each set's median is from the first's.
    With trace=1 the per-layer metrics are recorded instead, in
    SPREAD_TRACED.json."""
    b = bench()
    metrics = b["per_layer"] if trace else b["end_to_end"]
    names = [m["name"] for m in metrics]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    path = os.path.join(HERE, "SPREAD_TRACED.json" if trace else "SPREAD.json")
    record = {}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    seeds = list(range(first_seed, first_seed + runs))
    key = f"seeds {seeds[0]}-{seeds[-1]}"
    record.setdefault(key, {"runs": runs, "seconds": seconds, "nproc": os.cpu_count()})
    for w in workloads or [x["name"] for x in b["workloads"]]:
        values = {n: [] for n in names}
        for seed in seeds:
            code, lines = run(w, seed, seconds, trace)
            res = json.loads(lines[-1])
            assert code == 0 and res["correct"], (w, seed, lines[-1])
            for n in names:
                values[n].append(res["metrics"][n]["value"])
        rows = {}
        for n in names:
            q = statistics.quantiles(values[n], n=4)
            med = statistics.median(values[n])
            iqr = (q[2] - q[0]) / abs(med) if med else None
            rows[n] = {"median": med, "iqr_frac": iqr, "bound": bounds[n], "values": values[n]}
            print(f"{w:16} {n:28} median {med:14.6g}  iqr/median {iqr}  bound {bounds[n]}", flush=True)
        record[key][w] = rows
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    first = next(iter(record))
    for other in [] if trace else list(record)[1:]:
        for w in workloads or [x["name"] for x in b["workloads"]]:
            for n in names:
                a, c = record[first][w][n]["median"], record[other][w][n]["median"]
                print(f"{w:16} {n:16} {first} -> {other}: median moved {(c - a) / a:+.4f} (bound {bounds[n]})")


def selfcheck(seconds):
    """A wrong endpoint must fail the run; a fixed delay per path must move
    ops_per_s past its bound."""
    b = bench()
    bound = next(m["bound"] for m in b["end_to_end"] if m["name"] == "ops_per_s")
    code, lines = run("route-2d-long", 1, seconds, extra=["--inject", "wrong-endpoint"])
    res = json.loads(lines[-1])
    ok_frac = res["metrics"]["ops_ok_frac"]["value"]
    assert code != 0 and not res["correct"] and res["failed"] > 0 and ok_frac < 1, lines[-1]
    print(f"wrong-endpoint: exit {code}, failed {res['failed']} of {res['attempted']}, ops_ok_frac {ok_frac}")
    base = json.loads(run("route-2d-long", 1, seconds)[1][-1])["metrics"]["ops_per_s"]["value"]
    code, lines = run("route-2d-long", 1, seconds, extra=["--inject", "delay-us=10"])
    slow = json.loads(lines[-1])["metrics"]["ops_per_s"]["value"]
    drop = 1 - slow / base
    assert code == 0 and drop > bound, (base, slow, bound)
    print(f"delay 10 us/path: ops_per_s {base:.0f} -> {slow:.0f}, drop {drop:.3f} > bound {bound}")


def main():
    cmd, rest = sys.argv[1], sys.argv[2:]
    if cmd == "record":
        record()
    elif cmd == "spread":
        spread(int(rest[0]) if rest else 10, float(rest[1]) if len(rest) > 1 else bench()["run_seconds"],
               int(rest[2]) if len(rest) > 2 else 1, rest[3:])
    elif cmd == "spread-traced":
        spread(int(rest[0]) if rest else 5, float(rest[1]) if len(rest) > 1 else bench()["run_seconds"],
               int(rest[2]) if len(rest) > 2 else 1, rest[3:], trace=1)
    elif cmd == "selfcheck":
        selfcheck(float(rest[0]) if rest else 4)
    else:
        sys.exit(f"unknown command {cmd}")


if __name__ == "__main__":
    main()
