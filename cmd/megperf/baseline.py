"""Measure the megperf baseline: every workload, untraced, twice over the same seeds.

    python3 cmd/megperf/baseline.py

Run it from the root of a checkout. A pass runs every workload once at
each of RUNS seeds, for BENCHMARK.json's run_seconds each, taking the
seeds in turn for all workloads, so that each workload's runs spread
over the whole pass and its quartiles show how the host's speed drifts
during the pass. The pass is made PASSES times over the same seeds.

It writes cmd/megperf/baseline.json with, for each workload, pass and
end-to-end metric, the median, the quartiles (Python's
statistics.quantiles) and the spread (q3 - q1) / median, plus the
per-run job counts. For each workload and metric it records the drift:
how much worse the last pass's median is than the first's, as a share
of the first. A pair holds when every spread except that of setup_s and
the drift stay within the metric's bound. The file also holds the
per-layer metrics of one traced run per workload at the committed seed 1.
"""
import json
import os
import platform
import statistics
import subprocess
import sys

RUNS = 10
FIRST_SEED = 101
PASSES = 2

bench = json.load(open("BENCHMARK.json"))
seconds = bench["run_seconds"]
workloads = [w["name"] for w in bench["workloads"]]
seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
go = subprocess.run(["go", "env", "GOVERSION"], capture_output=True, text=True, check=True).stdout.strip()


def run(name, seed, trace):
    cmd = ["bash", "cmd/megperf/run.sh", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{name} seed {seed} trace {trace} failed:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def summary(values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "samples": len(values)}


# values[name][pass][metric] is the list of per-seed values.
values = {name: [{} for _ in range(PASSES)] for name in workloads}
attempted = {name: [[] for _ in range(PASSES)] for name in workloads}
for p in range(PASSES):
    for seed in seeds:
        for name in workloads:
            res = run(name, seed, 0)
            attempted[name][p].append(res["attempted"])
            for k, v in res["metrics"].items():
                values[name][p].setdefault(k, []).append(v["value"])
            print("pass", p + 1, name, seed, {k: round(v["value"], 6) for k, v in res["metrics"].items()}, flush=True)

out = {
    "runSeconds": seconds,
    "runs": RUNS,
    "passes": PASSES,
    "seeds": seeds,
    "nproc": os.cpu_count(),
    "goVersion": go,
    "machine": platform.machine(),
    "workloads": {},
}
print(f"\n{'workload':22} {'metric':14} {'bound':>6} {'spreads':>14} {'drift':>7}  holds")
for name in workloads:
    passes = [{m["name"]: summary(values[name][p][m["name"]], m["unit"]) for m in bench["end_to_end"]}
              for p in range(PASSES)]
    agreement = {}
    for m in bench["end_to_end"]:
        k, bound = m["name"], m["bound"]
        first, last = passes[0][k]["median"], passes[-1][k]["median"]
        drift = (last - first) / first if m["better"] == "lower" else (first - last) / first
        spreads = [ps[k]["spread"] for ps in passes]
        holds = drift <= bound and (k == "setup_s" or max(spreads) <= bound)
        agreement[k] = {"bound": bound, "spreads": spreads, "drift": drift, "holds": holds}
        print(f"{name:22} {k:14} {bound:6.2f} {' '.join(f'{s:6.3f}' for s in spreads):>14} {drift:7.3f}  {holds}")
    traced = run(name, 1, 1)
    out["workloads"][name] = {
        "jobsPerRun": attempted[name],
        "passes": passes,
        "agreement": agreement,
        "tracedAtSeed1": {"attempted": traced["attempted"], "failed": traced["failed"],
                          "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
    }
with open("cmd/megperf/baseline.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
