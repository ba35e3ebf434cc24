"""morphlab benchmark: one workload and one seed per run.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from src/ beside this
directory.  The workloads (see corpus.py for why each exists):

  spectra        decompose, blocks_as_json, radius enclosure, row and column
                 growth, check_radius_preserved on random and dilated matrices
  periodic       entry_growth(i, j, r) on chains of coprime cycles, demo9.mat
  presentations  parse, normalize, 10^4-symbol prefix check, format
  streams        prefix(n) requests, n from 10^3 to 7*10^5, each with a budget

The run is a single-process closed loop: one caller, each op starting
when the previous one returns.  A pass runs the whole corpus once in a
fresh interpreter (perfbench/worker.py), so morphlab's module caches
start empty as they do for every CLI call.  A pass holds at least 100
ops, so that ten lie beyond the 90th percentile.  Passes repeat until
--seconds have gone, at least MIN_PASSES times.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  Their times
are in reference seconds.  Every op's latency is scaled by
REFERENCE_KERNEL_S over the time worker.kernel() took right before and
right after it, so it reads as if the host ran that integer loop in
1 ms.  Every set-up time is scaled by REFERENCE_STARTUP_S over the time
of the process right after it, which starts an interpreter and imports
what a worker imports besides morphlab (numpy among them), so it reads
as if the host ran that process in 0.18 s.  On a shared host other
tenants slow computation by up to half, in spells of seconds to
minutes, and process start-up by a third, in spells of tens of minutes
that leave the kernel's speed alone; unscaled medians then move by
10-35% from run to run, scaled ones by a third of that.  Neither
reference runs morphlab code, so a change to morphlab cannot change
their time.  Each op's latency is its median over the passes; wall_s
sums them (the corpus time), op_p50_s and op_p90_s are their
percentiles, set-up time is the median over passes and extra
set-up-only processes, and peak memory the median over passes.  The
unscaled figures go to the record in perfbench/out/ and are printed
too.  --trace 1 figures are unscaled, except trace.overhead_s: the
traced pass's op time minus an untraced pass's, in reference seconds.

--trace 1 runs one untraced and one traced pass, times the CLI as
whole processes, and prints the per-layer metrics.  The first pass of
a run and the traced pass check every op's output (oracles.py); an op
fails when it raises an error its input was not built to raise or when
a check fails.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full record, with
run metadata and the corpus digest, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import corpus  # noqa: E402
import oracles  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150
CLI_REPEATS = 3
CLI_SYMBOLS = 10**4
REFERENCE_KERNEL_S = 0.001
REFERENCE_STARTUP_S = 0.18
STARTUP_PROCESS = [sys.executable, "-c", "import argparse, importlib.metadata, json, platform, resource, "
                   "statistics, traceback, fractions, pathlib, numpy"]


class BenchError(Exception):
    """The benchmark could not run to a result."""


def child_env():
    """The environment of every process the benchmark starts.

    Stream budgets are always passed explicitly; dropping the variable
    also keeps the CLI's defaults from depending on the caller.
    """
    env = dict(os.environ)
    env.pop("MORPHLAB_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(workload, seed, mode, spans=None, check=True):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--check", str(int(check))]
    if spans:
        cmd += ["--spans", str(spans)]
    start = perf_counter()
    # unbuffered, so reading the "ready" line leaves the rest for communicate()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, bufsize=0)
    try:
        first = proc.stdout.readline()
        ready = perf_counter()
        rest, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    done = perf_counter()
    if proc.returncode != 0 or first.strip() != b"ready":
        raise BenchError(f"worker {mode} pass failed (exit {proc.returncode}):\n{err.decode()[-3000:]}")
    result = json.loads(rest.decode().strip().splitlines()[-1])
    result["setup_s"] = ready - start
    result["elapsed_s"] = done - start
    return result


def scaled(seconds, kernel_s):
    """Reference seconds: `seconds` as on a host that runs the kernel in REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def timed_process(cmd):
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    return perf_counter() - start, proc


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- CLI probe -------------------------------------------------------------------


def cli_probe():
    """Time bare interpreters, `import morphlab`, and the five subcommands.

    The subcommands run on the bundled inputs: demo9.mat and a
    Baum-Sweet morphism file, both written here.  Returns (metrics,
    one op record per subcommand).
    """
    bs_file = OUT / "baum_sweet.txt"
    uniform, erasing = corpus.BAUM_SWEET_UNIFORM, corpus.BAUM_SWEET_ERASING
    bs_file.write_text(corpus.morphism_file(
        {"s": uniform[0], "t": uniform[1], "f": erasing[0], "g": erasing[1]}, "a", ("f", "g")))
    demo = OUT / "demo9.mat"
    demo.write_text("\n".join(" ".join(map(str, row)) for row in corpus.DEMO9_ROWS) + "\n")
    budget = str(corpus.compare_budget(CLI_SYMBOLS))
    n = str(CLI_SYMBOLS)
    bs_text = oracles.baum_sweet(CLI_SYMBOLS)

    def expanded(out):
        return out.strip().translate(str.maketrans("abcd", "1100")) == bs_text

    def entries(out):
        rows = json.loads(out)["entries"]
        expect = [oracles.cycle_growth(corpus.DEMO9_ROWS, corpus.DEMO9_CYCLES, 0, 8, r) for r in range(6)]
        return [e["vanishes"] for e in rows] == [x is None for x in expect] and all(
            e["d"] == x[2] for e, x in zip(rows, expect) if x is not None)

    cli = [sys.executable, "-m", "morphlab.cli"]
    commands = {
        "analyze": (cli + ["analyze", "--file", str(bs_file), "--morphism", "f", "--json"],
                    lambda out: len(json.loads(out)["letter_growth"]) == 6),
        "normalize": (cli + ["normalize", "--file", str(bs_file), "--check", n, "--budget", budget, "--json"],
                      lambda out: json.loads(out)["verified_prefix"] == CLI_SYMBOLS),
        "expand": (cli + ["expand", "--file", str(bs_file), "--morphism", "s", "--limit", n], expanded),
        "verify": (cli + ["verify", "--file", str(bs_file), "--pair1", "s,t", "--pair2", "f,g",
                          "--len", n, "--budget", budget, "--json"],
                   lambda out: json.loads(out)["equal"] is True),
        "matrix": (cli + ["matrix", "--file", str(demo), "--entries", "1,9", "--rows", "1", "--cols", "9", "--json"],
                   entries),
    }
    records = []
    per_command = []
    for name, (cmd, valid) in commands.items():
        times, problem = [], None
        for _ in range(CLI_REPEATS):
            elapsed, proc = timed_process(cmd)
            times.append(elapsed)
            if proc.returncode != 0:
                problem = f"exit {proc.returncode}: {proc.stderr[-1000:] or proc.stdout[-1000:]}"
            elif problem is None:
                try:
                    if not valid(proc.stdout):
                        problem = "output check failed"
                except (ValueError, KeyError, TypeError) as exc:
                    problem = f"unreadable output: {exc!r}"
        per_command.append(statistics.median(times))
        records.append({"id": f"cli-{name}", "family": "cli", "latency": statistics.median(times),
                        "problem": problem})
    bare = statistics.median(timed_process([sys.executable, "-c", "pass"])[0] for _ in range(SETUP_SAMPLES))
    imported = statistics.median(
        timed_process([sys.executable, "-c", "import morphlab"])[0] for _ in range(SETUP_SAMPLES))
    metrics = {"cli.import_s": imported - bare, "cli.process_s": statistics.fmean(per_command)}
    return metrics, records


# -- runs ------------------------------------------------------------------------


def measured_run(args):
    """Passes until --seconds have gone; end-to-end metrics in reference seconds."""
    passes, setups = [], []

    def setup_sample(result):
        result["startup_s"] = timed_process(STARTUP_PROCESS)[0]
        setups.append(result)
        return result

    start = perf_counter()
    while True:
        # outputs do not change from pass to pass, so one checked pass is enough
        passes.append(setup_sample(run_worker(args.workload, args.seed, "ops", check=not passes)))
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1]["elapsed_s"] > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setup_sample(run_worker(args.workload, args.seed, "setup"))
    # every pass runs the same ops in the same order; an op's latency is
    # its median over the passes
    ops = range(len(passes[0]["ops"]))
    raw = [statistics.median(p["ops"][k]["latency"] for p in passes) for k in ops]
    latencies = [statistics.median(scaled(p["ops"][k]["latency"], p["ops"][k]["kernel_s"]) for p in passes)
                 for k in ops]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * REFERENCE_STARTUP_S / r["startup_s"] for r in setups),
        "wall_s": sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90(latencies),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in passes),
    }
    records = [dict(op, scaled_latency=scaled(op["latency"], op["kernel_s"])) for p in passes for op in p["ops"]]
    detail = {"passes": len(passes), "ops_per_pass": len(latencies),
              "startup_s": [r["startup_s"] for r in setups],
              "raw": {"setup_s": statistics.median(r["setup_s"] for r in setups), "wall_s": sum(raw),
                      "op_p50_s": statistics.median(raw), "op_p90_s": p90(raw)},
              "setup_samples": [r["setup_s"] for r in setups],
              "pass_wall_s": [sum(op["latency"] for op in p["ops"]) for p in passes],
              "environment": {k: passes[0][k] for k in ("python", "numpy")}}
    return metrics, records, detail


def traced_run(args, spans_path, names):
    """An untraced and a traced pass, then the CLI probe: per-layer metrics."""
    plain = run_worker(args.workload, args.seed, "ops")
    traced = run_worker(args.workload, args.seed, "trace", spans=spans_path)
    cli_metrics, cli_records = cli_probe()
    spans, counts = traced["spans"], traced["counts"]
    outputs, consumed = counts.get("streams.io", (0, 0))
    metrics = {}
    for name in names:
        if name.endswith("_s") and name[:-2] in spans:
            metrics[name] = spans[name[:-2]][0]
        elif name in counts:
            metrics[name] = counts[name]
        else:
            metrics[name] = 0
    metrics.update(cli_metrics)
    metrics["streams.output_per_source"] = outputs / consumed if consumed else 0.0
    # in reference seconds, so that a slow spell of the host during one of
    # the two passes does not read as tracing overhead
    metrics["trace.overhead_s"] = (sum(scaled(op["latency"], op["kernel_s"]) for op in traced["ops"])
                                   - sum(scaled(op["latency"], op["kernel_s"]) for op in plain["ops"]))
    records = plain["ops"] + traced["ops"] + traced["tour_ops"] + cli_records
    detail = {"self_s": {name: v[1] for name, v in spans.items()},
              "span_counts": {name: v[2] for name, v in spans.items()},
              "untraced_wall_s": sum(op["latency"] for op in plain["ops"]),
              "traced_op_span_s": traced["op_span_s"],
              "spans_file": str(spans_path.relative_to(ROOT)),
              "environment": {k: plain[k] for k in ("python", "numpy")}}
    return metrics, records, detail


# -- record ----------------------------------------------------------------------


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    """SHA-256 over the library's files, which names the measured code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "morphlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stream_budgets(workload, items):
    if workload not in ("streams", "presentations"):
        return []
    size = "n" if workload == "streams" else "check"
    return [{"op": k, "family": it["family"], "symbols": it[size], "budget": it["budget"]}
            for k, it in enumerate(items)]


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description="morphlab benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "morphlab" / "__init__.py").is_file():
        print(f"run.py: no morphlab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_spec()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    items = corpus.build(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "corpus_sha256": corpus.digest(items),
        "families": corpus.summary(args.workload, items),
        "stream_budgets": stream_budgets(args.workload, items),
    }
    try:
        if args.trace:
            metrics, records, detail = traced_run(args, OUT / f"spans-{tag}.json", per_layer)
        else:
            metrics, records, detail = measured_run(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    units = per_layer if args.trace else end_to_end
    failures = [op for op in records if op["problem"]]
    record.update(detail)
    record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record["attempted"], record["failed"] = len(records), len(failures)
    record["failures"] = failures[:10]
    record["op_latencies"] = [[op["id"], op["family"], op["latency"], op.get("scaled_latency")] for op in records]
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"morphlab benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print(f"  corpus sha256 {record['corpus_sha256']}")
    for fam, info in record["families"].items():
        print(f"  family {fam:24s} {info['ops']:3d} ops  {info['size']} {info['min']}..{info['max']}")
    print(f"  git {record['git_sha']}  source sha256 {record['source_sha256'][:16]}  python "
          f"{record['python']}  numpy {detail['environment']['numpy']}  nproc {record['nproc']}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6f} {unit}")
    if "raw" in detail:
        print("  unscaled: " + "  ".join(f"{k} {v:.6f} s" for k, v in detail["raw"].items()))
    ratio = len(failures) / len(records) if records else 0.0
    print(f"  {'failed_ratio':32s} {ratio:14.6f} ops failed / ops attempted ({len(failures)}/{len(records)})")
    for op in failures[:3]:
        print(f"  FAILED {op['id']} ({op['family']}): {op['problem'].strip().splitlines()[-1]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
