"""Benchmark of conceptkit's pipelines through their real entry point,
``conceptkit.cli.main(argv)``.

Run from the root of a checkout::

    python3 bench/run.py --workload sentiment --seed 1 --seconds 30 --trace 0

Each workload is a closed loop in one process: one caller and one CLI call at
a time, with no threads beyond numpy's BLAS, which is capped at the number of
CPUs this process may use. After one untimed warm-up pass, the loop repeats a
pass of the workload's CLI calls for ``--seconds`` and reports medians over
those passes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead, and whether tracing changed any artifact. Both print a run record
and the digest of the generated inputs, then the metrics, and end with one
JSON line. Spans and a summary go to ``.bench_out/`` in the checkout.

The benchmark checks every call: exit code 0, every output written, reports
parsed with finite in-range values, and artifacts byte-identical across
passes (traced or not) of one seed. A call that misses any check is failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 7
SETUP_TIMEOUT_S = 120


def nproc():
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["sentiment", "rerank", "typing"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def setup(workload, seed, work):
    """Generate the inputs ``SETUP_REPS`` times, each in a fresh interpreter.

    Returns the per-rep wall times, the set of input digests (one element
    when generation is deterministic) and the paths of the first rep's files.
    """
    times, digests, paths = [], set(), None
    for k in range(SETUP_REPS):
        out = os.path.join(work, f"inputs{k}")
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "inputs.py"), workload, str(seed), out],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        times.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.splitlines()[-1])
        digests.add(record["digest"])
        if paths is None:
            paths = record["paths"]
        else:
            shutil.rmtree(out)
    return times, digests, paths


# ---------------------------------------------------------------------------
# one pass


def _hash_dir(path):
    hashes, size = {}, 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            data = f.read()
        hashes[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return hashes, size


def run_pass(cli, workloads, workload, paths, out_dir, tracer=None):
    """Run the workload's CLI calls once; return timings and check results."""
    os.makedirs(out_dir)
    calls = workloads.calls(workload, paths, out_dir)
    rec = {"train": 0.0, "eval": 0.0, "failed": set(), "problems": [], "report": None}
    for i, call in enumerate(calls):
        if rec["failed"]:  # later calls read what the failed one should have written
            rec["failed"].add(i)
            continue
        captured = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                if tracer is None:
                    rc = cli.main(call.argv)
                else:
                    tracer.call_id = i
                    with tracer.span(f"cli.{call.argv[0]}"):
                        rc = cli.main(call.argv)
        except Exception:  # a crash is a failed call, reported with its traceback
            rc = None
            captured.write(traceback.format_exc())
        rec[call.role] += time.perf_counter() - t
        problem = None
        if rc != 0:
            problem = f"exit code {rc}"
        elif any(not os.path.isfile(p) or os.path.getsize(p) == 0 for p in call.outputs):
            problem = "an output file is missing or empty"
        elif call.report:
            try:
                rec["report"] = workloads.check_report(workload, call.report)
            except (OSError, ValueError) as exc:
                problem = f"bad report: {exc}"
        if problem:
            rec["failed"].add(i)
            rec["problems"].append(f"{call.argv[0]}: {problem}\n{captured.getvalue()[-2000:]}")
    rec["hashes"], rec["bytes"] = _hash_dir(out_dir)
    rec["owner"] = {os.path.basename(p): i for i, c in enumerate(calls) for p in c.outputs}
    rec["calls"] = len(calls)
    shutil.rmtree(out_dir)
    return rec


def compare(rec, reference):
    """Fail every call whose artifacts differ from the reference pass."""
    if rec is reference:
        return
    for name in set(rec["hashes"]) | set(reference["hashes"]):
        if rec["hashes"].get(name) != reference["hashes"].get(name):
            i = rec["owner"].get(name, rec["calls"] - 1)
            rec["failed"].add(i)
            rec["problems"].append(f"{name}: bytes differ from the warm-up pass")


# ---------------------------------------------------------------------------
# run record


def run_record(workload, seed, digests):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    src_lines += sum(1 for _ in f)
    return {
        "workload": workload,
        "seed": seed,
        "input_digest": ",".join(sorted(digests)),
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# main


def measure(args, cli, inputs, workloads, work):
    """Set up, run passes for ``args.seconds``, and compute every metric.

    Returns the run record, the metric rows (``name -> (value, unit, note)``),
    the calls attempted and failed, and a description of each failure.
    """
    setup_times, digests, paths = setup(args.workload, args.seed, work)
    problems = []
    if len(digests) != 1:
        problems.append("set-up runs of one seed generated different inputs")
    record = run_record(args.workload, args.seed, digests)
    train_hyps = 0
    if args.workload == "rerank":
        train_hyps = inputs.RERANK["train"] * inputs.RERANK["depth"]

    tracer = None
    rows = {}
    if args.trace:
        import layers
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            files = inputs.generate(args.workload, args.seed)
            traced_paths = inputs.write(args.workload, files, os.path.join(work, "traced-inputs"))
        finally:
            tracer.uninstall()
        if inputs.digest(traced_paths) not in digests:
            problems.append("traced input generation wrote different inputs")
        synth = layers.PassView(tracer)
        rows["synth.generate_s"] = (
            sum(synth.total(f"synth.{f}") for f in ("synth_tsa", "synth_nbest", "synth_fnet")),
            "s", "in-process generation, traced")

    # The warm-up pass pays one-time costs of the process (allocator growth,
    # lazy imports) that later passes do not; it is checked but not timed,
    # and the measured seconds start after it. Then at least one pass (or one
    # untraced and traced pair) runs, and no further one starts that would
    # end past the deadline, judging by the length of the last one.
    warm = run_pass(cli, workloads, args.workload, paths, os.path.join(work, "warm"))
    passes, traced, layer_rows = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        k = len(passes) + len(traced)
        rec = run_pass(cli, workloads, args.workload, paths, os.path.join(work, f"pass{k}"))
        passes.append(rec)
        compare(rec, warm)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                rec = run_pass(cli, workloads, args.workload, paths,
                               os.path.join(work, f"pass{k + 1}"), tracer)
            finally:
                tracer.uninstall()
            traced.append(rec)
            compare(rec, warm)
            layer_rows.append(layers.per_layer(layers.PassView(tracer), args.workload,
                                               train_hyps).rows)
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"trace-{args.workload}.npz"))

    all_passes = [warm] + passes + traced
    for rec in all_passes:
        problems.extend(rec["problems"])

    med = statistics.median
    wall = [r["train"] + r["eval"] for r in passes]
    if args.trace:
        traced_wall = [r["train"] + r["eval"] for r in traced]
        overhead = med(traced_wall) - med(wall)
        record["tracing_overhead_s"] = round(overhead, 4)
        rows["trace.overhead_frac"] = (overhead / med(wall), "ratio",
                                       f"{overhead:.4f} s / {med(wall):.4f} s untraced")
        for name in layer_rows[0]:
            _, unit, note, moves = layer_rows[-1][name]
            value = med([r[name][0] for r in layer_rows])
            rows[name] = (value, unit, f"{note}; moves {moves}" if note else f"moves {moves}")
        record["absent"] = tracer.absent
    else:
        score = (workloads.task_score(args.workload, warm["report"])
                 if warm["report"] is not None else 0.0)
        rows.update({
            "setup_s": (med(setup_times), "s", f"median of {len(setup_times)} set-ups"),
            "train_s": (med([r["train"] for r in passes]), "s",
                        f"median of {len(passes)} passes after the warm-up"),
            "eval_s": (med([r["eval"] for r in passes]), "s",
                       f"median of {len(passes)} passes after the warm-up"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB", "whole benchmark process"),
            "artifact_mb": (warm["bytes"] / 1e6, "MB", "all files written by one pass"),
            "task_score": (score, "score", workloads.SCORE[args.workload]),
        })
    attempted = sum(r["calls"] for r in all_passes)
    failed = sum(len(r["failed"]) for r in all_passes)
    rows["failed_frac"] = (failed / attempted, "share", f"{failed} of {attempted} calls")
    for label, recs in (("warmup", [warm]), ("untraced", passes), ("traced", traced)):
        if recs:
            record[f"{label}_passes"] = len(recs)
            record[f"{label}_pass_train_s"] = [round(r["train"], 4) for r in recs]
            record[f"{label}_pass_eval_s"] = [round(r["eval"], 4) for r in recs]
    return record, rows, attempted, failed, problems


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc()))
    import inputs
    import workloads

    try:
        cli = inputs.import_conceptkit()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = os.path.join(ROOT, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        record, rows, attempted, failed, problems = measure(args, cli, inputs, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"# why: {why[args.workload]}")
    for key, value in record.items():
        print(f"# {key}: {value}")
    for problem in problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    for name, (value, unit, note) in rows.items():
        print(f"{name} = {value:.6g} {unit}  ({note})")
    metrics = {}
    for m in wanted:
        value, unit, _ = rows[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit!r} but BENCHMARK.json says {m['unit']!r}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    summary = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(summary, "w", encoding="utf-8") as f:
        json.dump({"record": record, "metrics": rows, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
