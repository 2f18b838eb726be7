"""singcensus benchmark: end-to-end throughput, set-up time and memory per
workload, or (with --trace 1) where the time goes, layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-cubic-sample --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Each measurement runs in a fresh workload process (perfbench/worker.py) on
the kernel singcensus selects by itself (SINGCENSUS_KERNEL is removed from
its environment).  Load is a closed loop: one caller, one item at a time.
Afterwards this process checks every item with the independent oracles in
oracles.py and compares a digest of the default seed's outputs with the one
stored in digests.json.  Summary lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 when every check passed, 1 when one failed, and 2 when the
benchmark could not run at all.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import loop_ns, to_reference_s  # noqa: E402
from oracles import digest  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
SETUP_ONLY_PROCESSES = 6  # plus the measuring process: median of seven
CHILD_TIMEOUT_S = 160


class BenchError(Exception):
    """The benchmark itself could not run."""


def _spawn(name, seed, seconds, mode, work_dir):
    """Run one workload process; returns its result with setup_s added."""
    out = os.path.join(work_dir, f"{mode}-{len(os.listdir(work_dir))}.json")
    env = dict(os.environ)
    env.pop("SINGCENSUS_KERNEL", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out", out]
    loop_before = loop_ns(5)
    start = time.perf_counter_ns()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} {mode} process ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name} {mode} process exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    loop = (loop_before + result["loop_after_setup_ns"]) / 2
    result["wall_setup_s"] = (result["first_item_ns"] - start) / 1e9
    result["setup_s"] = to_reference_s(result["first_item_ns"] - start, loop)
    return result


def _check(wl, outs):
    """Oracle-check unit outputs: (attempted, failed, digest lines, keys)."""
    attempted = failed = 0
    lines, keys = [], []
    for out in outs:
        items, bad, unit_lines, unit_keys = wl.check_unit(out)
        attempted += items
        failed += bad
        lines += unit_lines
        keys += unit_keys
    return attempted, failed, lines, keys


def _reference_digest(cls, seed, outs, work_dir):
    """Digest of the first units of the default seed's outputs; taken from
    this run when they are the same units, else computed here."""
    n = cls.digest_units
    wl = cls(DEFAULT_SEED, work_dir)
    if not (cls.seed_free or seed == DEFAULT_SEED) or len(outs) < n:
        wl.prepare()
        outs = [wl.run_unit(k, "reference") for k in range(n)]
    return digest(_check(wl, outs[:n])[2])


def _stored_digest(name):
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {DIGESTS}: {exc}") from exc
    if stored.get("seed") != DEFAULT_SEED or name not in stored.get("digests", {}):
        raise BenchError(f"no digest for {name} at seed {DEFAULT_SEED} in {DIGESTS}")
    return stored["digests"][name]


def _commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name, seed, seconds, trace, work_dir):
    """Measure and check one workload; returns (correct, attempted, failed,
    metrics as {name: value}, metadata)."""
    cls = WORKLOADS[name]
    wl = cls(seed, work_dir)
    if trace:
        res = _spawn(name, seed, seconds, "trace", work_dir)
        attempted, failed, lines, keys = _check(wl, res["outputs"])
        t_att, t_failed, t_lines, _ = _check(wl, res["traced_outputs"])
        consistent = t_lines == lines  # tracing must not change a result
        wall_rate = attempted / res["untraced_s"]
        attempted += t_att
        failed += t_failed
        metrics = dict(res["layers"])
        metrics["experiments.projective_repeat_share"] = (
            (len(keys) - len(set(keys))) / len(keys) if keys else 0)
        metrics["trace.overhead_share"] = res["traced_s"] / res["untraced_s"] - 1
        setups = [res]
    else:
        setups = [_spawn(name, seed, seconds, "setup", work_dir)
                  for _ in range(SETUP_ONLY_PROCESSES)]
        res = _spawn(name, seed, seconds, "run", work_dir)
        setups.append(res)
        attempted, failed, _, _ = _check(wl, res["outputs"])
        consistent = True
        wall_rate = (attempted - failed) / res["work_s"]
        metrics = {
            "items_per_s": (attempted - failed) / res["reference_s"],
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mib": res["peak_rss_mib"],
        }
    ref = _reference_digest(cls, seed, res["outputs"], work_dir)
    digest_ok = ref == _stored_digest(name)
    meta = {
        "workload": name, "seed": seed, "trace": int(trace),
        "kernel": res["kernel"], "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": _commit(),
        "failed_share": failed / attempted if attempted else 1.0,
        "wall_items_per_s": wall_rate,
        "wall_setup_s": statistics.median(r["wall_setup_s"] for r in setups),
        "digest": "ok" if digest_ok else "MISMATCH",
        "trace_consistent": consistent,
    }
    correct = failed == 0 and attempted > 0 and digest_ok and consistent
    return correct, attempted, failed, metrics, meta


def _metric_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def record_digests():
    """Compute the default seed's digests and store them in digests.json."""
    work_dir = _work_dir("record")
    try:
        digests = {}
        for name, cls in WORKLOADS.items():
            wl = cls(DEFAULT_SEED, work_dir)
            wl.prepare()
            outs = [wl.run_unit(k, "record") for k in range(cls.digest_units)]
            attempted, failed, lines, _ = _check(wl, outs)
            if failed:
                raise BenchError(f"{name}: {failed} of {attempted} items fail their oracle")
            digests[name] = digest(lines)
            print(f"{name}: {digests[name]}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=2)
        fh.write("\n")


def _work_dir(tag):
    path = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    os.makedirs(path)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's output digests and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "singcensus", "__init__.py")):
        print(f"error: no singcensus sources under {ROOT}/src", file=sys.stderr)
        return 2
    # This process runs the reference units: give it the kernel the
    # workload processes get.
    os.environ.pop("SINGCENSUS_KERNEL", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.record_digests:
        record_digests()
        return 0

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        units = _metric_units(args.trace)
        totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            work_dir = _work_dir(name)
            try:
                correct, attempted, failed, metrics, meta = run_workload(
                    name, args.seed, args.seconds, args.trace, work_dir)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            missing = set(units) - set(metrics)
            if missing:
                raise BenchError(f"{name} did not report {sorted(missing)}")
            print("meta " + json.dumps(meta, sort_keys=True))
            print(f"{name:<28} failed_share {meta['failed_share']:.6g} "
                  f"({failed} of {attempted} items), digest {meta['digest']}")
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, unit in units.items():
                print(f"{name:<28} {metric:<40} {metrics[metric]:.6g} {unit}")
                totals["metrics"][prefix + metric] = {"value": metrics[metric],
                                                      "unit": unit}
            totals["correct"] = totals["correct"] and correct
            totals["attempted"] += attempted
            totals["failed"] += failed
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
