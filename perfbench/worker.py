"""The workload process: one fresh interpreter per measurement.

Started by run.py as

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode setup|run|trace --out FILE

``setup`` stops when the first item would begin.  ``run`` times whole units
with tracing off until the next unit would overrun T seconds (at least one
unit), sampling host speed meanwhile (calibrate.py).  ``trace`` runs a fixed number of units twice each, untraced and
traced, so that counts repeat exactly and the two times give the tracing
overhead.  The result, with every unit's outputs, goes to FILE as JSON.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from calibrate import SpeedProbe, loop_ns  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer self-time metrics and the spans each one sums.
SELF_TIME_METRICS = {
    "cli.self_ms": ["cli.main"],
    "experiments.census_self_ms": ["experiments.census"],
    "experiments.csv_ms": ["experiments.write_census_csv"],
    "experiments.substitution_ms": ["experiments.union_vanishing_codim"],
    "experiments.groebner_route_ms": ["experiments.groebner_union_codim"],
    "algebra.sample_ms": ["algebra.sample"],
    "algebra.partials_ms": ["algebra.partials"],
    "algebra.linalg_ms": ["algebra.linalg"],
    "groebner.locus_ms": [
        "groebner.sing_dim_deg",
        "groebner.singular_locus_ideal",
        "groebner.projective_dimension_degree",
        "groebner.dimension_degree",
    ],
    "groebner.glue_ms": ["groebner.buchberger"],
    "groebner.kernel_ms": ["groebner.kernel"],
    "groebner.lead_ms": ["groebner.lead"],
    "groebner.staircase_ms": ["groebner.staircase"],
    "groebner.hilbert_ms": ["groebner.hilbert"],
    "groebner.intersect_ms": ["groebner.intersect_ideals", "groebner.intersect_many"],
    "groebner.graded_piece_ms": ["groebner.graded_piece_dimension"],
    "bounds.ms": ["bounds"],
}


def peak_rss_mib():
    """High-water resident set of this process (VmHWM), in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_unit(wl, k, tag):
    try:
        return wl.run_unit(k, tag)
    except Exception as exc:  # the unit's items count as failed
        return {"unit": k, "items": wl.unit_items, "error": repr(exc)}


def run_timed(wl, seconds):
    """Whole units until the next one, at the mean unit time so far, would
    end past ``seconds`` (at least one); returns (outputs, SpeedProbe)."""
    outs = []
    with SpeedProbe() as probe:
        t0 = time.perf_counter_ns()
        while True:
            outs.append(run_unit(wl, len(outs), "run"))
            elapsed = (time.perf_counter_ns() - t0) / 1e9
            if elapsed * (len(outs) + 1) / len(outs) > seconds:
                break
    return outs, probe


def run_traced(wl, tracer, replay):
    """Each of the first ``wl.trace_units`` units untraced, then traced.

    Alternating unit by unit keeps drift in machine speed out of the
    overhead estimate.  Returns (untraced outputs, traced outputs,
    untraced s, traced s).
    """
    plain, traced = [], []
    plain_ns = traced_ns = 0
    for k in range(wl.trace_units):
        t0 = time.perf_counter_ns()
        plain.append(run_unit(wl, k, "plain"))
        plain_ns += time.perf_counter_ns() - t0
        install(tracer, replay)
        try:
            t0 = tracer.now()
            traced.append(run_unit(wl, k, "traced"))
            traced_ns += tracer.now() - t0
        finally:
            tracer.restore()
    return plain, traced, plain_ns / 1e9, traced_ns / 1e9


def install(tracer, replay):
    """Wrap the public functions at every layer boundary of singcensus."""
    from singcensus import KernelCapacityError, bounds, cli, experiments, groebner
    from singcensus.algebra import GradedSpace, Poly
    from singcensus.algebra.linalg import RowEchelonGF
    from singcensus.groebner import GroebnerBasis, hilbert, kernel, kernel_pure

    def on_kernel(result, args):
        tracer.add("kernel_calls")
        tracer.add("kernel_input_gens", len(args[0]))
        tracer.add("basis_gens", len(result))
        if replay:
            tracer.pause(replay_pure, args, result)

    def replay_pure(args, result):
        t0 = time.perf_counter_ns()
        pure = kernel_pure.reduced_groebner(*args)
        tracer.add("replay_ns", time.perf_counter_ns() - t0)
        if _canonical(pure) != _canonical(result):
            tracer.add("parity_mismatches")

    def on_row(result, args):
        tracer.add("linalg_rows")
        tracer.add("linalg_rank_rows", bool(result))

    tracer.patch_function("cli.main", cli.main)
    for name in ("census", "write_census_csv", "union_vanishing_codim",
                 "groebner_union_codim"):
        tracer.patch_function(f"experiments.{name}", getattr(experiments, name))
    for name in ("sing_dim_deg", "singular_locus_ideal",
                 "projective_dimension_degree", "buchberger", "intersect_ideals",
                 "intersect_many", "graded_piece_dimension"):
        tracer.patch_function(f"groebner.{name}", getattr(groebner, name))
    tracer.patch_function("groebner.kernel", kernel.reduced_groebner, on_kernel)
    tracer.patch_function("groebner.dimension_degree",
                          hilbert.dimension_degree_from_leads)
    tracer.patch_function("groebner.staircase", hilbert.staircase_dimension)
    tracer.patch_function("groebner.hilbert", hilbert.hilbert_numerator)
    for name, fn in list(vars(bounds).items()):
        if callable(fn) and getattr(fn, "__module__", None) == bounds.__name__ \
                and not name.startswith("_") and not isinstance(fn, type):
            tracer.patch_function("bounds", fn)
    tracer.patch_attr(GroebnerBasis, "lead_exponents", "groebner.lead")
    tracer.patch_attr(Poly, "partial", "algebra.partials")
    tracer.patch_attr(GradedSpace, "sample_nonzero", "algebra.sample")
    tracer.patch_attr(GradedSpace, "iter_all", "algebra.sample", generator=True)
    tracer.patch_attr(RowEchelonGF, "add_row_sparse", "algebra.linalg", on_row)
    tracer.patch_attr(RowEchelonGF, "add_row", "algebra.linalg", on_row)

    # Compiled entry points give up by raising KernelCapacityError; the
    # dispatcher then retries in pure Python.  Count those give-ups.
    fast = kernel._speedups
    if fast is not None:
        for attr in ("reduced_groebner", "normal_form"):
            tracer.replace(fast, attr, _counting_fallbacks(
                tracer, getattr(fast, attr), KernelCapacityError))


def _counting_fallbacks(tracer, fn, error):
    def counted(*args):
        try:
            return fn(*args)
        except error:
            tracer.add("kernel_fallbacks")
            raise

    return counted


def _canonical(basis):
    return [[(tuple(e), c) for e, c in poly] for poly in basis]


def _percentile(sorted_values, q):
    """Nearest-rank percentile of a sorted list."""
    idx = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[idx]


def layer_metrics(tracer, kernel_label):
    totals, durations = tracer.self_ns(["groebner.sing_dim_deg"])
    out = {m: sum(totals.get(s, 0) for s in spans) / 1e6
           for m, spans in SELF_TIME_METRICS.items()}
    counts = tracer.counts
    out["groebner.kernel_calls"] = counts.get("kernel_calls", 0)
    out["groebner.kernel_input_gens"] = counts.get("kernel_input_gens", 0)
    out["groebner.basis_gens"] = counts.get("basis_gens", 0)
    out["groebner.kernel_fallbacks"] = counts.get("kernel_fallbacks", 0)
    # With the pure kernel active the recorded kernel time is the pure time.
    out["groebner.kernel_pure_replay_ms"] = (
        counts.get("replay_ns", 0) / 1e6 if kernel_label == "fast"
        else out["groebner.kernel_ms"])
    out["groebner.kernel_parity_mismatches"] = counts.get("parity_mismatches", 0)
    rows = counts.get("linalg_rows", 0)
    out["algebra.linalg_rows"] = rows
    out["algebra.linalg_row_yield"] = counts.get("linalg_rank_rows", 0) / rows if rows else 0
    per_form = sorted(durations["groebner.sing_dim_deg"])
    out["groebner.sing_dim_deg_samples"] = len(per_form)
    out["groebner.sing_dim_deg_ms_p50"] = _percentile(per_form, 50) / 1e6 if per_form else 0
    out["groebner.sing_dim_deg_ms_p99"] = _percentile(per_form, 99) / 1e6 if per_form else 0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    # Everything up to the first item is set-up: imports, kernel selection
    # (made when the kernel module is imported) and input generation.
    import singcensus.algebra  # noqa: F401
    import singcensus.bounds  # noqa: F401
    import singcensus.cli  # noqa: F401
    import singcensus.experiments  # noqa: F401
    from singcensus.groebner import kernel_name

    wl = WORKLOADS[args.workload](args.seed, os.path.dirname(args.out))
    wl.prepare()
    result = {"first_item_ns": time.perf_counter_ns(), "kernel": kernel_name(),
              "loop_after_setup_ns": loop_ns(5)}
    if args.mode == "run":
        outs, probe = run_timed(wl, args.seconds)
        result.update(peak_rss_mib=peak_rss_mib(), work_s=probe.work_s,
                      reference_s=probe.reference_s, outputs=outs)
    elif args.mode == "trace":
        tracer = Tracer()
        plain, traced, plain_s, traced_s = run_traced(
            wl, tracer, replay=kernel_name() == "fast")
        result.update(outputs=plain, traced_outputs=traced,
                      untraced_s=plain_s, traced_s=traced_s,
                      layers=layer_metrics(tracer, kernel_name()))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
