"""The three benchmark workloads.

A workload turns the benchmark seed into a sequence of units (one CLI census
call, or one sweep of the specialization grid) and knows how to check a
unit's outputs.  ``run_unit`` is the timed call made in the workload
process; ``check_unit`` runs afterwards, in the benchmark's parent process,
and returns (items, failed items, digest lines, input keys for the repeat
count).
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from oracles import (
    RationalSingularPoints,
    gram_rank_mod3,
    partial_sum_bound,
    projective_class,
)

DEFAULT_SEED = 1
_MASK64 = (1 << 64) - 1


def _census(argv, path):
    """One ``singcensus census`` call writing CSV to path; the envelope the
    CLI prints is captured instead of reaching stdout."""
    from singcensus import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--out", path])
    return {"code": code, "csv": path, "envelope": buf.getvalue()}


def _read_census(out):
    """(rows without the timing column, envelope result) of a census unit.

    Raises ValueError when the unit failed or its outputs are malformed.
    """
    if out.get("error") or out.get("code") != 0:
        raise ValueError(out.get("error") or f"exit code {out.get('code')}")
    with open(out["csv"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    if header[:8] != "seed,trial,q,n,b,l,sing_dim,sing_deg".split(","):
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = [tuple(int(v) for v in line.split(",")[:8]) for line in lines[1:]]
    return rows, json.loads(out["envelope"])["result"]


def _summary_matches(rows, result, b):
    hist = {}
    for row in rows:
        hist[str(row[6])] = hist.get(str(row[6]), 0) + 1
    hits = sum(1 for row in rows if row[6] >= b)
    prob = Fraction(int(result["prob_sing_dim_ge_b"]["num"]),
                    int(result["prob_sing_dim_ge_b"]["den"]))
    return (
        result["histogram"] == hist
        and result["trials"] == len(rows)
        and prob == Fraction(hits, len(rows))
    )


def _digest_lines(rows, result):
    lines = [",".join(map(str, row)) for row in rows]
    lines.append(json.dumps(result, sort_keys=True))
    return lines


class CubicSample:
    name = "census-cubic-sample"
    why = ("Sampled cubic surfaces over F_3 (ROADMAP W1): the Groebner kernel "
           "and the Hilbert numerator dominate, and classes almost never repeat.")
    n, b, l, p = 3, 1, 3, 3
    unit_items = 100
    trace_units = 10
    digest_units = 2
    seed_free = False

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self._rng = random.Random(f"{self.name}/{seed}")
        self._batch_seeds = []
        self._oracle = None

    def batch_seed(self, k):
        while len(self._batch_seeds) <= k:
            self._batch_seeds.append(self._rng.getrandbits(48))
        return self._batch_seeds[k]

    def argv(self, k):
        return [
            "census", "--n", str(self.n), "--b", str(self.b), "--l", str(self.l),
            "--p", str(self.p), "--trials", str(self.unit_items),
            "--seed", str(self.batch_seed(k)),
        ]

    def prepare(self):
        self.argv(0)

    def run_unit(self, k, tag):
        path = os.path.join(self.work_dir, f"{tag}-{k}.csv")
        return dict(_census(self.argv(k), path), unit=k, items=self.unit_items)

    def _form_coeffs(self, seed, index):
        """The form the census drew for (seed, index), regenerated from the
        documented per-trial stream: Random(((seed mod 2^64) << 32) ^ index)."""
        from singcensus.algebra import GradedSpace, PrimeField

        if self._oracle is None:
            space = GradedSpace(PrimeField(self.p), self.n + 1, self.l,
                                GradedSpace.HOMOGENEOUS)
            self._space = space
            self._oracle = RationalSingularPoints(space.monomials, self.p)
        rng = random.Random(((seed & _MASK64) << 32) ^ index)
        form = self._space.sample_nonzero(rng)
        return [form.terms.get(m, 0) for m in self._space.monomials]

    def check_unit(self, out):
        items = out["items"]
        try:
            rows, result = _read_census(out)
        except (OSError, ValueError, KeyError) as exc:
            return items, items, [f"error {exc}"], []
        seed = self.batch_seed(out["unit"])
        lines = _digest_lines(rows, result)
        if (len(rows) != items or result["seed"] != seed
                or not _summary_matches(rows, result, self.b)):
            return items, items, lines, []
        failed = 0
        keys = []
        for i, row in enumerate(rows):
            coeffs = self._form_coeffs(seed, i)
            keys.append(projective_class(coeffs, self.p))
            ok = row[:6] == (seed, i, self.p, self.n, self.b, self.l)
            dim, deg = row[6], row[7]
            ok = ok and -1 <= dim <= self.n - 1 and (deg == 0) == (dim == -1)
            if ok and dim == -1 and self._oracle.has_point(coeffs):
                ok = False  # a rational singular point forces sing_dim >= 0
            failed += not ok
        return items, failed, lines, keys


class QuadricExhaustive:
    name = "census-quadric-exhaustive"
    why = ("Every quadric surface over F_3 (criterion 06): per-form glue "
           "dominates, each projective class appears twice, all records are held.")
    histogram = {"-1": 37908, "0": 18720, "1": 2340, "2": 80}
    unit_items = 3**10 - 1
    trace_units = 1
    digest_units = 1
    seed_free = True
    ARGV = ["census", "--n", "3", "--b", "1", "--l", "2", "--p", "3",
            "--mode", "exhaustive"]

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir

    def prepare(self):
        pass

    def run_unit(self, k, tag):
        path = os.path.join(self.work_dir, f"{tag}-{k}.csv")
        return dict(_census(self.ARGV, path), unit=k, items=self.unit_items)

    def check_unit(self, out):
        from singcensus.algebra import monomials_of_degree

        items = out["items"]
        try:
            rows, result = _read_census(out)
        except (OSError, ValueError, KeyError) as exc:
            return items, items, [f"error {exc}"], []
        lines = _digest_lines(rows, result)
        if (len(rows) != items or result["histogram"] != self.histogram
                or not _summary_matches(rows, result, 1)):
            return items, items, lines, []
        mons = monomials_of_degree(4, 2)
        failed = 0
        keys = []
        for expect, row in enumerate(rows, start=1):
            code = row[1]
            coeffs = [(code // 3**i) % 3 for i in range(len(mons))]
            keys.append(projective_class(coeffs, 3))
            dim = 3 - gram_rank_mod3(coeffs, mons)
            ok = code == expect and row[0] == 0 and row[2:6] == (3, 3, 1, 2)
            ok = ok and row[6] == dim and row[7] == (1 if dim >= 0 else 0)
            failed += not ok
        return items, failed, lines, keys


class SpeccodimGrid:
    name = "speccodim-grid"
    why = ("Criterion-05 dual-oracle grid: packed-row linear algebra and "
           "elimination-order Buchberger for intersections, with no Hilbert step.")
    unit_items = sum(l + 1 for l in range(1, 9))
    trace_units = 4
    digest_units = 2
    seed_free = False

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self._prepared = {}

    def configs(self, k):
        """Sweep k: one random configuration per cell l = 1..8, m = 1..l+1."""
        from singcensus import experiments

        rng = random.Random(f"{self.name}/{self.seed}/{k}")
        out = []
        for l in range(1, 9):
            for m in range(1, l + 2):
                while True:
                    n = rng.choice([3, 4])
                    b = rng.choice([1, 2])
                    p = rng.choice([2, 3, 5])
                    if p ** (n - b) + 1 >= m:
                        break
                out.append((l, p, experiments.random_config(n, b, m, p, rng)))
        return out

    def prepare(self):
        self._prepared[0] = self.configs(0)

    def run_unit(self, k, tag):
        from singcensus import algebra, experiments

        configs = self._prepared.pop(k, None) or self.configs(k)
        rows = []
        for l, p, cfg in configs:
            row = {"n": cfg.n, "b": cfg.b, "p": p, "l": l,
                   "points": [list(pt) for pt in cfg.points],
                   "infinity": cfg.infinity}
            try:
                field = algebra.PrimeField(p)
                rep = experiments.union_vanishing_codim(cfg, l, field)
                row["mu"] = list(rep.mu_sequence)
                row["codim"] = rep.codim
                row["groebner_codim"] = experiments.groebner_union_codim(cfg, l, field)
            except Exception as exc:  # a failed item is counted, not fatal
                row["error"] = repr(exc)
            rows.append(row)
        return {"unit": k, "items": len(rows), "rows": rows}

    def check_unit(self, out):
        failed = 0
        lines = []
        keys = []
        for row in out["rows"]:
            n, b, l = row["n"], row["b"], row["l"]
            m = len(row["points"]) + row["infinity"]
            keys.append(json.dumps([n, b, row["p"], l, row["points"], row["infinity"]]))
            if "error" in row:
                failed += 1
                lines.append(f"error {row['error']}")
                continue
            mu, codim = row["mu"], row["codim"]
            ok = (
                codim == row["groebner_codim"]
                and codim >= partial_sum_bound(l, m, b)
                and len(mu) == m
                and mu[-1] == codim
                and all(x <= y for x, y in zip(mu, mu[1:]))
            )
            failed += not ok
            lines.append(json.dumps([keys[-1], mu, codim, row["groebner_codim"]]))
        return out["items"], failed, lines, keys


WORKLOADS = {w.name: w for w in (CubicSample, QuadricExhaustive, SpeccodimGrid)}
