"""Command-line front end.

Every subcommand resolves its parameters from flags merged over an optional
JSON config file (flags win), validates them, runs the corresponding
library operation, and emits a JSON envelope carrying the resolved
configuration, the seed in play, the package version, and a wall-clock
stamp — so any output can be replayed exactly.

Exit codes: 0 success, 2 bad parameters or malformed input, 3 enumeration
cap exceeded, 4 a post-hoc internal check failed.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .algebra.field import PrimeField
from .algebra.poly import Poly, format_poly, infer_num_vars, parse_poly
from .bounds import bounds_report, find_l0
from .control import as_int, fresh_seed, trial_rng
from .errors import CapExceeded, InternalCheckError, ValidationError
from .experiments import (
    LinearConfig,
    census,
    dh_counting,
    en_experiment,
    jacobian_witness,
    random_config,
    union_vanishing_codim,
    write_census_csv,
)
from .groebner import sing_dim_deg

__all__ = ["main"]


@dataclass
class RunConfig:
    """Parameters of one invocation after merging flags over the config file."""

    command: str
    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if self.values.get(key) is None:
            raise ValidationError(f"--{key} (or config key {key!r}) is required")
        return self.values[key]

    def require_int(self, key):
        return as_int(key, self.require(key))

    def get_int(self, key, default=None):
        value = self.values.get(key)
        return default if value is None else as_int(key, value)

    def to_json_dict(self):
        out = {}
        for k in sorted(self.values):
            v = self.values[k]
            if v is None:
                continue
            out[k] = v
        return out


_FLAG_KEYS = (
    "n",
    "b",
    "l",
    "p",
    "q",
    "d",
    "trials",
    "seed",
    "window",
    "mode",
    "cap",
    "nvars",
    "format",
)


def _resolve(args) -> RunConfig:
    """Merge the config file under the flags; flags override file values."""
    values = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        values.update(loaded)
    for key in _FLAG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for key in ("text", "out", "random"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(command=args.cmd, values=values)


def _emit(cfg: RunConfig, result, seed=None, out=None, stream=None) -> None:
    """Write the JSON envelope to the file ``out``, else to ``stream``
    (default stdout)."""
    envelope = {
        "command": cfg.command,
        "version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": cfg.to_json_dict(),
        "seed": seed,
        "result": result,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        (stream or sys.stdout).write(text)


def _int_list(key, value) -> tuple:
    """A JSON list of integers as a tuple, or a ValidationError naming ``key``."""
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise ValidationError(f"config key {key!r} must be a list of integers, not {value!r}")
    return tuple(value)


def _field_of(cfg: RunConfig) -> PrimeField:
    p = cfg.require_int("p")
    q = cfg.get_int("q")
    if q is not None and q != p:
        raise ValidationError(
            "q must equal p: prime fields only in this implementation"
        )
    return PrimeField(p)


def _cmd_bounds(cfg: RunConfig) -> int:
    n = cfg.require_int("n")
    b = cfg.require_int("b")
    l = cfg.require_int("l")
    p = cfg.require_int("p")
    q = cfg.get_int("q", p)
    report = bounds_report(
        n,
        b,
        l,
        p,
        q,
        s1_l0=cfg.get("s1_l0"),
        window=cfg.get_int("window", 50),
    )
    _emit(cfg, report.to_json_dict(), out=cfg.get("out"))
    return 0


def _cmd_l0(cfg: RunConfig) -> int:
    n = cfg.require_int("n")
    b = cfg.require_int("b")
    p = cfg.require_int("p")
    window = cfg.get_int("window", 50)
    value = find_l0(n, b, p, window=window)
    if cfg.get("format") == "json":
        _emit(cfg, {"l0_large_d": value}, out=cfg.get("out"))
    else:
        dest = cfg.get("out")
        line = f"{value}\n"
        if dest:
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(line)
        else:
            sys.stdout.write(line)
    return 0


def _cmd_singdim(cfg: RunConfig) -> int:
    text = cfg.require("text")
    field_ = _field_of(cfg)
    nvars = cfg.get_int("nvars", infer_num_vars(text))
    poly = parse_poly(text, nvars, field_)
    dd = sing_dim_deg(poly)
    result = {
        "polynomial": format_poly(poly),
        "nvars": nvars,
        "affine_dim": dd.affine_dim,
        "projective_dim": dd.projective_dim,
        "degree": dd.degree,
    }
    _emit(cfg, result, out=cfg.get("out"))
    return 0


def _cmd_census(cfg: RunConfig) -> int:
    n = cfg.require_int("n")
    b = cfg.require_int("b")
    l = cfg.require_int("l")
    field_ = _field_of(cfg)
    records, summary = census(
        n,
        b,
        l,
        field_,
        mode=cfg.get("mode", "sample"),
        trials=cfg.get_int("trials"),
        seed=cfg.get_int("seed"),
        cap=cfg.get("cap"),
    )
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            write_census_csv(records, fh)
        _emit(cfg, summary.to_json_dict(), seed=summary.seed)
    else:
        write_census_csv(records, sys.stdout)
        _emit(cfg, summary.to_json_dict(), seed=summary.seed, stream=sys.stderr)
    return 0


def _cmd_speccodim(cfg: RunConfig) -> int:
    n = cfg.require_int("n")
    b = cfg.require_int("b")
    l = cfg.require_int("l")
    field_ = _field_of(cfg)
    seed = cfg.get_int("seed")
    random_d = cfg.get_int(
        "random", cfg.get_int("d") if cfg.get("points") is None else None
    )
    if random_d is not None:
        if seed is None:
            seed = fresh_seed()
        config = random_config(n, b, random_d, field_.p, trial_rng(seed, 0))
    else:
        points = cfg.get("points")
        if points is None:
            raise ValidationError(
                "provide member planes via --random D or config key 'points'"
            )
        if not isinstance(points, list):
            raise ValidationError(f"config key 'points' must be a list of lists, not {points!r}")
        infinity = cfg.get("infinity", False)
        if not isinstance(infinity, bool):
            raise ValidationError(f"config key 'infinity' must be true or false, not {infinity!r}")
        config = LinearConfig(
            n,
            b,
            tuple(_int_list(f"points[{i}]", pt) for i, pt in enumerate(points)),
            infinity,
        )
    report = union_vanishing_codim(config, l, field_)
    result = report.to_json_dict()
    result["points"] = [list(pt) for pt in config.points]
    result["infinity"] = config.infinity
    _emit(cfg, result, seed=seed, out=cfg.get("out"))
    return 0


def _cmd_dhcount(cfg: RunConfig) -> int:
    field_ = _field_of(cfg)
    p = field_.p
    z_texts = cfg.get("Z")
    if not z_texts:
        raise ValidationError("config key 'Z' (list of generator strings) is required")
    if not isinstance(z_texts, list) or not all(isinstance(t, str) for t in z_texts):
        raise ValidationError(f"config key 'Z' must be a list of strings, not {z_texts!r}")
    nv_candidates = [infer_num_vars(t) for t in z_texts]
    nvars = cfg.get_int("nvars") or max(nv_candidates)
    z_gens = [parse_poly(t, nvars, field_) for t in z_texts]
    l = cfg.get_int("l")
    tau = cfg.get_int("tau")
    if tau is None:
        if l is None:
            raise ValidationError("provide tau (config) or --l to derive it")
        tau = (l - 1) // p
    f0_text = cfg.get("text") or cfg.get("F0") or "0"
    f0 = parse_poly(f0_text, nvars - 1, field_)
    lhs, rhs = dh_counting(
        f0,
        z_gens,
        tau,
        p,
        p,
        hidden=cfg.get_int("hidden"),
        l=l,
        cap=cfg.get("cap"),
    )
    _emit(
        cfg,
        {"count_lhs": lhs, "count_rhs": rhs, "tau": tau, "nvars": nvars},
        out=cfg.get("out"),
    )
    return 0


def _cmd_witness(cfg: RunConfig) -> int:
    n = cfg.require_int("n")
    b = cfg.require_int("b")
    l = cfg.require_int("l")
    d = cfg.require_int("d")
    field_ = _field_of(cfg)
    f_text = cfg.get("text") or cfg.get("f")
    if f_text is None:
        raise ValidationError("the hypersurface piece f is required (positional or config key 'f')")
    f = parse_poly(f_text, b + 2, field_)
    point = cfg.get("P")
    if point is None:
        raise ValidationError("config key 'P' (point coordinates) is required")
    point = _int_list("P", point)
    char_case = cfg.get("char_case", "two" if field_.p == 2 else "odd")
    res = jacobian_witness(n, b, l, d, f, point, char_case)
    result = {
        "F": format_poly(res.F),
        "jacobian": [list(row) for row in res.jacobian],
        "rank": res.rank,
        "char_case": char_case,
    }
    _emit(cfg, result, out=cfg.get("out"))
    return 0


def _cmd_en_experiment(cfg: RunConfig) -> int:
    n = cfg.require_int("n")
    b = cfg.require_int("b")
    l = cfg.require_int("l")
    field_ = _field_of(cfg)
    trials = cfg.require_int("trials")
    report = en_experiment(n, b, l, field_.p, trials, seed=cfg.get_int("seed"))
    _emit(cfg, report.to_json_dict(), seed=report.seed, out=cfg.get("out"))
    return 0


_HANDLERS = {
    "bounds": _cmd_bounds,
    "l0": _cmd_l0,
    "singdim": _cmd_singdim,
    "census": _cmd_census,
    "speccodim": _cmd_speccodim,
    "dhcount": _cmd_dhcount,
    "witness": _cmd_witness,
    "en-experiment": _cmd_en_experiment,
}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--window", type=int)
    sp.add_argument("--mode", choices=["sample", "exhaustive"])
    sp.add_argument("--cap", type=int)
    sp.add_argument("--nvars", type=int)
    sp.add_argument("--config", help="JSON file with the same keys as the flags")
    sp.add_argument("--out", help="write the primary output to this file")
    sp.add_argument("--format", choices=["csv", "json"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singcensus",
        description="Exact and sampled measurements of singular hypersurfaces "
        "over small prime fields.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    descriptions = {
        "bounds": "closed-form quantities and thresholds as one JSON report",
        "l0": "smallest stable degree threshold for the given (n, b, p)",
        "singdim": "dimension and degree of one hypersurface's singular locus",
        "census": "walk random or all degree-l forms and record singular loci",
        "speccodim": "codimension of forms vanishing on a plane configuration",
        "dhcount": "exhaustive counting dichotomy over chart polynomials",
        "witness": "explicit singular form with certified tangent rank",
        "en-experiment": "sampled frequency of the derivative-locus proxies",
    }
    for name, desc in descriptions.items():
        # no prefix matching: a removed flag must not resolve to another one
        sp = sub.add_parser(name, help=desc, description=desc, allow_abbrev=False)
        _add_common(sp)
        if name == "singdim":
            sp.add_argument("text", help="polynomial, e.g. 'x0^2*x1 + x2^3'")
        if name in ("dhcount", "witness"):
            sp.add_argument(
                "text",
                nargs="?",
                help="polynomial input (dhcount: F0; witness: f)",
            )
        if name == "speccodim":
            sp.add_argument(
                "--random",
                type=int,
                metavar="D",
                help="draw D random member planes instead of reading them "
                "from the config file",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _HANDLERS[args.cmd](cfg)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except InternalCheckError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
