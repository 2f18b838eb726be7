"""Command-line front end.

Every subcommand resolves its parameters from flags merged over an optional
JSON config file (flags win), validates them, runs the corresponding
library operation, and emits a JSON envelope carrying the resolved
configuration, the seed in play, the package version, and a wall-clock
stamp — so any output can be replayed exactly.

Exit codes: 0 success, 2 bad parameters or malformed input, 3 enumeration
cap or size limit exceeded, 4 a post-hoc internal check failed.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .algebra.field import PrimeField
from .algebra.poly import format_poly, infer_num_vars, parse_poly
from .bounds import bounds_report, find_l0
from .control import as_int, check_q_is_p, fresh_seed, trial_rng
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
        if key not in self.values:
            raise ValidationError(f"--{key} (or config key {key!r}) is required")
        return self.values[key]

    def to_json_dict(self):
        return dict(sorted(self.values.items()))


def _typed(what, ok):
    """Check for a config value of one JSON shape; returned as given."""

    def check(key, value):
        if not ok(value):
            raise ValidationError(f"config key {key!r} must be {what}, not {value!r}")
        return value

    return check


def _list_of(ok):
    return lambda value: isinstance(value, list) and all(map(ok, value))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value):
    return isinstance(value, str)


class _OneOf:
    """Check for a key whose value must be one of a few words; its flag
    takes the same words as argparse choices."""

    def __init__(self, *options):
        self.options = options

    def __call__(self, key, value):
        if value not in self.options:
            raise ValidationError(
                f"config key {key!r} must be one of {', '.join(self.options)}, "
                f"not {value!r}"
            )
        return value


_text = _typed("a string", _is_str)

# The common --flags of every subcommand: integers, or one of a few words.
_FLAG_CHECKS = {
    "n": as_int,
    "b": as_int,
    "l": as_int,
    "p": as_int,
    "q": as_int,
    "d": as_int,
    "trials": as_int,
    "seed": as_int,
    "window": as_int,
    "mode": _OneOf("sample", "exhaustive"),
    "cap": as_int,
    "nvars": as_int,
    "format": _OneOf("csv", "json"),
}

# Every key a subcommand reads, from a flag or the config file, with the
# check its value passes once in _resolve.  Unknown config keys pass
# through unchecked and are echoed as given.
_KEYS = {
    **_FLAG_CHECKS,
    "tau": as_int,
    "hidden": as_int,
    "random": as_int,
    "s1_l0": as_int,
    "text": _text,
    "f": _text,
    "F0": _text,
    "char_case": _text,
    "out": _text,
    "points": _typed("a list of integer lists", _list_of(_list_of(_is_int))),
    "P": _typed("a list of integers", _list_of(_is_int)),
    "Z": _typed("a list of strings", _list_of(_is_str)),
    "infinity": _typed("true or false", lambda value: isinstance(value, bool)),
}


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValidationError("config file must hold a JSON object")
    return loaded


def _resolve(args) -> RunConfig:
    """Merge the config file under the flags (flags win) and run each known
    key's value through its check; a null value counts as unset."""
    values = _load_config(args.config) if args.config else {}
    for key in _KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(
        command=args.cmd,
        values={
            key: _KEYS[key](key, value) if key in _KEYS else value
            for key, value in values.items()
            if value is not None
        },
    )


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


def _field_of(cfg: RunConfig) -> PrimeField:
    p = cfg.require("p")
    check_q_is_p(p, cfg.get("q", p))
    return PrimeField(p)


def _cmd_bounds(cfg: RunConfig) -> int:
    p = cfg.require("p")
    report = bounds_report(
        cfg.require("n"),
        cfg.require("b"),
        cfg.require("l"),
        p,
        cfg.get("q", p),
        s1_l0=cfg.get("s1_l0"),
        window=cfg.get("window", 50),
        cap=cfg.get("cap"),
    )
    _emit(cfg, report.to_json_dict(), out=cfg.get("out"))
    return 0


def _cmd_l0(cfg: RunConfig) -> int:
    n, b, p = cfg.require("n"), cfg.require("b"), cfg.require("p")
    value = find_l0(n, b, p, window=cfg.get("window", 50), cap=cfg.get("cap"))
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
    nvars = cfg.get("nvars", infer_num_vars(text))
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
    records, summary = census(
        cfg.require("n"),
        cfg.require("b"),
        cfg.require("l"),
        _field_of(cfg),
        mode=cfg.get("mode", "sample"),
        trials=cfg.get("trials"),
        seed=cfg.get("seed"),
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
    n = cfg.require("n")
    b = cfg.require("b")
    l = cfg.require("l")
    field_ = _field_of(cfg)
    seed = cfg.get("seed")
    points = cfg.get("points")
    random_d = cfg.get("random", cfg.get("d") if points is None else None)
    if random_d is not None:
        if seed is None:
            seed = fresh_seed()
        config = random_config(n, b, random_d, field_.p, trial_rng(seed, 0))
    elif points is None:
        raise ValidationError(
            "provide member planes via --random D or config key 'points'"
        )
    else:
        config = LinearConfig(n, b, points, cfg.get("infinity", False))
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
    nvars = cfg.get("nvars") or max(infer_num_vars(t) for t in z_texts)
    z_gens = [parse_poly(t, nvars, field_) for t in z_texts]
    l = cfg.get("l")
    tau = cfg.get("tau")
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
        hidden=cfg.get("hidden"),
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
    n = cfg.require("n")
    b = cfg.require("b")
    l = cfg.require("l")
    d = cfg.require("d")
    field_ = _field_of(cfg)
    f_text = cfg.get("text") or cfg.get("f")
    if f_text is None:
        raise ValidationError("the hypersurface piece f is required (positional or config key 'f')")
    f = parse_poly(f_text, b + 2, field_)
    point = cfg.get("P")
    if point is None:
        raise ValidationError("config key 'P' (point coordinates) is required")
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
    report = en_experiment(
        cfg.require("n"),
        cfg.require("b"),
        cfg.require("l"),
        _field_of(cfg).p,
        cfg.require("trials"),
        seed=cfg.get("seed"),
    )
    _emit(cfg, report.to_json_dict(), seed=report.seed, out=cfg.get("out"))
    return 0


# Each subcommand's handler and its one-line description.
_HANDLERS = {
    "bounds": (_cmd_bounds, "closed-form quantities and thresholds as one JSON report"),
    "l0": (_cmd_l0, "smallest stable degree threshold for the given (n, b, p)"),
    "singdim": (_cmd_singdim, "dimension and degree of one hypersurface's singular locus"),
    "census": (_cmd_census, "walk random or all degree-l forms and record singular loci"),
    "speccodim": (_cmd_speccodim, "codimension of forms vanishing on a plane configuration"),
    "dhcount": (_cmd_dhcount, "exhaustive counting dichotomy over chart polynomials"),
    "witness": (_cmd_witness, "explicit singular form with certified tangent rank"),
    "en-experiment": (_cmd_en_experiment, "sampled frequency of the derivative-locus proxies"),
}


def _add_common(sp: argparse.ArgumentParser) -> None:
    for key, check in _FLAG_CHECKS.items():
        if isinstance(check, _OneOf):
            sp.add_argument(f"--{key}", choices=check.options)
        else:
            sp.add_argument(f"--{key}", type=int)
    sp.add_argument("--config", help="JSON file with the same keys as the flags")
    sp.add_argument("--out", help="write the primary output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singcensus",
        description="Exact and sampled measurements of singular hypersurfaces "
        "over small prime fields.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (_, desc) in _HANDLERS.items():
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
        return _HANDLERS[args.cmd][0](cfg)
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
