import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcensus.cli import main
from singcensus.errors import InternalCheckError

ENVELOPE_KEYS = {"command", "version", "generated_at", "config", "seed", "result"}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _envelope(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_bounds_envelope(capsys):
    env = _envelope(capsys, ["bounds", "--n", "3", "--b", "1", "--l", "7", "--p", "2"])
    assert set(env) == ENVELOPE_KEYS
    assert env["command"] == "bounds"
    assert env["version"] == "0.1.0"
    assert env["seed"] is None
    assert env["config"] == {"b": 1, "l": 7, "n": 3, "p": 2}
    res = env["result"]
    assert res["a_nb"] == 19
    assert res["A_table"] == {"1": 4, "2": 7, "3": 9, "4": 10}
    assert res["l0_large_d"] == 21


def test_bounds_repeatable_modulo_timestamp(capsys):
    argv = ["bounds", "--n", "3", "--b", "1", "--l", "4", "--p", "3"]
    first = _envelope(capsys, argv)
    second = _envelope(capsys, argv)
    first.pop("generated_at")
    second.pop("generated_at")
    assert first == second


def test_l0_bare_line(capsys):
    code, out, err = _run(capsys, ["l0", "--n", "3", "--b", "1", "--p", "2"])
    assert code == 0
    assert out == "21\n"


def test_l0_json_format(capsys):
    env = _envelope(
        capsys, ["l0", "--n", "3", "--b", "1", "--p", "2", "--format", "json"]
    )
    assert env["result"] == {"l0_large_d": 21}


def test_singdim_inferred_ring(capsys):
    env = _envelope(capsys, ["singdim", "x0^2*x1", "--p", "3"])
    res = env["result"]
    assert res["nvars"] == 2
    assert res["affine_dim"] == 1
    assert res["projective_dim"] == 0
    assert res["degree"] == 1


def test_singdim_nvars_override(capsys):
    env = _envelope(capsys, ["singdim", "x0^2*x1", "--p", "3", "--nvars", "3"])
    res = env["result"]
    assert res["nvars"] == 3
    assert res["affine_dim"] == 2
    assert res["projective_dim"] == 1
    assert res["degree"] == 1


def test_census_stdout_csv_stderr_summary(capsys):
    code, out, err = _run(
        capsys,
        ["census", "--n", "3", "--b", "1", "--l", "2", "--p", "2",
         "--trials", "5", "--seed", "1"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed,trial,q,n,b,l,sing_dim,sing_deg,elapsed_us"
    assert len(lines) == 6
    env = json.loads(err)
    assert env["seed"] == 1
    assert env["result"]["trials"] == 5


def test_census_out_file(capsys, tmp_path):
    dest = tmp_path / "census.csv"
    env = _envelope(
        capsys,
        ["census", "--n", "3", "--b", "1", "--l", "2", "--p", "2",
         "--trials", "4", "--seed", "9", "--out", str(dest)],
    )
    assert env["seed"] == 9
    assert env["result"]["mode"] == "sample"
    rows = dest.read_text().strip().splitlines()
    assert len(rows) == 5
    assert rows[1].split(",")[0] == "9"


def test_census_generates_seed_when_missing(capsys):
    code, out, err = _run(
        capsys,
        ["census", "--n", "3", "--b", "1", "--l", "2", "--p", "2", "--trials", "2"],
    )
    assert code == 0
    env = json.loads(err)
    assert isinstance(env["seed"], int)
    assert env["seed"] == env["result"]["seed"]


def test_census_determinism_modulo_elapsed(capsys):
    argv = ["census", "--n", "3", "--b", "1", "--l", "2", "--p", "3",
            "--trials", "6", "--seed", "4"]
    _, out1, err1 = _run(capsys, argv)
    _, out2, err2 = _run(capsys, argv)

    def strip_elapsed(csv_text):
        return [line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines()]

    assert strip_elapsed(out1) == strip_elapsed(out2)
    env1, env2 = json.loads(err1), json.loads(err2)
    env1.pop("generated_at")
    env2.pop("generated_at")
    assert env1 == env2


def test_speccodim_from_config_file(capsys, tmp_path):
    cfg = tmp_path / "two_lines.json"
    cfg.write_text(json.dumps({"points": [[0, 0]], "infinity": True}))
    env = _envelope(
        capsys,
        ["speccodim", "--n", "3", "--b", "1", "--l", "2", "--p", "2",
         "--config", str(cfg)],
    )
    res = env["result"]
    assert res["codim"] == 5
    assert res["bound"] == 5
    assert res["mu_sequence"] == [3, 5]
    assert res["points"] == [[0, 0]]
    assert res["infinity"] is True


def test_speccodim_random_members(capsys):
    env = _envelope(
        capsys,
        ["speccodim", "--n", "3", "--b", "1", "--l", "3", "--p", "5",
         "--random", "2", "--seed", "11"],
    )
    assert env["seed"] == 11
    res = env["result"]
    assert res["d"] == 2
    assert res["codim"] >= res["bound"]
    assert len(res["points"]) + (1 if res["infinity"] else 0) == 2


def test_speccodim_at_degree_300(capsys):
    env = _envelope(
        capsys,
        ["speccodim", "--n", "3", "--b", "1", "--l", "300", "--p", "2",
         "--random", "2", "--seed", "1"],
    )
    assert env["result"]["mu_sequence"] == [301, 601]


def test_dhcount_from_config_file(capsys, tmp_path):
    cfg = tmp_path / "dh.json"
    cfg.write_text(
        json.dumps({"Z": ["x1", "x3"], "tau": 1, "hidden": 2, "nvars": 4})
    )
    env = _envelope(capsys, ["dhcount", "--p", "2", "--config", str(cfg)])
    res = env["result"]
    assert res["count_lhs"] == 4
    assert res["count_rhs"] == 4
    assert res["tau"] == 1
    assert res["nvars"] == 4


def test_witness_odd_case(capsys, tmp_path):
    cfg = tmp_path / "w.json"
    cfg.write_text(json.dumps({"P": [1, 1, 1, 0]}))
    env = _envelope(
        capsys,
        ["witness", "x1 - x2", "--n", "3", "--b", "1", "--l", "4", "--d", "1",
         "--p", "3", "--config", str(cfg)],
    )
    res = env["result"]
    assert res["char_case"] == "odd"
    assert res["rank"] >= 2
    assert len(res["jacobian"]) == 5


def test_witness_char2_case(capsys, tmp_path):
    cfg = tmp_path / "w2.json"
    cfg.write_text(json.dumps({"P": [1, 0, 0, 0]}))
    env = _envelope(
        capsys,
        ["witness", "x2", "--n", "3", "--b", "1", "--l", "4", "--d", "1",
         "--p", "2", "--config", str(cfg)],
    )
    res = env["result"]
    assert res["char_case"] == "two"
    assert res["rank"] >= 2
    assert res["F"] == "x0^2*x2*x3"


def test_en_experiment(capsys):
    env = _envelope(
        capsys,
        ["en-experiment", "--n", "3", "--b", "1", "--l", "3", "--p", "2",
         "--trials", "20", "--seed", "7"],
    )
    assert env["seed"] == 7
    res = env["result"]
    assert res["trials"] == 20
    assert 0 <= res["both_count"] <= res["bullet1_count"] <= 20
    assert set(res["reference_lower_bound"]) == {"num", "den"}


def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "base.json"
    cfg.write_text(json.dumps({"n": 3, "b": 1, "l": 3, "p": 2}))
    env = _envelope(capsys, ["bounds", "--config", str(cfg), "--l", "7"])
    assert env["config"]["l"] == 7
    assert env["result"]["a_nb"] == 19  # the l=7 value, not a_nb(3,1,3)=7


def test_missing_parameter_exits_2(capsys):
    code, out, err = _run(capsys, ["bounds", "--n", "3", "--b", "1", "--l", "7"])
    assert code == 2
    assert "error:" in err


def test_nonprime_field_exits_2(capsys):
    code, _, err = _run(
        capsys, ["singdim", "x0^2", "--p", "4", "--nvars", "2"]
    )
    assert code == 2
    assert "not prime" in err


def test_field_order_beyond_64_bits_exits_2(capsys):
    code, _, err = _run(
        capsys, ["singdim", "x0^2", "--p", "18446744073709551629", "--nvars", "2"]
    )
    assert code == 2
    assert "2**64" in err


@pytest.mark.parametrize("seed", ["18446744073709551621", "-1"])
def test_seed_outside_64_bits_exits_2(capsys, seed):
    code, out, err = _run(
        capsys,
        ["census", "--n", "3", "--b", "1", "--l", "2", "--p", "2",
         "--trials", "2", "--seed", seed],
    )
    assert code == 2
    assert "seed" in err
    assert out == ""


def test_largest_seed_still_runs(capsys):
    code, out, err = _run(
        capsys,
        ["census", "--n", "3", "--b", "1", "--l", "2", "--p", "2",
         "--trials", "2", "--seed", "18446744073709551615"],
    )
    assert code == 0, err
    assert json.loads(err)["seed"] == 2**64 - 1
    assert len(out.strip().splitlines()) == 3


def test_bad_config_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = _run(
        capsys,
        ["bounds", "--n", "3", "--b", "1", "--l", "7", "--p", "2",
         "--config", str(missing)],
    )
    assert code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = _run(
        capsys,
        ["bounds", "--n", "3", "--b", "1", "--l", "7", "--p", "2",
         "--config", str(broken)],
    )
    assert code == 2
    assert "JSON" in err


def test_non_integer_config_value_exits_2(capsys, tmp_path):
    # a bool or a float is not an integer, even when int() would take it
    cases = [
        (["bounds"], {"n": "abc", "b": 1, "l": 7, "p": 2}, "n"),
        (["bounds", "--n", "3", "--b", "1", "--l", "7", "--p", "2"],
         {"s1_l0": "x"}, "s1_l0"),
        (["bounds", "--b", "1", "--l", "7", "--p", "2"], {"n": 3.7}, "n"),
        (["census", "--n", "3", "--b", "1", "--l", "2", "--p", "3", "--seed", "1"],
         {"trials": True}, "trials"),
    ]
    cfg = tmp_path / "bad.json"
    for argv, config, key in cases:
        cfg.write_text(json.dumps(config))
        code, out, err = _run(capsys, argv + ["--config", str(cfg)])
        assert code == 2, (config, err)
        assert f"{key} must be an integer" in err
        assert out == ""


def test_speccodim_with_b_above_n_exits_2(capsys):
    # random_config must check (n, b) before it computes p ** (n - b)
    code, out, err = _run(
        capsys,
        ["speccodim", "--n", "3", "--b", "4", "--l", "2", "--p", "2", "--d", "1"],
    )
    assert code == 2
    assert "1 <= b <= n-1" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["speccodim", "--n", "3", "--b", "1", "--l", "2", "--p", "2"],
         {"points": "ab"}, "points"),
        (["dhcount", "--p", "2"], {"Z": [1]}, "Z"),
        (["witness", "x2", "--n", "3", "--b", "1", "--l", "4", "--d", "1",
          "--p", "2"], {"P": "xy"}, "P"),
        (["speccodim", "--n", "3", "--b", "1", "--l", "2", "--p", "2"],
         {"points": [[0, 0]], "infinity": "no"}, "infinity"),
        (["witness", "--n", "3", "--b", "1", "--l", "4", "--d", "1", "--p", "2"],
         {"f": 5, "P": [1, 0, 0, 0]}, "f"),
        (["dhcount", "--p", "2"], {"Z": ["x0"], "F0": 7, "tau": 1, "nvars": 3}, "F0"),
        (["l0", "--n", "3", "--b", "1", "--p", "2"], {"format": "xml"}, "format"),
        (["bounds", "--n", "3", "--b", "1", "--l", "7", "--p", "2"], {"out": 5}, "out"),
    ],
    ids=["points", "Z", "P", "infinity", "f", "F0", "format", "out"],
)
def test_config_value_of_wrong_json_type_exits_2(capsys, tmp_path, argv, config, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code, out, err = _run(capsys, argv + ["--config", str(cfg)])
    assert code == 2
    assert f"config key {key!r}" in err
    assert out == ""


@pytest.mark.parametrize("seed", ["-1", "5"])
def test_exhaustive_census_with_a_seed_exits_2(capsys, seed):
    code, out, err = _run(
        capsys,
        ["census", "--n", "3", "--b", "1", "--l", "2", "--p", "2",
         "--mode", "exhaustive", "--seed", seed],
    )
    assert code == 2
    assert "takes no seed" in err
    assert out == ""


def test_unread_m_flag_is_gone(capsys):
    # not even as a prefix of --mode, which would turn "--m 5" into "--mode 5"
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "3", "--b", "1", "--l", "7", "--p", "2", "--m", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --m 5" in capsys.readouterr().err


def test_non_integer_cap_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SINGCENSUS_CAP", "abc")
    code, _, err = _run(
        capsys,
        ["census", "--n", "3", "--b", "1", "--l", "1", "--p", "2",
         "--mode", "exhaustive"],
    )
    assert code == 2
    assert "SINGCENSUS_CAP must be an integer" in err


def test_cap_exceeded_exits_3(capsys):
    code, _, err = _run(
        capsys,
        ["census", "--n", "3", "--b", "1", "--l", "2", "--p", "3",
         "--mode", "exhaustive", "--cap", "100"],
    )
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["en-experiment", "--n", str(2**64), "--b", "1", "--l", "3", "--p", "2",
         "--trials", "1", "--seed", "1"],
        ["census", "--n", "100000", "--b", "1", "--l", "2", "--p", "2",
         "--trials", "1", "--seed", "1"],
    ],
)
def test_monomial_list_above_the_cap_exits_3(capsys, argv):
    # a valid but huge n is refused before its monomials are listed
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert "monomial list" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # 2^1999 graph members: too many for random.sample to draw from
        (["speccodim", "--n", "2000", "--b", "1", "--l", "2", "--p", "2",
          "--random", "2", "--seed", "1"], "cannot sample among 2^1999"),
        # prob_En_lower has a 5,780-digit denominator here
        (["bounds", "--n", "160", "--b", "1", "--l", "30", "--p", "2"],
         "decimal digits"),
    ],
)
def test_results_beyond_a_size_limit_exit_3(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert message in err
    assert out == ""


@pytest.mark.parametrize("l", ["30", "17"])
def test_bounds_refuses_a_huge_probability_before_building_it(capsys, l):
    # the product has millions of bits (in the denominator at l = 30, in the
    # numerator alone at l = 17); its size is bounded unbuilt
    t0 = time.perf_counter()
    code, out, err = _run(capsys, ["bounds", "--n", "2000", "--b", "1", "--l", l,
                                   "--p", "2"])
    assert time.perf_counter() - t0 < 2
    assert code == 3
    assert "decimal digits" in err
    assert out == ""


@pytest.mark.parametrize("cmd", ["l0", "bounds"])
def test_window_above_the_cap_exits_3(capsys, monkeypatch, cmd):
    argv = [cmd, "--n", "3", "--b", "1", "--l", "3", "--p", "2"]
    code, _, err = _run(capsys, argv + ["--window", "1000000000"])
    assert code == 3
    assert "l0 window" in err
    code, _, err = _run(capsys, argv + ["--window", "60", "--cap", "59"])
    assert code == 3
    monkeypatch.setenv("SINGCENSUS_CAP", "59")
    code, _, err = _run(capsys, argv + ["--window", "60"])
    assert code == 3
    code, _, err = _run(capsys, argv + ["--window", "59"])
    assert code == 0, err


def test_singdim_with_high_shared_powers(capsys):
    # the Hilbert numerator here once recursed past Python's stack limit
    env = _envelope(capsys, ["singdim", "x0^1500*x1^2*x3^100 + x0^1400*x2^202",
                             "--p", "3"])
    assert env["result"]["projective_dim"] == 2


def test_internal_check_exits_4(capsys, monkeypatch, tmp_path):
    import singcensus.cli as cli_mod

    def explode(*args, **kwargs):
        raise InternalCheckError("synthetic failure")

    monkeypatch.setattr(cli_mod, "jacobian_witness", explode)
    cfg = tmp_path / "w.json"
    cfg.write_text(json.dumps({"P": [1, 0, 0, 0]}))
    code, _, err = _run(
        capsys,
        ["witness", "x2", "--n", "3", "--b", "1", "--l", "4", "--d", "1",
         "--p", "2", "--config", str(cfg)],
    )
    assert code == 4
    assert "internal check failed" in err


# One valid invocation per subcommand (flags, config, polynomial argument);
# the fuzz below perturbs a few of its inputs at a time.
VALID = {
    "bounds": ({"n": 3, "b": 1, "l": 3, "p": 2}, {}, None),
    "l0": ({"n": 3, "b": 1, "p": 3, "window": 3}, {}, None),
    "singdim": ({"p": 3}, {}, "x0^2*x1"),
    "census": ({"n": 3, "b": 1, "l": 2, "p": 3, "trials": 3, "seed": 1}, {}, None),
    "speccodim": ({"n": 3, "b": 1, "l": 2, "p": 2},
                  {"points": [[0, 0]], "infinity": True}, None),
    "dhcount": ({"p": 2}, {"Z": ["x1", "x3"], "tau": 1, "hidden": 2, "nvars": 4},
                "x0*x1 + x2^2"),
    "witness": ({"n": 3, "b": 1, "l": 4, "d": 1, "p": 2}, {"P": [1, 0, 0, 0]}, "x2"),
    "en-experiment": ({"n": 3, "b": 1, "l": 3, "p": 2, "trials": 2, "seed": 1},
                      {}, None),
}
INT_FLAGS = ["n", "b", "l", "p", "q", "d", "trials", "seed", "window", "nvars"]
CONFIG_KEYS = INT_FLAGS + [
    "mode", "format", "cap", "tau", "hidden", "random", "s1_l0", "text", "f",
    "F0", "char_case", "points", "P", "Z", "infinity", "unknown",
]
SMALL = st.integers(-1, 3)
CONFIG_VALUES = SMALL | st.sampled_from(
    [3.5, True, None, "abc", "3", [], [1], ["x0"], [[0, 0]], {}])


def _value(key, values):
    return values | st.just(2**64) if key in ("p", "seed") else values


@st.composite
def _invocations(draw):
    cmd = draw(st.sampled_from(sorted(VALID)))
    flags, config, text = VALID[cmd]
    flags, config = dict(flags), dict(config)
    for key in draw(st.lists(st.sampled_from(INT_FLAGS), unique=True, max_size=3)):
        flags[key] = draw(st.none() | _value(key, SMALL))  # None drops the flag
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), unique=True, max_size=3)):
        config[key] = draw(_value(key, CONFIG_VALUES))
    argv = [cmd, "--cap", "500"]
    for key, value in flags.items():
        if value is not None:
            argv += [f"--{key}", str(value)]
    for key, words in (("mode", ["sample", "exhaustive", "xml"]),
                       ("format", ["csv", "json", "xml"])):
        if draw(st.booleans()):
            argv += [f"--{key}", draw(st.sampled_from(words))]
    if cmd == "speccodim" and draw(st.booleans()):
        argv += ["--random", str(draw(SMALL))]
    if cmd in ("singdim", "dhcount", "witness"):
        text = draw(st.sampled_from([text, text, "x1 - x2", "abc", "3", "", None]))
        if text is not None:
            argv.append(text)
    return argv, config


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_invocations())
def test_every_invocation_exits_with_a_documented_code(tmp_path_factory, invocation):
    argv, config = invocation
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(config))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv + ["--config", str(path)])
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
            assert code == 2
    assert code in (0, 2, 3, 4), (argv, config, sink.getvalue())
