"""Parity and fallback behavior of the two basis kernels."""

import importlib.util
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from singcensus.algebra.field import PrimeField
from singcensus.algebra.poly import GradedSpace
from singcensus.errors import KernelCapacityError
from singcensus.groebner import MonomialOrder, buchberger, kernel, kernel_pure
from singcensus.groebner.orders import ELIM0, GREVLEX, LEX, SLOT_MAX, OrderContext

ROOT = Path(__file__).resolve().parents[1]
KERNEL_DIR = ROOT / "src" / "singcensus" / "groebner"


@pytest.fixture(scope="session")
def fast(tmp_path_factory):
    """The compiled kernel: the one the package loaded, else the shipped C
    built by setup.py into a temporary directory (nothing is written to the
    checkout).  Skips only when there is no C compiler."""
    if kernel._speedups is not None:
        return kernel._speedups
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernel")
    tmp = tmp_path_factory.mktemp("speedups")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "obj")],
        cwd=ROOT, capture_output=True, text=True,
    )
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    built = sorted((tmp / "lib").rglob("_speedups*" + suffix))
    assert built, f"building _speedups.c failed:\n{build.stdout}{build.stderr}"
    spec = importlib.util.spec_from_file_location(
        "singcensus.groebner._speedups", built[0]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_c_matches_the_pyx():
    # Cython quotes every source line it compiles in a comment block headed
    # by the .pyx line number and marks that line; a .pyx edit without
    # regenerating the C shows up as a mismatch here.
    pyx = (KERNEL_DIR / "_speedups.pyx").read_text().splitlines()
    c_lines = (KERNEL_DIR / "_speedups.c").read_text().splitlines()
    head = re.compile(r'\s*/\* "singcensus/groebner/_speedups\.pyx":(\d+)$')
    mark = "# <<<<<<<<<<<<<<"
    checked = 0
    for at, line in enumerate(c_lines):
        m = head.match(line)
        if not m:
            continue
        lineno = int(m.group(1))
        quoted = next(q for q in c_lines[at + 1:] if q.endswith(mark) or q == "*/")
        assert quoted.endswith(mark), f"no marked line in the block for line {lineno}"
        source = quoted[: -len(mark)].rstrip().removeprefix(" * ")
        assert source == pyx[lineno - 1].rstrip(), lineno
        checked += 1
    assert checked > 0


def _random_ideal_terms(p, nvars, rng):
    field = PrimeField(p)
    space = GradedSpace(field, nvars, rng.randrange(1, 4), GradedSpace.AT_MOST)
    gens = [space.sample_nonzero(rng) for _ in range(rng.randrange(1, 4))]
    return [list(g.terms.items()) for g in gens]


@pytest.mark.parametrize("p", [2, 5, 31])
def test_kernels_agree_on_random_ideals(fast, p):
    rng = random.Random(p * 7)
    for _ in range(40):
        nvars = rng.randrange(2, 5)
        gens = _random_ideal_terms(p, nvars, rng)
        for order in (0, 1):
            try:
                got = fast.reduced_groebner(gens, nvars, p, order)
            except KernelCapacityError:
                # intermediate degree blow-up (lex, mostly): the dispatcher
                # would fall back to pure here, so there is nothing to compare
                continue
            pure = kernel_pure.reduced_groebner(gens, nvars, p, order)
            assert got == pure


def test_kernels_agree_on_normal_forms(fast):
    p, nvars = 5, 3
    rng = random.Random(17)
    field = PrimeField(p)
    space = GradedSpace(field, nvars, 3, GradedSpace.AT_MOST)
    for _ in range(25):
        gens = _random_ideal_terms(p, nvars, rng)
        basis = kernel_pure.reduced_groebner(gens, nvars, p, 0)
        f = list(space.sample_nonzero(rng).terms.items())
        got = fast.normal_form(f, basis, nvars, p, 0)
        pure = kernel_pure.normal_form(f, basis, nvars, p, 0)
        assert got == pure


def test_fast_kernel_capacity_limits(fast):
    # 9 variables exceed the packed-key width
    gens = [[((1,) * 9, 1)]]
    with pytest.raises(KernelCapacityError):
        fast.reduced_groebner(gens, 9, 5, 0)
    # per-variable exponent 64 exceeds the 6-bit field
    gens = [[((64, 0), 1)]]
    with pytest.raises(KernelCapacityError):
        fast.reduced_groebner(gens, 2, 5, 0)


def test_dispatcher_falls_back_beyond_capacity():
    # same inputs as above must succeed through the dispatcher
    out = kernel.reduced_groebner([[((1,) * 9, 1)]], 9, 5, 0)
    assert [sorted(g) for g in out] == [[((1,) * 9, 1)]]
    out = kernel.reduced_groebner([[((64, 0), 3)]], 2, 5, 0)
    assert [sorted(g) for g in out] == [[((64, 0), 1)]]


@pytest.mark.parametrize("order", [GREVLEX, ELIM0])
def test_order_keys_guard_total_degree(order):
    # each exponent fits its slot, but the degree overflows the 16-bit one
    ctx = OrderContext(3, order)
    ctx.key((0, 30000, 30000))
    with pytest.raises(KernelCapacityError):
        ctx.key((0, 30000, 40000))


@pytest.mark.parametrize("order", [GREVLEX, LEX, ELIM0])
def test_packed_lcm_and_key_match_their_tuple_definitions(order):
    rng = random.Random(order)
    for nvars in range(2 if order == ELIM0 else 1, 10):
        ctx = OrderContext(nvars, order)
        for _ in range(200):
            top = rng.choice([3, 300, SLOT_MAX])
            a, b = (
                tuple(rng.choice([0, top, rng.randint(0, top)]) for _ in range(nvars))
                for _ in range(2)
            )
            lcm = tuple(map(max, a, b))
            dl = ctx.lcm_dkey(ctx.dkey(a), ctx.dkey(b))
            assert dl == ctx.dkey(lcm)
            try:
                expected = ctx.key(lcm)
            except KernelCapacityError:  # total degree above 2**16 - 1
                for bound in (sum(a) + sum(b), sum(lcm)):
                    with pytest.raises(KernelCapacityError):
                        ctx.key_of_dkey(dl, bound)
                continue
            # the sum of the parents' degrees, and the exact degree
            assert ctx.key_of_dkey(dl, sum(a) + sum(b)) == expected
            assert ctx.key_of_dkey(dl, sum(lcm)) == expected
            if order == GREVLEX and max(sum(a), sum(b)) <= 0xFFFF:
                assert ctx.degree_bound(ctx.key(a), ctx.key(b)) == sum(a) + sum(b)


def test_pure_kernel_guards_the_degree_of_an_s_pair():
    # both generators fit; the lcm of their leads has degree 90,000
    gens = [[((30000, 30000, 0), 1), ((0, 0, 1), 1)],
            [((0, 30000, 30000), 1), ((1, 0, 0), 1)]]
    with pytest.raises(KernelCapacityError):
        kernel_pure.reduced_groebner(gens, 3, 5, GREVLEX)


def test_pure_kernel_guards_every_term_of_a_product():
    # x1^13000 * (x0^20000 + x1^19999): the lead fits its slots, the second
    # term needs x1^32999, above SLOT_MAX
    f = [((20000, 0), 1), ((0, 19999), 1)]
    h = [((20000, 13000), 1)]
    with pytest.raises(KernelCapacityError):
        kernel_pure.normal_form(h, [f], 2, 5, GREVLEX)
    with pytest.raises(KernelCapacityError):  # the S-pair of f and h
        kernel_pure.reduced_groebner([f, h], 2, 5, GREVLEX)


def test_kernel_name_reports_active_choice():
    assert kernel.kernel_name() == ("fast" if kernel._speedups else "pure")


def test_shuffled_generators_same_reduced_basis():
    field = PrimeField(5)
    rng = random.Random(3)
    space = GradedSpace(field, 3, 3, GradedSpace.AT_MOST)
    gens = [space.sample_nonzero(rng) for _ in range(4)]
    reference = buchberger(gens, MonomialOrder("grevlex", 3))
    for _ in range(100):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, MonomialOrder("grevlex", 3)) == reference
