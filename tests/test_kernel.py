"""Parity and fallback behavior of the two basis kernels."""

import os
import random
import subprocess
import sys

import pytest

from singcensus.algebra.field import PrimeField
from singcensus.algebra.poly import GradedSpace
from singcensus.errors import KernelCapacityError
from singcensus.groebner import MonomialOrder, buchberger, kernel, kernel_pure
from singcensus.groebner.orders import ELIM0, GREVLEX, OrderContext

fast_available = kernel._speedups is not None
needs_fast = pytest.mark.skipif(not fast_available, reason="compiled kernel not built")


def _random_ideal_terms(p, nvars, rng):
    field = PrimeField(p)
    space = GradedSpace(field, nvars, rng.randrange(1, 4), GradedSpace.AT_MOST)
    gens = [space.sample_nonzero(rng) for _ in range(rng.randrange(1, 4))]
    return [list(g.terms.items()) for g in gens]


@needs_fast
@pytest.mark.parametrize("p", [2, 5, 31])
def test_kernels_agree_on_random_ideals(p):
    rng = random.Random(p * 7)
    for _ in range(40):
        nvars = rng.randrange(2, 5)
        gens = _random_ideal_terms(p, nvars, rng)
        for order in (0, 1):
            try:
                fast = kernel._speedups.reduced_groebner(gens, nvars, p, order)
            except KernelCapacityError:
                # intermediate degree blow-up (lex, mostly): the dispatcher
                # would fall back to pure here, so there is nothing to compare
                continue
            pure = kernel_pure.reduced_groebner(gens, nvars, p, order)
            assert fast == pure


@needs_fast
def test_kernels_agree_on_normal_forms():
    p, nvars = 5, 3
    rng = random.Random(17)
    field = PrimeField(p)
    space = GradedSpace(field, nvars, 3, GradedSpace.AT_MOST)
    for _ in range(25):
        gens = _random_ideal_terms(p, nvars, rng)
        basis = kernel_pure.reduced_groebner(gens, nvars, p, 0)
        f = list(space.sample_nonzero(rng).terms.items())
        fast = kernel._speedups.normal_form(f, basis, nvars, p, 0)
        pure = kernel_pure.normal_form(f, basis, nvars, p, 0)
        assert fast == pure


@needs_fast
def test_fast_kernel_capacity_limits():
    # 9 variables exceed the packed-key width
    gens = [[((1,) * 9, 1)]]
    with pytest.raises(KernelCapacityError):
        kernel._speedups.reduced_groebner(gens, 9, 5, 0)
    # per-variable exponent 64 exceeds the 6-bit field
    gens = [[((64, 0), 1)]]
    with pytest.raises(KernelCapacityError):
        kernel._speedups.reduced_groebner(gens, 2, 5, 0)


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


def test_kernel_name_reports_active_choice():
    assert kernel.kernel_name() in ("fast", "pure")
    choice = os.environ.get("SINGCENSUS_KERNEL", "auto").lower()
    if fast_available and choice in ("auto", "fast"):
        assert kernel.kernel_name() == "fast"
    if choice == "pure":
        assert kernel.kernel_name() == "pure"


def test_env_var_forces_pure_kernel():
    env = dict(os.environ, SINGCENSUS_KERNEL="pure")
    code = "from singcensus.groebner import kernel_name; print(kernel_name())"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "pure"


def test_env_var_rejects_unknown_choice():
    env = dict(os.environ, SINGCENSUS_KERNEL="turbo")
    out = subprocess.run(
        [sys.executable, "-c", "import singcensus.groebner"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode != 0
    assert "SINGCENSUS_KERNEL" in out.stderr


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
