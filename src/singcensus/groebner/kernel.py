"""Kernel selection: compiled extension when it is built, pure Python otherwise.

The compiled kernel covers up to 8 variables with per-variable degrees below
64; anything larger raises KernelCapacityError and the call is transparently
retried in pure Python.
"""

from ..errors import KernelCapacityError
from . import kernel_pure

try:
    from . import _speedups
except ImportError:  # extension not built; pure fallback
    _speedups = None


def kernel_name() -> str:
    return "fast" if _speedups is not None else "pure"


def reduced_groebner(gens, nvars, p, order=0):
    if _speedups is not None:
        try:
            return _speedups.reduced_groebner(gens, nvars, p, order)
        except KernelCapacityError:
            pass
    return kernel_pure.reduced_groebner(gens, nvars, p, order)


def normal_form(f, basis, nvars, p, order=0):
    if _speedups is not None:
        try:
            return _speedups.normal_form(f, basis, nvars, p, order)
        except KernelCapacityError:
            pass
    return kernel_pure.normal_form(f, basis, nvars, p, order)
