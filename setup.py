from setuptools import Extension, setup

# The compiled kernel is optional: without a C toolchain the build skips it
# and the package runs on the pure-Python kernel.  _speedups.c is generated
# from _speedups.pyx by `cython -3 src/singcensus/groebner/_speedups.pyx`.
setup(
    ext_modules=[
        Extension(
            "singcensus.groebner._speedups",
            ["src/singcensus/groebner/_speedups.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
