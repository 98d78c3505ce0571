"""Reference implementations kept only as test oracles.

Production code has one path per operation; the slower, obviously
correct path it replaced lives here, and the tests (and the matching
``benchmarks/bench_*.py``) assert the production path equals it.
:mod:`oracles.netlists` holds the random inputs the simulation suites
share.
"""
