"""Test-side correctness oracles.

Each module keeps the straightforward implementation a shipped fast
path replaced, verbatim, so parity tests can compare the package's one
code path against it byte for byte.
"""
