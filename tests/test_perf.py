"""The :mod:`repro.perf` guard: the shipped kernels are the only mode."""

from repro import perf


def test_fast_kernels_default_on():
    assert perf.fast_kernels_enabled()
