"""Public API surface: exports resolve and carry documentation."""

import inspect

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_public_items_documented():
    for name in repro.__all__:
        item = getattr(repro, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            assert item.__doc__, f"{name} lacks a docstring"


def test_subpackages_documented():
    import repro.algorithms
    import repro.bandits
    import repro.boosting
    import repro.core
    import repro.experiments
    import repro.matching
    import repro.nn
    import repro.simulation

    for module in (
        repro,
        repro.algorithms,
        repro.bandits,
        repro.boosting,
        repro.core,
        repro.experiments,
        repro.matching,
        repro.nn,
        repro.simulation,
    ):
        assert module.__doc__ and len(module.__doc__) > 40, module.__name__


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_readme_quickstart_runs():
    """The README's quickstart snippet is executable as written."""
    from repro import SyntheticConfig, generate_city, make_matcher, run_algorithm

    platform = generate_city(
        SyntheticConfig(num_brokers=30, num_requests=300, num_days=2, seed=42)
    )
    top3 = run_algorithm(platform, make_matcher("Top-3", platform, seed=7))
    lacb = run_algorithm(platform, make_matcher("LACB-Opt", platform, seed=7))
    assert top3.total_realized_utility > 0
    assert lacb.total_realized_utility > 0


def test_import_repro_loads_no_scipy_or_test_only_modules():
    """``import repro`` stays light: SciPy is an oracle / statistics-only
    dependency, and the differential oracles and the unused incremental
    solver are imported only by their callers."""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (
        "import sys, repro; "
        "print('\\n'.join(m for m in sys.modules if m == 'scipy' or m.startswith("
        "('scipy.', 'repro.check.differential', 'repro.matching.incremental'))))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert loaded == []
