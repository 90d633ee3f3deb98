"""Shared independent oracles for the test suite.

These reimplement the catalog term rules and norm arithmetic directly,
without touching the package's evaluation engines, so that certificate
values are checked through a second route.  `traced_peak` measures what
a call allocates; `perfbench_module` loads a module of the benchmark,
such as its independent checker.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import pytest


def traced_peak(call):
    """What `call` returns, or the ScanExhausted it raises, and the peak of
    the memory traced while it ran."""
    from serieswitness import ScanExhausted

    tracemalloc.start()
    try:
        try:
            result = call()
        except ScanExhausted as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def perfbench_module(name):
    """perfbench/<name>.py, loaded by path: perfbench/checks.py recomputes
    every value of a document without importing serieswitness."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def alt_harmonic_term(n: int) -> float:
    return (1.0 if n % 2 == 0 else -1.0) / n


def growing_real_term(n: int) -> float:
    return float(n) if n % 2 == 0 else -float(n)


def decaying_coord(n: int) -> tuple[int, float]:
    m = (n + 1) // 2
    return m, (1.0 if n % 2 == 0 else -1.0) / m


def scalar_prefix_sums(term, indices):
    """Running sums of term(index) over the given index sequence."""
    sums = []
    total = 0.0
    for i in indices:
        total += term(i)
        sums.append(total)
    return sums


def sup_norm_prefixes(coord_term, indices):
    """Running sup norms for a single-coordinate-per-term series."""
    coeffs: dict[int, float] = {}
    norms = []
    for n in indices:
        coord, value = coord_term(n)
        coeffs[coord] = coeffs.get(coord, 0.0) + value
        norms.append(max((abs(c) for c in coeffs.values()), default=0.0))
    return norms


def kahan_abs_prefix(term, indices):
    """Compensated running |sum| values, one per prefix."""
    total = 0.0
    carry = 0.0
    out = []
    for i in indices:
        y = term(i) - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out.append(abs(total))
    return out


@pytest.fixture
def alt():
    from serieswitness import catalog_series

    return catalog_series("alt-harmonic")


@pytest.fixture
def unit():
    from serieswitness import catalog_series

    return catalog_series("unit-basis-c0")


@pytest.fixture
def decaying():
    from serieswitness import catalog_series

    return catalog_series("decaying-signed-c0")


@pytest.fixture
def growing():
    from serieswitness import catalog_series

    return catalog_series("growing-real")
