"""Shared fixtures: canned input documents and the symbols they define."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from cauchydual.certify import pole_pairing
from cauchydual.cli import parse_input_document
from cauchydual.kernels import symbol_taylor
from cauchydual.symbolpipe import CircleMeasure

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

FIXTURE_NAMES = (
    "antipodal_1_1",
    "antipodal_4_1",
    "single_atom_tau1",
    "refuter",
    "inconclusive",
)


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for
    child interpreters that import the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def load_fixture_doc(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def load_fixture_symbol(name: str):
    _, sym = parse_input_document(load_fixture_doc(name))
    return sym


def pairing_of(sym):
    """The pole pairing run_certificates builds for sym."""
    return pole_pairing(sym.alphas, sym.numerators_at_poles)


def taylor_of(sym, n_rows: int):
    """The symbol's first n_rows Taylor rows, read from its pole pairing."""
    return symbol_taylor(sym, pairing_of(sym), n_rows)


def random_measure(rng, k: int, min_gap: float = 0.3) -> CircleMeasure:
    """k atoms with circular gaps above min_gap, redrawn until they fit,
    and weights log-uniform in [0.1, 5]."""
    while True:
        thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * np.pi]]))
        if gaps.min() > min_gap:
            break
    weights = np.exp(rng.uniform(np.log(0.1), np.log(5.0), size=k))
    return CircleMeasure(tuple(thetas), tuple(weights))


def pool_like_measures(seed: int, per_k: int) -> list:
    """per_k random measures for each atom count k = 1..8, drawn the way
    the benchmark's measure pool draws them (random_measure)."""
    rng = np.random.default_rng(seed)
    return [random_measure(rng, k) for k in range(1, 9) for _ in range(per_k)]


@pytest.fixture(scope="session")
def fixture_symbols():
    return {name: load_fixture_symbol(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def refuter_symbol():
    return load_fixture_symbol("refuter")


@pytest.fixture(scope="session")
def inconclusive_symbol():
    return load_fixture_symbol("inconclusive")
