"""Shared fixtures: canned input documents and the symbols they define."""

import json
from pathlib import Path

import numpy as np
import pytest

from cauchydual.cli import parse_input_document
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


def load_fixture_doc(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def load_fixture_symbol(name: str):
    _, sym = parse_input_document(load_fixture_doc(name))
    return sym


def pool_like_measures(seed: int, per_k: int) -> list:
    """per_k random measures for each atom count k = 1..8, drawn the way
    the benchmark's measure pool draws them: circular atom gaps above 0.3,
    weights log-uniform in [0.1, 5]."""
    rng = np.random.default_rng(seed)
    measures = []
    for k in range(1, 9):
        while len(measures) < k * per_k:
            thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
            gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * np.pi]]))
            if k > 1 and gaps.min() <= 0.3:
                continue
            weights = np.exp(rng.uniform(np.log(0.1), np.log(5.0), size=k))
            measures.append(CircleMeasure(tuple(thetas), tuple(weights)))
    return measures


@pytest.fixture(scope="session")
def fixture_symbols():
    return {name: load_fixture_symbol(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def refuter_symbol():
    return load_fixture_symbol("refuter")


@pytest.fixture(scope="session")
def inconclusive_symbol():
    return load_fixture_symbol("inconclusive")
