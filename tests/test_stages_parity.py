"""Staged parity: the pricing pipeline reproduces a committed golden
snapshot bit for bit.

``tests/data/stages_parity_golden.json`` froze the ``RunMetrics`` of
every (app x scheme x preprocessing) cell — plus the Fig 19/20
ablations and a seeded random sample over scales and datasets — while
the monolithic profiler and the stage pipeline still coexisted and
agreed exactly.  Each cell is now priced once, through
:class:`~repro.stages.StagePricer` (stream-gen → cache-replay →
compress → timing), and its wire form must equal the snapshot exactly
(JSON floats round-trip bit for bit, no tolerance): a refactor may move
code, it must not move numbers.

Regenerate (only when a model change is intended):
``PYTHONPATH=src python -m tests.test_stages_parity``.
"""

import json
import os
import random

import pytest

from repro.schemes import resolve
from repro.serve.protocol import metrics_to_json
from repro.stages import StagePricer

TEST_SCALE = 16384

APPS = ("pr", "prd", "cc", "re", "dc", "bfs", "sp")
SCHEMES = ("push", "push+spzip", "ub", "ub+spzip", "phi", "phi+spzip",
           "pull", "pull+spzip", "push+cmh", "ub+cmh")
ALL_PARTS = ("adjacency", "updates", "vertex")

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "stages_parity_golden.json")


def _cases(scheme):
    """Ablation kwargs to sweep for one scheme (Fig 19/20 variants)."""
    cases = [{}]
    if scheme.endswith("+spzip"):
        cases += [{"parts": frozenset({part})} for part in ALL_PARTS]
        cases += [{"parts": frozenset()}, {"decoupled_only": True}]
    return cases


def sweep_cells(app, preprocessing):
    """(scale, app, scheme, dataset, preprocessing, kwargs) of one
    app's fixed sweep."""
    dataset = "nlp" if app == "sp" else "ukl"
    return [(TEST_SCALE, app, scheme, dataset, preprocessing, kwargs)
            for scheme in SCHEMES for kwargs in _cases(scheme)]


def random_cells():
    """The seeded random sample across scales, datasets and schemes."""
    rng = random.Random(0xC0FFEE)
    cells = []
    for _ in range(12):
        scale = rng.choice((4096, 8192))
        app = rng.choice(APPS)
        dataset = "nlp" if app == "sp" else rng.choice(
            ("ukl", "twi", "web", "arb"))
        preprocessing = rng.choice(("none", "dfs", "degree"))
        scheme = rng.choice(SCHEMES)
        cells.append((scale, app, scheme, dataset, preprocessing, {}))
    return cells


def all_cells():
    cells = [cell for app in APPS for preprocessing in ("none", "dfs")
             for cell in sweep_cells(app, preprocessing)]
    return cells + random_cells()


def cell_id(scale, app, scheme, dataset, preprocessing, kwargs):
    canonical = resolve(scheme, **kwargs).canonical()
    return f"{scale}/{app}/{canonical}/{dataset}/{preprocessing}"


def price(pricers, cell):
    scale, app, scheme, dataset, preprocessing, kwargs = cell
    if scale not in pricers:
        pricers[scale] = StagePricer(scale=scale)
    return metrics_to_json(pricers[scale].price(
        app, scheme, dataset, preprocessing, **kwargs))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def pricers():
    return {}


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(cell_id(*c) for c in all_cells())


@pytest.mark.parametrize("preprocessing", ["none", "dfs"])
@pytest.mark.parametrize("app", APPS)
def test_staged_matches_monolithic(golden, pricers, app, preprocessing):
    """The fixed sweep equals the numbers the monolithic path froze."""
    for cell in sweep_cells(app, preprocessing):
        assert price(pricers, cell) == golden[cell_id(*cell)], cell


def test_randomized_cells_match(golden):
    """Seeded random sample across scales, datasets, and schemes.

    Catches identity-dependent divergence the fixed sweep cannot — a
    stage that accidentally keys on the wrong config slice shows up
    here as a cross-cell collision or a numeric mismatch.
    """
    pricers = {}
    for cell in random_cells():
        assert price(pricers, cell) == golden[cell_id(*cell)], cell


def main():
    pricers = {}
    golden = {cell_id(*cell): price(pricers, cell)
              for cell in all_cells()}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
