"""Fig 20: decoupled fetching alone vs full SpZip compression, over PHI.

Paper anchors: decoupling alone is a modest win (9%/14% without/with
preprocessing) because the system is already bandwidth-bound; compression
delivers the bulk of SpZip's gains (1.5x/1.8x).
"""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_fig20_decoupling_vs_compression(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig20"], runner)
    report(result)
    for row in result.rows:
        decoupled = row["+decoupled_fetching"]
        full = row["+compression"]
        # Decoupling helps, but modestly.
        assert 1.0 <= decoupled < 1.6
        # Compression is responsible for most of the benefit.
        assert full > decoupled
        assert (full - 1.0) > 1.5 * (decoupled - 1.0)
