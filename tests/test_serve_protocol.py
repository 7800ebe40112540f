"""Request normalization and validation (repro.serve.protocol)."""

import pytest

from repro.jobs import RunRequest, canonical_request
from repro.serve.protocol import (
    ProtocolError,
    metrics_to_json,
    parse_price,
    parse_sweep,
    request_to_json,
)


class TestParsePrice:
    def test_minimal_body_normalizes(self):
        request = parse_price({"app": "dc", "scheme": "phi+spzip",
                               "dataset": "arb"})
        assert request == canonical_request("dc", "phi+spzip", "arb")
        assert request.preprocessing == "none"

    def test_bracket_and_kwarg_spellings_share_identity(self):
        """The coalescing invariant: one cell, one canonical key."""
        bracket = parse_price({"app": "dc",
                               "scheme": "phi+spzip[parts=adjacency]",
                               "dataset": "arb"})
        kwarg = parse_price({"app": "dc", "scheme": "phi+spzip",
                             "dataset": "arb",
                             "parts": ["adjacency"]})
        assert bracket == kwarg

    def test_parts_accepts_single_string(self):
        one = parse_price({"app": "dc", "scheme": "phi+spzip",
                           "dataset": "arb", "parts": "adjacency"})
        many = parse_price({"app": "dc", "scheme": "phi+spzip",
                            "dataset": "arb", "parts": ["adjacency"]})
        assert one == many

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError) as info:
            parse_price([1, 2, 3])
        assert "JSON object" in str(info.value)

    @pytest.mark.parametrize("missing", ["app", "scheme", "dataset"])
    def test_missing_required_field(self, missing):
        body = {"app": "dc", "scheme": "phi", "dataset": "arb"}
        del body[missing]
        with pytest.raises(ProtocolError) as info:
            parse_price(body)
        assert missing in str(info.value)

    def test_unknown_field_rejected_with_menu(self):
        with pytest.raises(ProtocolError) as info:
            parse_price({"app": "dc", "scheme": "phi",
                         "dataset": "arb", "turbo": True})
        assert "turbo" in str(info.value)
        assert "preprocessing" in str(info.value)  # the valid menu

    def test_unknown_app_lists_valid_apps(self):
        with pytest.raises(ProtocolError) as info:
            parse_price({"app": "nope", "scheme": "phi",
                         "dataset": "arb"})
        assert "bfs" in str(info.value)

    def test_unknown_dataset_and_preprocessing(self):
        with pytest.raises(ProtocolError):
            parse_price({"app": "dc", "scheme": "phi",
                         "dataset": "nope"})
        with pytest.raises(ProtocolError):
            parse_price({"app": "dc", "scheme": "phi",
                         "dataset": "arb", "preprocessing": "random"})

    def test_every_registered_preprocessing_is_accepted(self):
        from repro.graph.preprocess import PREPROCESSORS
        for preprocessing in PREPROCESSORS:
            request = parse_price({"app": "dc", "scheme": "phi",
                                   "dataset": "arb",
                                   "preprocessing": preprocessing})
            assert request.preprocessing == preprocessing

    def test_unknown_scheme_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_price({"app": "dc", "scheme": "push+bogus",
                         "dataset": "arb"})
        with pytest.raises(ProtocolError):
            parse_price({"app": "dc", "scheme": "phi+spzip[turbo]",
                         "dataset": "arb"})

    def test_non_string_scheme_rejected(self):
        with pytest.raises(ProtocolError):
            parse_price({"app": "dc", "scheme": 7, "dataset": "arb"})


class TestParseSweep:
    def test_scheme_group_expands(self):
        cells = parse_sweep({"app": "dc", "schemes": "paper",
                             "dataset": "arb"})
        from repro.schemes import scheme_names
        assert {c.scheme for c in cells} == set(scheme_names("paper"))
        assert all(c.app == "dc" and c.dataset == "arb" for c in cells)

    def test_cross_product_and_dedupe(self):
        cells = parse_sweep({"apps": ["dc", "dc"],
                             "schemes": ["push", "phi"],
                             "datasets": ["arb", "ukl"]})
        assert len(cells) == 4  # duplicate app collapses
        assert len(set(cells)) == len(cells)

    def test_singular_spellings_accepted(self):
        cells = parse_sweep({"app": "dc", "scheme": "push",
                             "dataset": "arb"})
        assert cells == [RunRequest("dc", "push", "arb")]

    def test_plural_and_singular_conflict_rejected(self):
        with pytest.raises(ProtocolError) as info:
            parse_sweep({"app": "dc", "apps": ["dc"],
                         "scheme": "push", "dataset": "arb"})
        assert "not both" in str(info.value)

    def test_empty_list_rejected(self):
        with pytest.raises(ProtocolError):
            parse_sweep({"apps": [], "scheme": "push",
                         "dataset": "arb"})

    def test_missing_axis_rejected(self):
        with pytest.raises(ProtocolError) as info:
            parse_sweep({"app": "dc", "scheme": "push"})
        assert "datasets" in str(info.value)

    def test_price_only_fields_rejected(self):
        with pytest.raises(ProtocolError):
            parse_sweep({"app": "dc", "scheme": "push",
                         "dataset": "arb", "parts": ["adjacency"]})

    def test_repeated_values_canonicalize_once(self, monkeypatch):
        """Each axis repeats each value 30 times; a per-cell parse
        would canonicalize 27,000 schemes, this one canonicalizes one
        per distinct value, and the cells and their order are those of
        the deduplicated cross product."""
        import repro.schemes
        resolve = repro.schemes.resolve
        calls = []

        def counted(scheme, **knobs):
            calls.append(scheme)
            return resolve(scheme, **knobs)

        monkeypatch.setattr(repro.schemes, "resolve", counted)
        cells = parse_sweep({"apps": ["dc"] * 30,
                             "datasets": ["arb"] * 30,
                             "schemes": ["phi+spzip"] * 30})
        assert cells == [RunRequest("dc", "phi+spzip", "arb")]
        assert calls == ["phi+spzip"]
        calls.clear()
        apps, datasets = ["bfs", "dc"] * 3, ["ukl", "arb"] * 3
        schemes = ["phi", "push", "phi+spzip[parts=updates+adjacency]",
                   "phi+spzip[parts=adjacency+updates]"] * 3
        cells = parse_sweep({"apps": apps, "datasets": datasets,
                             "schemes": schemes})
        assert sorted(calls) == sorted(set(schemes))
        expected = []
        for app in apps:
            for dataset in datasets:
                for scheme in schemes:
                    cell = parse_price({"app": app, "scheme": scheme,
                                        "dataset": dataset})
                    if cell not in expected:
                        expected.append(cell)
        assert cells == expected
        assert len(cells) == 2 * 2 * 3  # two spellings, one scheme


class TestParseDelta:
    def test_minimal_body_normalizes(self):
        from repro.serve.protocol import parse_delta
        dataset, delta = parse_delta(
            {"dataset": "ukl", "insertions": [[2, 3], [0, 1]],
             "deletions": [[4, 5]]})
        assert dataset == "ukl"
        assert delta.insertions.tolist() == [[0, 1], [2, 3]]
        assert delta.deletions.tolist() == [[4, 5]]

    def test_versioned_dataset_name_accepted(self):
        from repro.serve.protocol import parse_delta
        dataset, _delta = parse_delta(
            {"dataset": "ukl@0123abcd", "insertions": [[0, 1]]})
        assert dataset == "ukl@0123abcd"

    def test_versioned_name_accepted_by_price_too(self):
        cell = parse_price({"app": "dc", "scheme": "phi",
                            "dataset": "ukl@0123abcd"})
        assert cell.dataset == "ukl@0123abcd"
        with pytest.raises(ProtocolError):
            parse_price({"app": "dc", "scheme": "phi",
                         "dataset": "nope@0123abcd"})
        with pytest.raises(ProtocolError, match="malformed"):
            parse_price({"app": "dc", "scheme": "phi",
                         "dataset": "ukl@"})

    def test_insert_values_validated(self):
        from repro.serve.protocol import parse_delta
        _d, delta = parse_delta(
            {"dataset": "ukl", "insertions": [[0, 1]],
             "insert_values": [2.5]})
        assert delta.insert_values is not None
        with pytest.raises(ProtocolError, match="one per insertion"):
            parse_delta({"dataset": "ukl", "insertions": [[0, 1]],
                         "insert_values": [1.0, 2.0]})
        with pytest.raises(ProtocolError, match="one per insertion"):
            parse_delta({"dataset": "ukl", "insertions": [[0, 1]],
                         "insert_values": [True]})

    def test_malformed_edges_rejected(self):
        from repro.serve.protocol import parse_delta
        for bad in ([[0, 1, 2]], [[0]], [0, 1], [[0, "1"]],
                    [[0, True]], [[-1, 2]]):
            with pytest.raises(ProtocolError):
                parse_delta({"dataset": "ukl", "insertions": bad})

    def test_empty_delta_rejected(self):
        from repro.serve.protocol import parse_delta
        with pytest.raises(ProtocolError, match="empty"):
            parse_delta({"dataset": "ukl"})
        # Pure self-loops canonicalize away: still empty.
        with pytest.raises(ProtocolError, match="empty"):
            parse_delta({"dataset": "ukl", "insertions": [[3, 3]]})

    def test_oversized_delta_rejected(self):
        from repro.serve.protocol import MAX_DELTA_EDGES, parse_delta
        edges = [[0, i] for i in range(MAX_DELTA_EDGES + 1)]
        with pytest.raises(ProtocolError, match="limit"):
            parse_delta({"dataset": "ukl", "insertions": edges})

    def test_unknown_field_rejected_with_menu(self):
        from repro.serve.protocol import parse_delta
        with pytest.raises(ProtocolError) as info:
            parse_delta({"dataset": "ukl", "inserts": [[0, 1]]})
        assert "inserts" in str(info.value)
        assert "insertions" in str(info.value)


class TestWireForms:
    def test_request_to_json_carries_cell_description(self):
        request = canonical_request("dc", "phi+spzip", "arb")
        wire = request_to_json(request)
        assert wire["app"] == "dc"
        assert wire["scheme"] == "phi+spzip"
        assert wire["cell"] == request.describe()

    def test_metrics_to_json_is_complete_and_plain(self):
        import json

        from repro.jobs import JobRunner
        metrics = JobRunner(scale=65536).run("dc", "phi", "arb")
        wire = metrics_to_json(metrics)
        json.dumps(wire)  # JSON-serializable end to end
        assert wire["cycles"] == metrics.cycles
        assert wire["total_traffic"] == metrics.total_traffic
        assert wire["traffic"] == dict(metrics.traffic)
