"""Tests for the scheme grammar, registry, and jobs-layer identity."""

import pytest

from repro.schemes import (
    ALL_PARTS,
    COST_MODELS,
    REGISTRY,
    SCHEME_COSTS,
    SchemeParseError,
    SchemeRegistry,
    SchemeSpec,
    UnknownSchemeError,
    costs_for,
    default_parts,
    parse_scheme,
    resolve,
    scheme_names,
)


class TestSpec:
    def test_family_and_display(self):
        spec = SchemeSpec(base="phi", overlay="spzip")
        assert spec.family == "phi+spzip"
        assert spec.display == "phi+spzip"
        assert spec.spzip and not spec.cmh

    def test_decoupled_display_matches_legacy_naming(self):
        spec = SchemeSpec(base="phi", overlay="spzip", decoupled=True)
        assert spec.display == "phi+spzip+decoupled-only"

    def test_display_excluded_from_equality(self):
        a = SchemeSpec(base="push")
        b = SchemeSpec(base="push", display="anything")
        assert a == b
        assert hash(a) == hash(b)

    def test_effective_parts_defaults(self):
        assert SchemeSpec(base="push", overlay="spzip") \
            .effective_parts == frozenset({"adjacency"})
        assert SchemeSpec(base="phi", overlay="spzip") \
            .effective_parts == ALL_PARTS
        # Non-SpZip schemes never compress.
        assert SchemeSpec(base="push").effective_parts == frozenset()
        # Decoupled-only keeps the offload, drops compression (Fig 20).
        assert SchemeSpec(base="phi", overlay="spzip", decoupled=True) \
            .effective_parts == frozenset()

    def test_unknown_base_or_overlay_rejected(self):
        with pytest.raises(SchemeParseError):
            SchemeSpec(base="gather")
        with pytest.raises(SchemeParseError):
            SchemeSpec(base="push", overlay="zram")
        with pytest.raises(SchemeParseError):
            SchemeSpec(base="phi", overlay="spzip",
                       parts=frozenset({"edges"}))

    def test_cmh_rejects_ablations(self):
        with pytest.raises(SchemeParseError):
            SchemeSpec(base="push", overlay="cmh", decoupled=True)
        with pytest.raises(SchemeParseError):
            SchemeSpec(base="push", overlay="cmh",
                       parts=frozenset({"adjacency"}))

    def test_default_parts_follow_paper(self):
        assert default_parts("push") == frozenset({"adjacency"})
        assert default_parts("pull") == frozenset({"adjacency"})
        assert default_parts("ub") == ALL_PARTS
        assert default_parts("phi") == ALL_PARTS


class TestGrammar:
    @pytest.mark.parametrize("text", [
        "push", "phi+spzip", "push+cmh", "pull+spzip",
        "phi+spzip[parts=adjacency]",
        "phi+spzip[parts=adjacency+updates]",
        "phi+spzip[parts=none]",
        "phi+spzip[decoupled]",
        "phi+spzip[parts=adjacency,decoupled]",
    ])
    def test_round_trip(self, text):
        spec = parse_scheme(text)
        assert spec.canonical() == text
        assert parse_scheme(spec.canonical()) == spec

    def test_str_is_canonical(self):
        spec = parse_scheme("phi+spzip[decoupled]")
        assert str(spec) == "phi+spzip[decoupled]"

    def test_parts_order_is_canonicalized(self):
        spec = parse_scheme("phi+spzip[parts=updates+adjacency]")
        assert spec.canonical() == "phi+spzip[parts=adjacency+updates]"

    def test_bracket_options(self):
        spec = parse_scheme("phi+spzip[parts=adjacency,decoupled]")
        assert spec.parts == frozenset({"adjacency"})
        assert spec.decoupled
        assert parse_scheme("phi+spzip[parts=none]").parts == frozenset()

    def test_unknown_scheme_lists_registered(self):
        with pytest.raises(UnknownSchemeError) as err:
            parse_scheme("push+bogus")
        message = str(err.value)
        assert "push+bogus" in message
        for name in scheme_names("all"):
            assert name in message

    def test_unknown_scheme_is_a_keyerror(self):
        # Legacy callers catch KeyError.
        with pytest.raises(KeyError):
            parse_scheme("gather-apply-scatter")

    @pytest.mark.parametrize("text", [
        "phi+spzip[", "phi+spzip]x[", "phi+spzip[parts=edges]",
        "phi+spzip[decoupled,decoupled]",
        "phi+spzip[parts=adjacency,parts=updates]",
        "phi+spzip[turbo]", "push++spzip", "+spzip", "",
    ])
    def test_rejections(self, text):
        with pytest.raises((SchemeParseError, UnknownSchemeError)):
            parse_scheme(text)

    def test_resolve_accepts_specs_and_kwargs(self):
        spec = resolve("phi+spzip", parts=frozenset({"adjacency"}))
        assert spec.canonical() == "phi+spzip[parts=adjacency]"
        assert resolve(spec) == spec
        dec = resolve("phi+spzip", decoupled_only=True)
        assert dec.canonical() == "phi+spzip[decoupled]"

    def test_resolve_rejects_conflicting_parts(self):
        with pytest.raises(ValueError):
            resolve("phi+spzip[parts=adjacency]",
                    parts=frozenset({"updates"}))


class TestRegistry:
    def test_groups(self):
        assert scheme_names("paper") == ("push", "push+spzip", "ub",
                                         "ub+spzip", "phi", "phi+spzip")
        assert scheme_names("cmh") == ("push+cmh", "ub+cmh")
        assert scheme_names("extensions") == ("pull", "pull+spzip")
        assert len(scheme_names("all")) == 10

    def test_contains(self):
        assert "phi+spzip" in REGISTRY
        assert "phi+spzip[parts=adjacency]" in REGISTRY
        assert "push+bogus" not in REGISTRY

    def test_unknown_group_rejected(self):
        with pytest.raises(UnknownSchemeError):
            scheme_names("figs")

    def test_duplicate_and_ablation_registration_rejected(self):
        registry = SchemeRegistry()
        registry.register("push")
        with pytest.raises(ValueError):
            registry.register("push")
        with pytest.raises(ValueError):
            registry.register(SchemeSpec(base="push", overlay="spzip",
                                         decoupled=True))

    def test_every_scheme_has_a_cost_model_and_costs(self):
        for name in scheme_names("all"):
            spec = parse_scheme(name)
            assert spec.base in COST_MODELS
            assert costs_for(spec) is not None

    def test_cmh_costs_add_miss_penalty(self):
        plain = costs_for(parse_scheme("push"))
        cmh = costs_for(parse_scheme("push+cmh"))
        assert cmh.stall_per_miss == plain.stall_per_miss + 40.0

    def test_cost_table_keyed_by_spec_identity(self):
        assert ("push", None) in SCHEME_COSTS
        assert ("phi", "spzip") in SCHEME_COSTS
        assert "phi-spzip" not in SCHEME_COSTS


class TestJobsIdentity:
    def test_canonical_request_folds_ablations(self):
        from repro.jobs import canonical_request
        request = canonical_request(
            "dc", "phi+spzip", "ukl", "none",
            parts=frozenset({"adjacency"}))
        assert request.scheme == "phi+spzip[parts=adjacency]"
        dec = canonical_request("dc", "phi+spzip", "ukl", "none",
                                decoupled_only=True)
        assert dec.scheme == "phi+spzip[decoupled]"

    def test_ablation_variants_get_distinct_fingerprints(self):
        from repro.config import SystemConfig
        from repro.jobs import canonical_request, job_fingerprint
        system = SystemConfig()
        variants = [
            canonical_request("dc", "phi+spzip", "ukl", "none"),
            canonical_request("dc", "phi+spzip", "ukl", "none",
                              parts=frozenset({"adjacency"})),
            canonical_request("dc", "phi+spzip", "ukl", "none",
                              parts=frozenset({"adjacency", "updates"})),
            canonical_request("dc", "phi+spzip", "ukl", "none",
                              decoupled_only=True),
        ]
        keys = [job_fingerprint(r, 65536, system) for r in variants]
        assert len(set(keys)) == len(keys)

    def test_fingerprint_stable_across_kwarg_spellings(self):
        from repro.jobs import canonical_request
        by_kwarg = canonical_request("dc", "phi+spzip", "ukl", "none",
                                     parts=frozenset({"adjacency"}))
        by_string = canonical_request(
            "dc", "phi+spzip[parts=adjacency]", "ukl", "none")
        assert by_kwarg == by_string
