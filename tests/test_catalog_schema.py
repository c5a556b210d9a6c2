"""Catalog schema stability: ``repro-catalog-v1`` is a published contract.

Serve clients validate submissions against the catalog payload, so
additions must be backwards-compatible: new keys and new list entries
are fine, but the schema tag, the existing keys and the existing entry
shapes must not change.  The front-end PR grew the catalog (I-side
prefetchers, front-end modes, server-class benchmarks) without bumping
the schema -- this file pins that contract.
"""

import json

from repro.frontend import FRONTEND_MODES, IPREFETCHER_NAMES
from repro.sim.catalog import CATALOG_SCHEMA, catalog, render_catalog
from repro.sim.config import PREDICTOR_NAMES, PREFETCHER_NAMES
from repro.workloads.spec import BENCHMARKS


def test_schema_tag_is_stable():
    assert CATALOG_SCHEMA == "repro-catalog-v1"
    assert catalog()["schema"] == "repro-catalog-v1"


def test_catalog_top_level_keys():
    payload = catalog()
    assert set(payload) == {
        "schema", "benchmarks", "prefetchers", "iprefetchers",
        "frontend_modes", "branch_predictors", "defaults", "cache_version",
    }
    assert set(payload["defaults"]) == {
        "single_instructions", "mix_instructions",
    }


def test_catalog_is_json_serialisable_and_fresh():
    payload = catalog()
    assert json.loads(json.dumps(payload)) == payload
    payload["benchmarks"].clear()  # mutating a copy must not stick
    assert catalog()["benchmarks"]


def test_benchmark_entries_keep_their_shape():
    for entry in catalog()["benchmarks"]:
        assert set(entry) == {"name", "klass", "prefetch_sensitive"}
        assert entry["name"] in BENCHMARKS
        assert entry["klass"] in (
            "streaming", "spatial", "irregular", "compute", "server")
        assert isinstance(entry["prefetch_sensitive"], bool)


def test_catalog_exposes_frontend_families():
    payload = catalog()
    assert payload["iprefetchers"] == list(IPREFETCHER_NAMES)
    assert payload["frontend_modes"] == list(FRONTEND_MODES)
    assert payload["prefetchers"] == list(PREFETCHER_NAMES)
    assert payload["branch_predictors"] == list(PREDICTOR_NAMES)
    # the I-side family is disjoint from the D-side names
    assert not set(payload["iprefetchers"]) & set(payload["prefetchers"]) \
        - {"none"}


def test_catalog_lists_server_benchmarks():
    servers = [entry["name"] for entry in catalog()["benchmarks"]
               if entry["klass"] == "server"]
    assert servers == ["nginx", "postgres", "verilator"]
    assert "bfetch" in PREFETCHER_NAMES and "fdip" not in PREFETCHER_NAMES


def test_render_catalog_covers_all_families():
    text = render_catalog()
    assert "iprefetchers (frontend=ftq):" in text
    for name in IPREFETCHER_NAMES:
        assert name in text
    assert "nginx" in text and "(server)" in text
