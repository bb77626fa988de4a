"""Tests for the dataset registry stand-ins."""

import numpy as np
import pytest

from repro import datasets
from repro.errors import ReproError


class TestRegistry:
    def test_all_names_present(self):
        names = datasets.dataset_names()
        for expected in ("email", "web", "youtube", "pld", "pld_full"):
            assert expected in names
        assert [f"meetup_m{i}" in names for i in range(1, 6)] == [True] * 5

    def test_unknown_name(self):
        with pytest.raises(ReproError):
            datasets.spec("imaginary")
        with pytest.raises(ReproError):
            datasets.load("imaginary")

    def test_spec_facts(self):
        s = datasets.spec("email")
        assert s.paper_nodes == 265_214
        assert s.paper_edges == 420_045

    def test_load_deterministic_and_cached(self):
        a = datasets.load("email")
        b = datasets.load("email")
        assert a is b  # cached
        assert a.num_nodes > 0 and a.dangling_nodes().size == 0

    def test_meetup_sizes_increase(self):
        sizes = [datasets.load(f"meetup_m{i}").num_nodes for i in range(1, 6)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_meetup_denser_than_web(self):
        meetup = datasets.load("meetup_m1")
        web = datasets.load("web")
        assert (meetup.num_edges / meetup.num_nodes) > (web.num_edges / web.num_nodes)

    def test_density_matches_paper_ratio(self):
        """Stand-ins keep the original m/n within a factor of ~2."""
        for name in ("email", "web", "youtube", "pld"):
            s = datasets.spec(name)
            g = datasets.load(name)
            paper_ratio = s.paper_edges / s.paper_nodes
            ours = g.num_edges / g.num_nodes
            assert 0.4 * paper_ratio <= ours <= 2.2 * paper_ratio, name


class TestScale:
    def test_scale_factor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert datasets.scale_factor() == 2.5

    def test_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(ReproError):
            datasets.scale_factor()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ReproError):
            datasets.scale_factor()

    def test_scale_changes_size(self, monkeypatch):
        base = datasets.load("email").num_nodes
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        smaller = datasets.load("email").num_nodes
        assert smaller == pytest.approx(base * 0.5, rel=0.1)


class TestQueryNodes:
    def test_protocol(self):
        g = datasets.load("email")
        q = datasets.query_nodes(g, 50, seed=1)
        assert q.size == 50
        assert np.unique(q).size == 50  # no replacement
        np.testing.assert_array_equal(q, datasets.query_nodes(g, 50, seed=1))

    def test_clamped_to_graph(self):
        g = datasets.load("email")
        q = datasets.query_nodes(g, 10**9)
        assert q.size == g.num_nodes
