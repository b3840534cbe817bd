"""SNAP dataset layer: parser, fixtures, download cache, edge-arrival replay.

Everything here runs fully offline: the committed ``tests/data/`` fixtures
stand in for real downloads, and the download machinery is exercised
through ``file://`` URLs into a temp cache.  The one test that actually
reaches snap.stanford.edu carries the ``network`` marker and is deselected
by default (``addopts`` in ``pyproject.toml``).
"""

from __future__ import annotations

import gzip
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import evaluate
from repro.core.queries import ReachQuery
from repro.distributed.cluster import SimulatedCluster, _resolve_assignment
from repro.errors import GraphError, QueryError
from repro.graph.digraph import DiGraph
from repro.partition.builder import build_fragmentation
from repro.partition.monitor import MutationMonitor
from repro.workload import snap

DATA_DIR = Path(__file__).resolve().parent / "data"


# ---------------------------------------------------------------------------
# streaming parser
# ---------------------------------------------------------------------------
class TestParser:
    def test_basic_edges(self):
        edges = list(snap.iter_edge_list(["0\t1", "1 2", "  2   0  "]))
        assert edges == [(0, 1), (1, 2), (2, 0)]

    def test_comments_and_blanks_skipped(self):
        stats = snap.EdgeListStats()
        lines = ["# Nodes: 2 Edges: 1", "% mirror comment", "", "0\t1", ""]
        assert list(snap.iter_edge_list(lines, stats=stats)) == [(0, 1)]
        assert stats.comments == 2
        assert stats.lines == 5
        assert stats.parsed_edges == 1

    def test_self_loops_skipped_by_default(self):
        stats = snap.EdgeListStats()
        edges = list(snap.iter_edge_list(["3\t3", "3\t4"], stats=stats))
        assert edges == [(3, 4)]
        assert stats.self_loops == 1

    def test_self_loops_kept_on_request(self):
        edges = list(snap.iter_edge_list(["3\t3"], skip_self_loops=False))
        assert edges == [(3, 3)]

    def test_duplicates_stream_through(self):
        # the parser never filters duplicates — the graph collapses them
        assert list(snap.iter_edge_list(["0\t1", "0\t1"])) == [(0, 1), (0, 1)]

    @pytest.mark.parametrize("bad", ["0", "0 1 2", "a b", "1 x", "1.5 2"])
    def test_malformed_line_names_the_line_number(self, bad):
        with pytest.raises(GraphError, match="line 2"):
            list(snap.iter_edge_list(["0\t1", bad]))

    def test_load_collapses_duplicates_in_the_graph(self, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("0\t1\n0\t1\n1\t1\n1\t2\n", encoding="utf-8")
        stats = snap.EdgeListStats()
        graph = snap.load_edge_file(path, stats=stats)
        assert graph.num_edges == 2
        assert stats.parsed_edges == 4
        assert stats.self_loops == 1
        assert stats.duplicates == 1
        assert "1 duplicates" in stats.note()

    def test_undirected_load_inserts_both_directions(self, tmp_path):
        path = tmp_path / "undirected.txt"
        path.write_text("0\t1\n1\t2\n", encoding="utf-8")
        graph = snap.load_edge_file(path, directed=False)
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert graph.num_edges == 4

    def test_max_edges_prefix(self, tmp_path):
        path = tmp_path / "prefix.txt"
        path.write_text("0\t1\n1\t2\n2\t3\n3\t4\n", encoding="utf-8")
        stats = snap.EdgeListStats()
        graph = snap.load_edge_file(path, max_edges=2, stats=stats)
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]
        # the prefix generator never pulls a record past the limit
        assert stats.parsed_edges == 2

    def test_gzip_sniffed_from_magic_bytes_not_extension(self, tmp_path):
        path = tmp_path / "misnamed.txt"  # gzip bytes behind a .txt name
        path.write_bytes(gzip.compress(b"5\t6\n"))
        assert sorted(snap.load_edge_file(path).edges()) == [(5, 6)]

    def test_to_snap_text_rejects_non_int_ids(self):
        graph = DiGraph.from_edges([("a", "b")])
        with pytest.raises(GraphError, match="integer node ids"):
            snap.to_snap_text(graph)


#: Directed simple graphs in the SNAP format's image: integer ids, no self
#: loops, no isolated nodes (the format stores only edges).
_snap_graphs = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=1,
    max_size=60,
).map(DiGraph.from_edges)


class TestRoundTrip:
    @given(graph=_snap_graphs)
    def test_parse_serialize_is_identity(self, graph):
        text = snap.to_snap_text(graph)
        parsed = DiGraph()
        parsed.add_edges_from(snap.iter_edge_list(text.splitlines()))
        assert parsed == graph

    @given(graph=_snap_graphs)
    def test_counts_survive_the_round_trip(self, graph):
        stats = snap.EdgeListStats()
        edges = list(
            snap.iter_edge_list(snap.to_snap_text(graph).splitlines(), stats=stats)
        )
        assert stats.parsed_edges == graph.num_edges == len(edges)
        assert stats.comments == 3  # the serializer's header
        assert stats.self_loops == 0

    @given(graph=_snap_graphs)
    def test_file_round_trip_plain_and_gzip(self, graph):
        text = snap.to_snap_text(graph)
        import io
        import os
        import tempfile

        for payload in (text.encode(), gzip.compress(text.encode())):
            fd, name = tempfile.mkstemp()
            try:
                with io.open(fd, "wb") as fh:
                    fh.write(payload)
                assert snap.load_edge_file(name) == graph
            finally:
                os.unlink(name)


# ---------------------------------------------------------------------------
# committed fixtures
# ---------------------------------------------------------------------------
class TestFixtures:
    @pytest.mark.parametrize("name", sorted(snap.FIXTURES))
    def test_checksum_pins_hold(self, name):
        spec = snap.FIXTURES[name]
        snap.verify_file(spec.path(DATA_DIR), spec.sha256)

    def test_plain_fixture_shape(self):
        stats = snap.EdgeListStats()
        graph = snap.load_fixture("fixture-plain", DATA_DIR, stats=stats)
        assert (graph.num_nodes, graph.num_edges) == (27, 64)
        assert stats.comments > 0 and stats.self_loops > 0 and stats.duplicates > 0

    def test_gzip_fixture_shape(self):
        graph = snap.load_fixture("fixture-gzip", DATA_DIR)
        assert (graph.num_nodes, graph.num_edges) == (36, 88)

    def test_fixture_dir_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv(snap.FIXTURE_DIR_ENV, str(tmp_path))
        assert snap.fixture_dir() == tmp_path
        assert snap.fixture_dir(DATA_DIR) == DATA_DIR  # explicit arg wins

    def test_unknown_fixture(self):
        with pytest.raises(QueryError, match="unknown SNAP fixture"):
            snap.load_fixture("nope")

    def test_missing_fixture_file_names_the_env_var(self, tmp_path):
        with pytest.raises(QueryError, match=snap.FIXTURE_DIR_ENV):
            snap.load_fixture("fixture-plain", tmp_path / "empty")


# ---------------------------------------------------------------------------
# cache + download (file:// URLs — no network)
# ---------------------------------------------------------------------------
@pytest.fixture
def file_spec(tmp_path, monkeypatch):
    """A registered spec whose URL is a local file:// copy of the fixture."""
    cache = tmp_path / "cache"
    monkeypatch.setenv(snap.DATA_DIR_ENV, str(cache))
    source = tmp_path / "wiki-Vote.txt.gz"
    source.write_bytes(
        gzip.compress((DATA_DIR / "snap_fixture_plain.txt").read_bytes())
    )
    spec = snap.SnapSpec(
        "wiki-Vote", source.as_uri(), 27, 64, True, "file:// test double"
    )
    monkeypatch.setitem(snap.SNAP_SPECS, "wiki-Vote", spec)
    return spec


class TestDownload:
    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(snap.DATA_DIR_ENV, str(tmp_path))
        assert snap.snap_cache_dir() == tmp_path
        monkeypatch.delenv(snap.DATA_DIR_ENV)
        assert snap.snap_cache_dir() == snap.DEFAULT_DATA_DIR.expanduser()

    def test_missing_dataset_error_names_command_and_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv(snap.DATA_DIR_ENV, str(tmp_path))
        with pytest.raises(QueryError) as err:
            snap.load_snap("wiki-Vote")
        message = str(err.value)
        assert "python -m repro.workload.snap download wiki-Vote" in message
        assert str(tmp_path) in message

    def test_unknown_dataset(self):
        with pytest.raises(QueryError, match="unknown SNAP dataset"):
            snap.get_spec("not-a-graph")

    def test_download_records_tofu_sidecar(self, file_spec):
        path = snap.download("wiki-Vote")
        assert path.exists() and not path.with_name(path.name + ".part").exists()
        sidecar = path.with_name(path.name + ".sha256")
        assert sidecar.read_text().split()[0] == snap.expected_sha256(file_spec)
        # second call is a cache hit; force re-verifies against the sidecar
        assert snap.download("wiki-Vote") == path
        assert snap.download("wiki-Vote", force=True) == path

    def test_download_rejects_checksum_mismatch(self, file_spec, monkeypatch):
        bad = snap.SnapSpec(
            file_spec.name, file_spec.url, 27, 64, True, "pinned wrong",
            sha256="0" * 64,
        )
        monkeypatch.setitem(snap.SNAP_SPECS, "wiki-Vote", bad)
        with pytest.raises(QueryError, match="checksum mismatch"):
            snap.download("wiki-Vote")
        assert not snap.dataset_path("wiki-Vote").exists()  # atomic: no debris

    def test_download_failure_is_a_query_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(snap.DATA_DIR_ENV, str(tmp_path))
        spec = snap.SnapSpec(
            "wiki-Vote", (tmp_path / "absent.gz").as_uri(), 1, 1, True, "gone"
        )
        monkeypatch.setitem(snap.SNAP_SPECS, "wiki-Vote", spec)
        with pytest.raises(QueryError, match="download .* failed"):
            snap.download("wiki-Vote")

    def test_verify_file_mismatch(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0\t1\n")
        with pytest.raises(QueryError, match="checksum mismatch"):
            snap.verify_file(path, "0" * 64)

    def test_load_snap_serves_the_cached_file(self, file_spec):
        snap.download("wiki-Vote")
        graph = snap.load_snap("wiki-Vote")
        assert (graph.num_nodes, graph.num_edges) == (27, 64)

    def test_load_dataset_dispatches_to_snap(self, file_spec):
        from repro.workload import load_dataset

        snap.download("wiki-Vote")
        assert load_dataset("wiki-Vote") == snap.load_snap("wiki-Vote")


class TestModuleCli:
    def test_list(self, file_spec, capsys):
        assert snap.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "wiki-Vote" in out and "not downloaded" in out

    def test_download_verify_cycle(self, file_spec, capsys):
        assert snap.main(["download", "wiki-Vote"]) == 0
        assert snap.main(["verify", "wiki-Vote"]) == 0
        assert "ok (sha256" in capsys.readouterr().out

    def test_verify_without_cache_exits_2(self, file_spec, capsys):
        assert snap.main(["verify", "wiki-Vote"]) == 2
        assert "download wiki-Vote" in capsys.readouterr().err

    def test_verify_without_any_checksum_exits_1(self, file_spec, capsys):
        snap.download("wiki-Vote")
        sidecar = snap.dataset_path("wiki-Vote").with_name(
            snap.SNAP_SPECS["wiki-Vote"].filename + ".sha256"
        )
        sidecar.unlink()
        assert snap.main(["verify", "wiki-Vote"]) == 1
        assert "no recorded checksum" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bulk graph construction
# ---------------------------------------------------------------------------
class TestAddEdgesFrom:
    def test_creates_endpoints_and_counts_insertions(self):
        graph = DiGraph()
        added = graph.add_edges_from([(0, 1), (1, 2), (0, 1)])
        assert added == 2
        assert graph.num_edges == 2 and graph.num_nodes == 3
        assert graph.label(0) is None

    def test_matches_add_edge_semantics(self):
        pairs = [(0, 1), (1, 2), (2, 0), (0, 1), (2, 3)]
        bulk = DiGraph()
        bulk.add_edges_from(pairs)
        assert bulk == DiGraph.from_edges(pairs)

    def test_bumps_mutation_stamp_once_per_batch(self):
        graph = DiGraph.from_edges([(0, 1)])
        before = graph.mutation_stamp
        graph.add_edges_from([(1, 2), (2, 3)])
        assert graph.mutation_stamp == before + 1

    def test_preserves_existing_labels(self):
        graph = DiGraph()
        graph.add_node(0, label="keep")
        graph.add_edges_from([(0, 1)])
        assert graph.label(0) == "keep"


# ---------------------------------------------------------------------------
# edge-arrival replay
# ---------------------------------------------------------------------------
def _fixture_stream():
    """Arrival-order records of the plain fixture (duplicates included)."""
    with snap.open_edge_file(DATA_DIR / "snap_fixture_plain.txt") as fh:
        return list(snap.iter_edge_list(fh))


FIXTURE_STREAM = _fixture_stream()
FIXTURE_GRAPH = snap.load_fixture("fixture-plain", DATA_DIR)


def _signature(cluster, queries):
    evaluations = [evaluate(cluster, q, "disReach") for q in queries]
    return (
        [r.answer for r in evaluations],
        sum(r.stats.total_visits for r in evaluations),
        sum(r.stats.traffic_bytes for r in evaluations),
    )


class TestReplay:
    def test_nodes_only_cluster_is_edge_free_with_full_assignment(self):
        cluster, assignment = snap.nodes_only_cluster(FIXTURE_GRAPH, 3)
        assert cluster.fragmentation.restore_graph().num_edges == 0
        assert set(assignment) == set(FIXTURE_GRAPH.nodes())
        expected, _ = _resolve_assignment(FIXTURE_GRAPH, 3, "chunk", 0)
        assert assignment == expected

    def test_replay_counts_duplicates_and_is_idempotent(self):
        cluster, _ = snap.nodes_only_cluster(FIXTURE_GRAPH, 3)
        report = snap.replay_edges(cluster, FIXTURE_STREAM)
        assert report.applied == FIXTURE_GRAPH.num_edges
        assert report.duplicates == len(FIXTURE_STREAM) - report.applied
        again = snap.replay_edges(cluster, FIXTURE_STREAM)
        assert again.applied == 0
        assert again.duplicates == len(FIXTURE_STREAM)

    def test_vf_trace_sampling(self):
        cluster, _ = snap.nodes_only_cluster(FIXTURE_GRAPH, 3)
        report = snap.replay_edges(cluster, FIXTURE_STREAM, sample=16)
        assert [index for index, _vf in report.vf_trace] == [16, 32, 48, 64]
        assert all(vf >= 0 for _i, vf in report.vf_trace)

    @settings(max_examples=25)
    @given(
        prefix=st.integers(0, len(FIXTURE_STREAM)),
        partitioner=st.sampled_from(["chunk", "hash", "refined"]),
    )
    def test_any_prefix_replay_matches_static_load(self, prefix, partitioner):
        """Replaying a stream prefix == statically loading that prefix.

        Bit-identical answers, visit counts and modeled traffic, for every
        prefix length and partitioner — the replay path
        (apply_edge_mutation per record) is just a slower way to build the
        same cluster.  The backend is the next test's axis.
        """
        replayed, assignment = snap.nodes_only_cluster(
            FIXTURE_GRAPH, 3, partitioner=partitioner
        )
        snap.replay_edges(replayed, FIXTURE_STREAM[:prefix])
        static_graph = DiGraph()
        for node in FIXTURE_GRAPH.nodes():
            static_graph.add_node(node)
        static_graph.add_edges_from(FIXTURE_STREAM[:prefix])
        static = SimulatedCluster(build_fragmentation(static_graph, assignment, 3))
        assert (
            replayed.fragmentation.restore_graph() == static_graph
        )
        nodes = sorted(FIXTURE_GRAPH.nodes())
        queries = [
            ReachQuery(nodes[0], nodes[-1]),
            ReachQuery(nodes[1], nodes[len(nodes) // 2]),
        ]
        assert _signature(replayed, queries) == _signature(static, queries)

    def test_replay_with_process_backend_matches_sequential(self):
        """Replay on the socket backend matches sequential: the broker
        processes are the process boundary the replayed fragments cross."""
        signatures = []
        for backend in ("sequential", "socket"):
            cluster, _ = snap.nodes_only_cluster(
                FIXTURE_GRAPH, 3, executor=backend
            )
            snap.replay_edges(cluster, FIXTURE_STREAM)
            nodes = sorted(FIXTURE_GRAPH.nodes())
            signatures.append(
                _signature(cluster, [ReachQuery(nodes[0], nodes[-1])])
            )
        assert signatures[0] == signatures[1]

    def test_monitor_fires_during_replay(self):
        cluster, _ = snap.nodes_only_cluster(
            FIXTURE_GRAPH, 3, partitioner="hash"
        )
        monitor = MutationMonitor(
            cluster, drift_threshold=0.1, move_budget=16, region_hops=1
        )
        report = snap.replay_edges(cluster, FIXTURE_STREAM)
        assert report.epochs == len(monitor.refinements) > 0
        assert all(
            r.moved_nodes <= 16 for r in monitor.refinements
        )

    def test_iter_dataset_edges_fixture(self):
        stream = list(snap.iter_dataset_edges("fixture-plain"))
        assert stream == FIXTURE_STREAM


# ---------------------------------------------------------------------------
# the bench experiment (fixture mode — what CI gates)
# ---------------------------------------------------------------------------
class TestExpSnap:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.bench.experiments import exp_snap

        return exp_snap(fixture=True, num_queries=2).rows

    def test_row_families_present(self, rows):
        modes = {row["mode"] for row in rows}
        assert modes == {"load", "static", "replay", "replay-monitor"}

    def test_envelope_holds_on_every_static_cell(self, rows):
        static = [row for row in rows if row["mode"] == "static"]
        assert static and all(row["env_ok"] == 1 for row in static)

    def test_replay_rows_match_static_loads(self, rows):
        replays = [row for row in rows if row["mode"] == "replay"]
        assert replays and all(row["replay_match"] == 1 for row in replays)

    def test_refined_beats_hash_on_vf(self, rows):
        for dataset in ("fixture-plain", "fixture-gzip"):
            vf = {
                row["partitioner"]: row["Vf"]
                for row in rows
                if row["mode"] == "static"
                and row["dataset"] == dataset
                and row["algorithm"] == "disReach"
                and row["backend"] == "sequential"
            }
            assert vf["refined"] <= vf["hash"]

    def test_cli_forwards_fixture_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = tmp_path / "snap.json"
        assert main(["snap", "--fixture", "--queries", "2", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {row["mode"] for row in payload["snap"]["rows"]} >= {"load", "static"}

    def test_missing_datasets_skip_with_reason(self, monkeypatch, tmp_path):
        from repro.bench.experiments import exp_snap

        monkeypatch.setenv(snap.DATA_DIR_ENV, str(tmp_path))  # empty cache
        rows = exp_snap(num_queries=2).rows
        skips = [row for row in rows if row["mode"] == "skip"]
        # soc-LiveJournal1 trips the RSS estimate guard; the rest miss the cache
        assert len(skips) == len(snap.SNAP_SPECS)
        reasons = " ".join(str(row["status"]) for row in skips)
        assert "not in cache" in reasons and "estimated RSS" in reasons

    def test_exhausted_wall_budget_skips_loudly(self, monkeypatch):
        """A zero budget cuts the sweep right after the load row — loudly."""
        from repro.bench.experiments import exp_snap

        rows = exp_snap(fixture=True, num_queries=2, wall_budget_s=0.0).rows
        by_mode = {}
        for row in rows:
            by_mode.setdefault(row["mode"], []).append(row)
        assert set(by_mode) == {"load", "skip"}
        for row in by_mode["skip"]:
            assert "wall budget 0s exceeded" in row["status"]

    def test_mid_run_wall_budget_skips_every_phase_loudly(self):
        """Budget expiry between phases emits a skip row per cut phase.

        A fake budget clock advancing one second per read makes the cut
        deterministic: the static sweep reads it once per cell, so 4 fake
        seconds is enough for the fixture's 2 partitioners x 2 algorithms
        but expires before the replay loop, so the replay and the
        replay-monitor passes of every dataset must each leave their own
        skip row (never a silent omission).  Only the budget reads the
        fake clock, so other timing in the sweep cannot move the cut.
        """
        from repro.bench.experiments import SNAP_FIXTURE_PARTITIONERS, exp_snap

        ticks = itertools.count(1)
        rows = exp_snap(
            fixture=True, num_queries=2, wall_budget_s=4.0,
            clock=lambda: float(next(ticks)),
        ).rows
        statics = [row for row in rows if row["mode"] == "static"]
        # every fixture x partitioner x (disReach, disDist) ran before the cut
        assert len(statics) == len(snap.FIXTURES) * len(SNAP_FIXTURE_PARTITIONERS) * 2
        reasons = [row["status"] for row in rows if row["mode"] == "skip"]
        assert [r.split(":")[0] for r in reasons] == [
            "skipped replay", "skipped replay-monitor"
        ] * len(snap.FIXTURES)


# ---------------------------------------------------------------------------
# the real thing (network marker — deselected by default)
# ---------------------------------------------------------------------------
@pytest.mark.network
class TestRealDownload:
    def test_wiki_vote_download_and_envelope(self, tmp_path, monkeypatch):
        monkeypatch.setenv(snap.DATA_DIR_ENV, str(tmp_path))
        snap.download("wiki-Vote")
        stats = snap.EdgeListStats()
        graph = snap.load_snap("wiki-Vote", stats=stats)
        spec = snap.get_spec("wiki-Vote")
        assert graph.num_nodes == spec.nodes
        assert graph.num_edges <= spec.edges  # duplicates collapse
        assert stats.parsed_edges == spec.edges
