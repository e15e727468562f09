"""Results service tests: read model, socket-free API, figures, server.

The expensive fixture drains one sampled sweep through the durable work
queue with telemetry enabled, then *unsets* the telemetry switch -- every
assertion below runs against the stores with ``REPRO_TELEMETRY`` absent,
pinning the read-side contract (``query_root()`` semantics) end to end.

The figure tests enforce the exactness contract: each SVG bar's
``data-mean``/``data-half-width`` attributes must equal the archived
ResultSet floats under ``==``, not approximately.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import pytest

from repro.obs.ledger import RunLedger, summarize
from repro.queue import SweepService
from repro.queue.service import NO_QUEUE_DIR
from repro.sampling.windows import SamplingConfig
from repro.serve import ReadModel, create_server, handle_request
from repro.serve.figures import Bar, BarGroup, render_grouped_bars
from repro.sim.experiment import ExperimentConfig
from repro.sim.spec import SweepSpec

SVG_NS = "{http://www.w3.org/2000/svg}"


def sampled_spec() -> SweepSpec:
    return SweepSpec(
        designs=("unison", "alloy"),
        workloads=("Web Search",),
        capacities=("512MB",),
        config=ExperimentConfig(scale=2048, num_accesses=8000),
        sampling=SamplingConfig(window_accesses=400, max_windows=8,
                                min_windows=4),
    )


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One archived sampled sweep + ledger, read with telemetry unset."""
    root = tmp_path_factory.mktemp("serve-root")
    saved = {name: os.environ.get(name)
             for name in ("REPRO_TRACE_STORE", "REPRO_QUEUE_DIR",
                          "REPRO_TELEMETRY", "REPRO_TELEMETRY_DIR")}
    os.environ["REPRO_TRACE_STORE"] = str(root / "store")
    os.environ["REPRO_QUEUE_DIR"] = str(root / "queue")
    os.environ["REPRO_TELEMETRY"] = "1"
    os.environ["REPRO_TELEMETRY_DIR"] = str(root / "telemetry")
    try:
        spec = sampled_spec()
        service = SweepService()
        token = service.submit(spec).token
        resultset = service.run(spec)
        # The read side must work with the telemetry switch absent.
        del os.environ["REPRO_TELEMETRY"]
        model = ReadModel(queue_dir=root / "queue",
                          telemetry_dir=root / "telemetry")
        yield SimpleNamespace(root=root, token=token, resultset=resultset,
                              model=model)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def get_json(model, path, query=None):
    response = handle_request(model, path, query or {})
    assert response.content_type.startswith("application/json")
    return response.status, json.loads(response.body.decode("utf-8"))


def get_svg(model, path, query=None):
    response = handle_request(model, path, query or {})
    assert response.status == 200, response.body
    assert response.content_type.startswith("image/svg+xml")
    return ET.fromstring(response.body.decode("utf-8"))


# --------------------------------------------------------------------- #
# Read model
# --------------------------------------------------------------------- #
class TestReadModel:
    def test_telemetry_switch_is_unset(self, served):
        assert "REPRO_TELEMETRY" not in os.environ

    def test_sweeps_merges_archive_and_jobstore(self, served):
        data = served.model.sweeps()
        assert data["available"]
        (sweep,) = [s for s in data["sweeps"] if s["token"] == served.token]
        assert sweep["archived"] and sweep["complete"]
        assert sweep["records"] == sweep["total"] == len(served.resultset)
        assert sweep["jobs"]["counts"]["failed"] == 0
        assert sweep["jobs"]["unfinished"] == 0

    def test_sweep_detail_resolves_prefix(self, served):
        detail = served.model.sweep(served.token[:8])
        assert detail["token"] == served.token
        assert len(detail["results"]) == len(served.resultset)
        assert detail["jobs"]["counts"]["done"] == detail["jobs"]["total"]

    def test_queue_overview_and_token_views(self, served):
        overview = served.model.queue()
        assert overview["available"]
        assert served.token in [s["token"] for s in overview["sweeps"]]
        assert overview["unfinished"] == 0
        detail = served.model.queue(token=served.token[:8])
        assert detail["token"] == served.token
        assert detail["counts"]["done"] == detail["total"] > 0
        assert all(job["state"] == "done" for job in detail["jobs"])
        # Each job shows the cost estimate it was leased by.
        assert all(job["cost_scalar"] is False for job in detail["jobs"])
        assert detail["workers"]["available"]

    def test_runs_listing_and_sweep_summary(self, served):
        runs = served.model.runs(limit=100)
        assert runs["available"] and runs["runs"]
        detail = served.model.run_detail(served.token)
        assert detail["scope"] == "sweep"
        assert detail["summary"]["runs"] == len(detail["runs"])
        assert detail["summary"]["errors"] == 0
        assert "measure" in detail["summary"]["phases"]
        assert detail["summary"]["accesses_per_sec"] > 0

    def test_run_detail_includes_manifest(self, served):
        run_id = served.model.runs(limit=1)["runs"][0]["run_id"]
        detail = served.model.run_detail(run_id)
        assert detail["scope"] == "run"
        assert detail["runs"][0]["phases"]
        manifest = detail["manifest"]
        assert manifest is not None and manifest["events"]

    def test_figure_source_defaults_to_latest_archived(self, served):
        meta, resultset = served.model.figure_source()
        assert meta["token"] == served.token
        assert resultset == served.resultset


# --------------------------------------------------------------------- #
# Handler-level API (no socket)
# --------------------------------------------------------------------- #
class TestApi:
    def test_health(self, served):
        status, data = get_json(served.model, "/api/health")
        assert status == 200 and data["ok"]
        assert data["stores"] == {"jobs": True, "archive": True,
                                  "ledger": True}

    def test_sweeps_endpoints(self, served):
        status, data = get_json(served.model, "/api/sweeps")
        assert status == 200 and data["sweeps"]
        status, detail = get_json(served.model,
                                  f"/api/sweeps/{served.token[:8]}")
        assert status == 200
        assert len(detail["results"]) == len(served.resultset)

    def test_runs_endpoints(self, served):
        status, data = get_json(served.model, "/api/runs",
                                {"limit": ["5"]})
        assert status == 200 and len(data["runs"]) <= 5
        status, detail = get_json(served.model,
                                  f"/api/runs/{served.token}")
        assert status == 200 and detail["scope"] == "sweep"
        status, error = get_json(served.model, "/api/runs/zzzzzz")
        assert status == 404 and "error" in error

    def test_queue_endpoint(self, served):
        status, data = get_json(served.model, "/api/queue",
                                {"token": [served.token]})
        assert status == 200
        assert data["counts"]["done"] == data["total"]

    def test_figure_catalog_and_unknown(self, served):
        status, data = get_json(served.model, "/api/figures")
        assert status == 200
        assert {f["name"] for f in data["figures"]} == {"fig6", "fig7",
                                                        "compare"}
        status, error = get_json(served.model, "/api/figures/fig99")
        assert status == 404 and "fig99" in error["error"]

    def test_bad_limit_is_400(self, served):
        status, error = get_json(served.model, "/api/runs",
                                 {"limit": ["lots"]})
        assert status == 400 and "limit" in error["error"]

    def test_dashboard_html(self, served):
        response = handle_request(served.model, "/")
        assert response.status == 200
        page = response.body.decode("utf-8")
        assert response.content_type.startswith("text/html")
        assert "/api/queue" in page and "/api/figures/" in page


# --------------------------------------------------------------------- #
# Figures: one bar per design, CI numbers exactly equal to the archive
# --------------------------------------------------------------------- #
def bars_by_series(svg):
    return {rect.get("data-series"): rect
            for rect in svg.iter(f"{SVG_NS}rect")
            if rect.get("data-series") is not None}

class TestFigures:
    def test_fig6_matches_resultset_exactly(self, served):
        svg = get_svg(served.model, "/api/figures/fig6")
        bars = bars_by_series(svg)
        assert set(bars) == set(served.resultset.designs)
        for result in served.resultset:
            rect = bars[result.design]
            assert float(rect.get("data-mean")) == result.miss_ratio
            assert (float(rect.get("data-half-width"))
                    == result.extra["sampling_miss_ratio_half_width"])
            assert result.extra["sampling_miss_ratio_half_width"] > 0

    def test_fig7_matches_resultset_exactly(self, served):
        svg = get_svg(served.model, "/api/figures/fig7")
        bars = bars_by_series(svg)
        for result in served.resultset:
            if result.speedup_vs_no_cache is None:
                continue
            rect = bars[result.design]
            assert (float(rect.get("data-mean"))
                    == result.speedup_vs_no_cache)
            assert (float(rect.get("data-half-width"))
                    == result.extra["sampling_speedup_half_width"])

    def test_fig6_has_error_bar_whiskers(self, served):
        svg = get_svg(served.model, "/api/figures/fig6")
        lines = list(svg.iter(f"{SVG_NS}line"))
        # Per sampled bar: one vertical whisker plus two caps, on top of
        # the two axes and the gridlines.
        designs = len(served.resultset.designs)
        assert len(lines) >= 3 * designs + 2

    def test_compare_figure(self, served):
        run_id = served.model.runs(limit=1)["runs"][0]["run_id"]
        svg = get_svg(served.model, "/api/figures/compare",
                      {"a": [served.token], "b": [run_id]})
        assert bars_by_series(svg)
        status, error = get_json(served.model, "/api/figures/compare")
        assert status == 400

    def test_renderer_handles_empty_and_zero(self):
        svg = render_grouped_bars("empty", "y", [])
        ET.fromstring(svg)
        svg = render_grouped_bars(
            "zeros", "y", [BarGroup("g", (Bar("s", 0.0),))])
        root = ET.fromstring(svg)
        assert bars_by_series(root)["s"].get("data-mean") == "0.0"


# --------------------------------------------------------------------- #
# Missing stores degrade instead of crashing
# --------------------------------------------------------------------- #
class TestEmptyRoot:
    def test_listing_endpoints_answer_200(self, tmp_path):
        model = ReadModel.at_root(tmp_path / "nowhere")
        for path in ("/api/sweeps", "/api/queue", "/api/runs"):
            status, data = get_json(model, path)
            assert status == 200
            assert data["available"] is False
        status, _ = get_json(model, "/api/figures/fig6")
        assert status == 404

    def test_no_queue_directory(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        for name in ("REPRO_QUEUE_DIR", "REPRO_TELEMETRY_DIR"):
            monkeypatch.delenv(name, raising=False)
        model = ReadModel()
        assert model.queue_dir is None
        status, health = get_json(model, "/api/health")
        assert status == 200 and health["queue_dir"] is None
        assert not any(health["stores"].values())
        for path in ("/api/sweeps", "/api/queue"):
            status, data = get_json(model, path)
            assert status == 200 and data["available"] is False
            assert data["reason"] == NO_QUEUE_DIR
        assert main(["queue", "status"]) == 2
        assert "no queue directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["queue", "status"], ["top"]],
                             ids=["queue-status", "top"])
    def test_read_only_views_create_no_file(self, tmp_path, monkeypatch,
                                            capsys, argv):
        from repro.cli import main

        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        monkeypatch.setenv("REPRO_QUEUE_DIR", str(queue_dir))
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "telemetry"))
        assert main(argv) == 0
        capsys.readouterr()
        assert list(tmp_path.rglob("*")) == [queue_dir]


# --------------------------------------------------------------------- #
# One read side: each CLI view's --json is its endpoint's body
# --------------------------------------------------------------------- #
CLI_VIEWS = {
    "queue-status-listing": (["queue", "status", "--json"],
                             "/api/sweeps", {}),
    "queue-status-token": (["queue", "status", "{prefix}", "--json"],
                           "/api/queue", {"token": "{prefix}", "jobs": "0"}),
    "queue-status-jobs": (["queue", "status", "{prefix}", "--json", "--jobs"],
                          "/api/queue", {"token": "{prefix}"}),
    "runs-list": (["runs", "list", "--json"], "/api/runs", {}),
    "runs-show": (["runs", "show", "{prefix}", "--json"],
                  "/api/runs/{prefix}", {}),
}


class TestCliRendersReadModel:
    @pytest.mark.parametrize("view", sorted(CLI_VIEWS))
    def test_cli_json_is_endpoint_body(self, served, monkeypatch, capsys,
                                       view):
        from repro.cli import main

        # Heartbeat ages are computed per call; freeze the clock.
        monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
        argv, path, query = CLI_VIEWS[view]
        prefix = served.token[:8]
        status, body = get_json(
            served.model, path.format(prefix=prefix),
            {name: [value.format(prefix=prefix)]
             for name, value in query.items()})
        assert status == 200
        assert main([arg.format(prefix=prefix) for arg in argv]) == 0
        assert json.loads(capsys.readouterr().out) == body

    def test_token_views_take_prefixes(self, served, capsys):
        from repro.cli import main

        prefix = served.token[:8]
        assert main(["queue", "status", prefix]) == 0
        out = capsys.readouterr().out
        assert f"sweep {served.token}" in out
        assert "archived" in out and "jobs done" in out
        assert main(["top", "--sweep", prefix]) == 0
        assert "queue: 0 unfinished jobs" in capsys.readouterr().out
        for argv in (["queue", "status", ""], ["top", "--sweep", "zzzz"]):
            assert main(argv) == 1
            assert "error:" in capsys.readouterr().err
        with pytest.raises(ValueError, match="empty"):
            served.model.sweep("")


# --------------------------------------------------------------------- #
# Ledger edge cases the server hits
# --------------------------------------------------------------------- #
def minimal_run(run_id, sweep=None, phases=None, metrics=None):
    return {
        "run_id": run_id,
        "kind": "trial",
        "labels": {"sweep": sweep, "design": "unison"},
        "started_at": 1.0,
        "finished_at": 2.0,
        "wall_seconds": 1.0,
        "status": "ok",
        "phases": phases or {},
        "metrics": metrics or {},
    }


class TestLedgerEdges:
    @pytest.fixture
    def telemetry_dir(self, tmp_path):
        return tmp_path / "telemetry"

    @pytest.fixture
    def model(self, tmp_path, telemetry_dir):
        return ReadModel(queue_dir=tmp_path / "queue",
                         telemetry_dir=telemetry_dir)

    def test_ambiguous_run_prefix_is_400(self, model, telemetry_dir):
        with RunLedger(telemetry_dir / "ledger.sqlite") as ledger:
            ledger.record_run(minimal_run("abc111"))
            ledger.record_run(minimal_run("abc222"))
            with pytest.raises(ValueError):
                ledger.resolve("abc")
        status, error = get_json(model, "/api/runs/abc")
        assert status == 400
        assert "ambiguous" in error["error"]

    def test_summarize_zero_measure_accesses(self, model, telemetry_dir):
        with RunLedger(telemetry_dir / "ledger.sqlite") as ledger:
            ledger.record_run(minimal_run(
                "idle01",
                phases={"measure": (0.5, 1, None)},
                metrics={"accesses": 0.0},
            ))
            _, rows = ledger.resolve("idle01")
            summary = summarize(ledger, rows)
        assert "accesses_per_sec" not in summary
        status, detail = get_json(model, "/api/runs/idle01")
        assert status == 200
        assert "accesses_per_sec" not in detail["summary"]

    def test_torn_manifest_tail_served(self, model, telemetry_dir):
        with RunLedger(telemetry_dir / "ledger.sqlite") as ledger:
            ledger.record_run(minimal_run("torn01"))
        manifests = telemetry_dir / "manifests"
        manifests.mkdir(parents=True)
        (manifests / "torn01.jsonl").write_text(
            json.dumps({"kind": "run_start"}) + "\n"
            + json.dumps({"kind": "window", "index": 0}) + "\n"
            + '{"kind": "run_end", "trunc',  # crashed writer
            encoding="utf-8",
        )
        status, detail = get_json(model, "/api/runs/torn01")
        assert status == 200
        events = detail["manifest"]["events"]
        assert [e["kind"] for e in events] == ["run_start", "window"]


# --------------------------------------------------------------------- #
# End to end over a real socket
# --------------------------------------------------------------------- #
class TestSocket:
    def test_serve_round_trip(self, served):
        server = create_server(host="127.0.0.1", port=0, root=served.root,
                               quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = server.url
            with urllib.request.urlopen(base + "api/sweeps") as reply:
                assert reply.status == 200
                data = json.loads(reply.read().decode("utf-8"))
            assert served.token in [s["token"] for s in data["sweeps"]]
            with urllib.request.urlopen(base + "api/figures/fig6") as reply:
                assert reply.status == 200
                assert "svg+xml" in reply.headers["Content-Type"]
                ET.fromstring(reply.read().decode("utf-8"))
            with urllib.request.urlopen(base) as reply:
                assert reply.status == 200
                assert "dashboard" in reply.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
