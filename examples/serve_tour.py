#!/usr/bin/env python3
"""Tour of the results service: archive a sweep, serve it, scrape it.

Walks the full ``repro serve`` loop without ever leaving one process:

1. drain a *sampled* sweep through the durable work queue with
   telemetry enabled, so all three stores exist -- job store, result
   archive (with per-trial 95% CI extras), and run ledger;
2. start the zero-dependency HTTP server on an ephemeral port (the
   same code path as ``repro serve``);
3. query ``/api/sweeps`` and ``/api/runs/<token>`` like a script or CI
   job would;
4. fetch the fig6 miss-ratio SVG and show that each bar's
   ``data-mean``/``data-half-width`` attributes equal the archived
   ResultSet floats *exactly*;
5. submit a second sweep and watch ``/api/queue`` while a worker
   thread drains it -- the live view the dashboard polls.

The tour isolates itself in a temporary trace-store root so it never
touches (or depends on) your real caches.  To explore the dashboard
interactively afterwards, run ``repro serve`` against a real root and
open the printed URL in a browser.

Usage::

    python examples/serve_tour.py [--accesses 8000]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
import urllib.request
import xml.etree.ElementTree as ET
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

SVG_NS = "{http://www.w3.org/2000/svg}"


def fetch(base: str, path: str) -> bytes:
    with urllib.request.urlopen(base.rstrip("/") + path) as reply:
        assert reply.status == 200, (path, reply.status)
        return reply.read()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=8000)
    parser.add_argument("--scale", type=int, default=2048)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-serve-tour-") as root:
        os.environ["REPRO_TRACE_STORE"] = root
        os.environ["REPRO_QUEUE_DIR"] = str(Path(root) / "queue")
        os.environ["REPRO_TELEMETRY"] = "1"
        os.environ["REPRO_TELEMETRY_DIR"] = str(Path(root) / "telemetry")

        from repro import ExperimentConfig, SamplingConfig, SweepSpec
        from repro.queue import SweepService, work
        from repro.serve import create_server

        # ---- 1. archive a sampled sweep through the queue ----------- #
        spec = SweepSpec(
            designs=("unison", "alloy", "footprint"),
            workloads=("Web Search",),
            capacities=("512MB",),
            config=ExperimentConfig(scale=args.scale,
                                    num_accesses=args.accesses),
            sampling=SamplingConfig(window_accesses=400, max_windows=8,
                                    min_windows=4),
        )
        service = SweepService()
        token = service.submit(spec).token
        print(f"[1] draining sampled sweep {token[:12]}… "
              f"({len(spec.trials())} trials)")
        resultset = service.run(spec)
        print(f"    archived {len(resultset)} results")

        # ---- 2. start the server on an ephemeral port --------------- #
        # The read side ignores the telemetry *enable* switch -- drop it
        # to prove serving works with REPRO_TELEMETRY unset.
        del os.environ["REPRO_TELEMETRY"]
        server = create_server(host="127.0.0.1", port=0, root=root,
                               quiet=True)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        print(f"[2] serving {root} on {server.url}")

        # ---- 3. the JSON API ---------------------------------------- #
        sweeps = json.loads(fetch(server.url, "/api/sweeps"))
        meta = next(s for s in sweeps["sweeps"] if s["token"] == token)
        print(f"[3] /api/sweeps -> {meta['records']}/{meta['total']} "
              f"records, complete={meta['complete']}")
        summary = json.loads(
            fetch(server.url, f"/api/runs/{token[:10]}"))["summary"]
        print(f"    /api/runs/{token[:10]} -> {summary['runs']} runs, "
              f"{summary['wall_seconds']:.2f}s wall, "
              f"{summary.get('accesses_per_sec', 0):,.0f} accesses/s")

        # ---- 4. fig6 SVG with exact CI numbers ---------------------- #
        svg = ET.fromstring(fetch(server.url, "/api/figures/fig6")
                            .decode("utf-8"))
        bars = {rect.get("data-series"): rect
                for rect in svg.iter(f"{SVG_NS}rect")
                if rect.get("data-series")}
        print("[4] /api/figures/fig6 bars (mean ± 95% CI, exact):")
        for result in resultset:
            rect = bars[result.design]
            mean = float(rect.get("data-mean"))
            half = float(rect.get("data-half-width"))
            assert mean == result.miss_ratio
            assert half == result.extra["sampling_miss_ratio_half_width"]
            print(f"    {result.design:<10} miss {100 * mean:5.2f}% "
                  f"± {100 * half:.2f}%")

        # ---- 5. live /api/queue while a worker drains --------------- #
        second = SweepSpec(
            designs=("unison",),
            workloads=("Data Serving",),
            capacities=("512MB",),
            config=spec.config,
            sampling=spec.sampling,
        )
        token2 = service.submit(second).token
        print(f"[5] watching /api/queue while a worker drains "
              f"{token2[:12]}…")
        worker = threading.Thread(
            target=work,
            kwargs=dict(db_path=service.db_path, sweep=token2),
            daemon=True)
        worker.start()
        last = None
        while True:
            queue = json.loads(
                fetch(server.url, f"/api/queue?token={token2}&jobs=0"))
            counts = queue["counts"]
            line = (f"    pending={counts['pending']} leased="
                    f"{counts['leased']} done={counts['done']}")
            if line != last:
                print(line)
                last = line
            if counts["done"] == queue["total"]:
                break
            time.sleep(0.2)
        worker.join(timeout=30)
        print(f"    drained; dashboard lives at {server.url}")
        server.shutdown()
        server.server_close()
    print("done.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
