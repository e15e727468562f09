"""Socket-free request routing for ``repro serve``.

:func:`handle_request` maps ``(path, query)`` to a :class:`Response`
without touching the network, so handler-level tests exercise every
endpoint by calling it directly; ``server.py`` is a thin
``http.server`` shim over it.

Endpoints::

    /                         auto-refreshing HTML dashboard
    /api/health               store paths + availability
    /api/designs              design catalog with per-role components
    /api/sweeps               archive listing merged with job counts
    /api/sweeps/<token>       one sweep + archived result records
    /api/runs?limit=&sweep=&kind=
    /api/runs/<ref>           prefix-resolved run or sweep summary
    /api/queue?token=&jobs=   job states, heartbeats, drain ETA
    /api/figures              figure catalog
    /api/figures/fig6         miss-ratio SVG (?token= selects the sweep)
    /api/figures/fig7         speedup SVG
    /api/figures/compare?a=<ref>&b=<ref>   per-phase wall-clock SVG
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.serve.dashboard import render_dashboard
from repro.serve.figures import compare_svg, fig6_svg, fig7_svg
from repro.serve.readmodel import ReadModel

JSON_TYPE = "application/json; charset=utf-8"
SVG_TYPE = "image/svg+xml; charset=utf-8"
HTML_TYPE = "text/html; charset=utf-8"

Query = Dict[str, List[str]]


@dataclass(frozen=True)
class Response:
    status: int
    content_type: str
    body: bytes


def encode_json(payload: object) -> str:
    """The JSON text every endpoint serves (and the CLI's ``--json``)."""
    return json.dumps(payload, indent=2, sort_keys=True, default=str)


def json_response(payload: object, status: int = 200) -> Response:
    return Response(status, JSON_TYPE, encode_json(payload).encode("utf-8"))


def error_response(status: int, message: str) -> Response:
    return json_response({"error": message}, status=status)


def svg_response(document: str) -> Response:
    return Response(200, SVG_TYPE, document.encode("utf-8"))


def _param(query: Query, name: str, default: Optional[str] = None
           ) -> Optional[str]:
    values = query.get(name) or []
    return values[0] if values else default


def _int_param(query: Query, name: str, default: int) -> int:
    raw = _param(query, name)
    if raw is None:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"query parameter {name}={raw!r} is not an integer")


FIGURES = {
    "fig6": "miss ratio per design/workload with 95% CI error bars",
    "fig7": "speedup vs no cache per design/workload with 95% CI error bars",
    "compare": "per-phase wall-clock of two run/sweep refs (?a=&b=)",
}


def handle_request(model: ReadModel, path: str,
                   query: Optional[Query] = None) -> Response:
    """Route one GET.  Never raises: store errors become JSON errors."""
    query = query or {}
    path = path.rstrip("/") or "/"
    try:
        return _route(model, path, query)
    except (KeyError, FileNotFoundError) as error:
        return error_response(404, _message(error))
    except ValueError as error:
        return error_response(400, _message(error))


def _message(error: BaseException) -> str:
    text = str(error)
    # KeyError reprs its argument; unwrap the quoted message.
    if isinstance(error, KeyError) and error.args:
        text = str(error.args[0])
    return text or error.__class__.__name__


def _route(model: ReadModel, path: str, query: Query) -> Response:
    if path in ("/", "/index.html", "/dashboard"):
        return Response(200, HTML_TYPE, render_dashboard().encode("utf-8"))
    if path == "/api/health":
        return json_response(model.health())
    if path == "/api/designs":
        return json_response(model.designs())
    if path == "/api/sweeps":
        return json_response(model.sweeps())
    if path.startswith("/api/sweeps/"):
        token = path[len("/api/sweeps/"):]
        include = _param(query, "records", "1") not in ("0", "false", "no")
        return json_response(model.sweep(token, include_records=include))
    if path == "/api/runs":
        return json_response(model.runs(
            limit=_int_param(query, "limit", 20),
            sweep=_param(query, "sweep"),
            kind=_param(query, "kind"),
        ))
    if path.startswith("/api/runs/"):
        return json_response(model.run_detail(path[len("/api/runs/"):]))
    if path == "/api/queue":
        include_jobs = _param(query, "jobs", "1") not in ("0", "false", "no")
        return json_response(model.queue(token=_param(query, "token"),
                                         include_jobs=include_jobs))
    if path == "/api/figures":
        return json_response({"figures": [
            {"name": name, "description": text, "url": f"/api/figures/{name}"}
            for name, text in sorted(FIGURES.items())
        ]})
    if path.startswith("/api/figures/"):
        return _figure(model, path[len("/api/figures/"):], query)
    return error_response(404, f"unknown path {path!r}")


def _figure(model: ReadModel, name: str, query: Query) -> Response:
    if name in ("fig6", "fig7"):
        meta, resultset = model.figure_source(_param(query, "token"))
        if not resultset:
            return error_response(404,
                                  f"sweep {meta['token']} has no records yet")
        subtitle = f"sweep {str(meta['token'])[:12]}"
        render = fig6_svg if name == "fig6" else fig7_svg
        return svg_response(render(resultset, subtitle=subtitle))
    if name == "compare":
        ref_a, ref_b = _param(query, "a"), _param(query, "b")
        if not ref_a or not ref_b:
            raise ValueError("compare needs ?a=<ref>&b=<ref>")
        sides = []
        for ref in (ref_a, ref_b):
            detail = model.run_detail(ref)
            sides.append((f"{detail['scope']} {ref}", detail["summary"]))
        return svg_response(compare_svg(sides))
    raise KeyError(f"unknown figure {name!r}; available: "
                   + ", ".join(sorted(FIGURES)))


__all__ = [
    "FIGURES",
    "Response",
    "encode_json",
    "error_response",
    "handle_request",
    "json_response",
    "svg_response",
]
