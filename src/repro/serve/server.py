"""The ``http.server`` shim behind ``repro serve``.

All routing and data assembly live in :mod:`repro.serve.api` /
:mod:`repro.serve.readmodel`; this module only binds a
:class:`ThreadingHTTPServer` and translates requests.  Stdlib only --
the service adds no dependencies to the reproduction.
"""

from __future__ import annotations

import sys
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qs, urlsplit

from repro.serve.api import error_response, handle_request
from repro.serve.readmodel import ReadModel

PathLike = Union[str, Path]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8035


class ReproServer(ThreadingHTTPServer):
    """One thread per request; every request opens fresh store handles,
    so no sqlite connection (or lock) is shared across threads."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, model: ReadModel, quiet: bool = False):
        self.model = model
        self.quiet = quiet
        super().__init__(address, RequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/"


class RequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urlsplit(self.path)
        try:
            response = handle_request(self.server.model, parsed.path,
                                      parse_qs(parsed.query))
        except Exception:  # pragma: no cover - defensive 500
            response = error_response(
                500, traceback.format_exc(limit=3).strip())
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        try:
            self.wfile.write(response.body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    def do_HEAD(self) -> None:  # noqa: N802
        parsed = urlsplit(self.path)
        response = handle_request(self.server.model, parsed.path,
                                  parse_qs(parsed.query))
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", False):
            sys.stderr.write("serve: %s - %s\n"
                             % (self.address_string(), format % args))


def create_server(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                  root: Optional[PathLike] = None,
                  queue_dir: Optional[PathLike] = None,
                  telemetry_dir: Optional[PathLike] = None,
                  quiet: bool = False) -> ReproServer:
    """A bound (but not yet serving) server; ``port=0`` picks a free port.

    ``root`` points at a trace-store-shaped tree (``<root>/queue``,
    ``<root>/telemetry``); without it the queue directory and telemetry
    root resolve exactly as the CLI's query commands do.
    """
    if root is not None:
        model = ReadModel.at_root(root)
    else:
        model = ReadModel(queue_dir=queue_dir, telemetry_dir=telemetry_dir)
    return ReproServer((host, port), model, quiet=quiet)


def serve(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
          root: Optional[PathLike] = None,
          quiet: bool = False) -> int:
    """Blocking entry point of ``repro serve``."""
    server = create_server(host=host, port=port, root=root, quiet=quiet)
    model = server.model
    queue_dir = (str(model.queue_dir) if model.queue_dir is not None
                 else "(none; set REPRO_QUEUE_DIR or --root)")
    telemetry = (str(model.telemetry_dir) if model.telemetry_dir is not None
                 else "(none; set REPRO_TELEMETRY_DIR or --root)")
    print(f"repro serve on {server.url}")
    print(f"  queue dir: {queue_dir}")
    print(f"  telemetry: {telemetry}")
    print(f"  dashboard: {server.url}  ·  API: {server.url}api/sweeps")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nserve: shutting down")
    finally:
        server.server_close()
    return 0


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ReproServer",
    "RequestHandler",
    "create_server",
    "serve",
]
