#!/usr/bin/env python3
"""Command-line client for the mccheckd checking daemon.

Speaks the line-delimited JSON protocol documented in docs/daemon.md
(frozen in tools/daemon_protocol_schema.json) over either transport:

  * ``--daemon BIN`` spawns a fresh daemon and talks over its
    stdin/stdout (extra daemon flags go after ``--daemon-arg``);
  * ``--socket PATH`` connects to an already-running
    ``mccheckd --socket PATH``.

The ``check`` subcommand makes the client a drop-in for batch
``mccheck``: the response's ``output`` is written to stdout byte for
byte, its ``stderr`` text to stderr, and the process exits with the
response's ``exit_code`` — so any harness that diffs mccheck output can
diff daemon output by swapping the command line.

Examples:

  mccheckd_client.py --daemon build/src/driver/mccheckd \\
      check --protocol sci --format json
  mccheckd_client.py --socket /tmp/mc.sock status
  mccheckd_client.py --socket /tmp/mc.sock raw \\
      '{"id": 7, "method": "check", "params": {"protocol": "coma"}}'

Standard library only.
"""

import argparse
import json
import socket
import subprocess
import sys


class ProtocolError(Exception):
    """The daemon answered with an error object (or not at all)."""


class DaemonClient:
    """One connection to a daemon, over stdio-spawn or a Unix socket."""

    def __init__(self, daemon=None, daemon_args=(), socket_path=None):
        self._proc = None
        self._sock = None
        self._rx = b""
        self._next_id = 0
        if daemon is not None:
            self._proc = subprocess.Popen(
                [daemon, *daemon_args],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        elif socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.connect(socket_path)
        else:
            raise ValueError("need a daemon binary or a socket path")

    def close(self):
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._proc is not None:
            if self._proc.stdin:
                self._proc.stdin.close()
            self._proc.wait(timeout=30)
            self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _send_line(self, line):
        data = line.encode("utf-8") + b"\n"
        if self._proc is not None:
            self._proc.stdin.write(data)
            self._proc.stdin.flush()
        else:
            self._sock.sendall(data)

    def _recv_line(self):
        if self._proc is not None:
            raw = self._proc.stdout.readline()
            if not raw:
                raise ProtocolError("daemon closed the connection")
            return raw.decode("utf-8")
        while b"\n" not in self._rx:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ProtocolError("daemon closed the connection")
            self._rx += chunk
        line, self._rx = self._rx.split(b"\n", 1)
        return line.decode("utf-8")

    def raw_request(self, line):
        """Send one pre-encoded request line; return the decoded response."""
        self._send_line(line)
        return json.loads(self._recv_line())

    def request(self, method, params=None, request_id=None):
        """Send one request; return the ``result`` or raise ProtocolError."""
        if request_id is None:
            self._next_id += 1
            request_id = self._next_id
        body = {"id": request_id, "method": method}
        if params is not None:
            body["params"] = params
        response = self.raw_request(json.dumps(body))
        if "error" in response:
            err = response["error"]
            raise ProtocolError(
                "%s (code %s)" % (err.get("message"), err.get("code"))
            )
        if response.get("id") != request_id:
            raise ProtocolError(
                "response id %r does not match request id %r"
                % (response.get("id"), request_id)
            )
        return response["result"]

    # -- convenience wrappers ------------------------------------------

    def check(self, params):
        return self.request("check", params)

    def open(self, path, text):
        return self.request("open", {"path": path, "text": text})

    def change(self, path, text):
        return self.request("change", {"path": path, "text": text})

    def close_document(self, path):
        return self.request("close", {"path": path})

    def status(self):
        return self.request("status")

    def shutdown(self):
        return self.request("shutdown")


def _check_params(args):
    params = {}
    if args.protocol:
        params["protocol"] = args.protocol
    if args.metal:
        params["metal"] = args.metal
    if args.files:
        params["files"] = args.files
    if args.format:
        params["format"] = args.format
    if args.jobs:
        params["jobs"] = args.jobs
    if args.prune_paths:
        params["prune_paths"] = args.prune_paths
    if args.witness:
        params["witness"] = True
    if args.witness_limit:
        params["witness_limit"] = args.witness_limit
    if args.unit_timeout_ms:
        params["unit_timeout_ms"] = args.unit_timeout_ms
    if args.unit_max_steps:
        params["unit_max_steps"] = args.unit_max_steps
    if args.fail_fast:
        params["fail_fast"] = True
    return params


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    transport = parser.add_mutually_exclusive_group(required=True)
    transport.add_argument(
        "--daemon", help="spawn this mccheckd binary and talk over stdio"
    )
    transport.add_argument(
        "--socket", help="connect to a running mccheckd --socket PATH"
    )
    parser.add_argument(
        "--daemon-arg",
        action="append",
        default=[],
        help="extra flag for the spawned daemon (repeatable)",
    )
    parser.add_argument(
        "--no-shutdown",
        action="store_true",
        help="leave the daemon running (default: spawned daemons are"
        " shut down after the command)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one check request")
    check.add_argument("--protocol")
    check.add_argument("--metal")
    check.add_argument("--format", choices=["text", "json", "sarif"])
    check.add_argument("--jobs", type=int)
    check.add_argument(
        "--prune-paths",
        dest="prune_paths",
        choices=["off", "correlated", "constraints"],
    )
    check.add_argument("--witness", action="store_true")
    check.add_argument("--witness-limit", dest="witness_limit", type=int)
    check.add_argument(
        "--unit-timeout-ms", dest="unit_timeout_ms", type=int
    )
    check.add_argument(
        "--unit-max-steps", dest="unit_max_steps", type=int
    )
    check.add_argument("--fail-fast", dest="fail_fast", action="store_true")
    check.add_argument("files", nargs="*")

    sub.add_parser("status", help="print the daemon status object")
    sub.add_parser("shutdown", help="ask the daemon to shut down")
    raw = sub.add_parser("raw", help="send a raw request line")
    raw.add_argument("line")

    args = parser.parse_args(argv)

    client = DaemonClient(
        daemon=args.daemon,
        daemon_args=args.daemon_arg,
        socket_path=args.socket,
    )
    exit_code = 0
    try:
        if args.command == "check":
            result = client.check(_check_params(args))
            sys.stdout.write(result["output"])
            sys.stderr.write(result["stderr"])
            exit_code = result["exit_code"]
        elif args.command == "status":
            print(json.dumps(client.status(), indent=2))
        elif args.command == "shutdown":
            print(json.dumps(client.shutdown()))
            return 0
        elif args.command == "raw":
            print(json.dumps(client.raw_request(args.line)))
        if args.daemon and not args.no_shutdown:
            client.shutdown()
    except ProtocolError as err:
        print("mccheckd_client: %s" % err, file=sys.stderr)
        exit_code = 3
    finally:
        client.close()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
