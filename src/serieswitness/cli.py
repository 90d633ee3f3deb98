"""Command-line front end: run constructions, verify documents, list the catalog.

Exit codes for `run`: 0 means a certificate or verdict was produced and
self-verified, 2 means the search exhausted its horizon (an informative
outcome, for instance on a series all of whose selections share one
bound), 1 means an error.  `run` writes a witness from its checkpoint columns
and self-verifies the certificate it holds, as `verify` does a decoded one.
`verify` exits 0 only if every checkpoint in the document recomputes.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Any

from .certificates import (
    SchemaMismatch,
    certificate_text,
    document_for_exhaustion,
    document_for_verdict,
    dumps_document,
    load_document,
    verify_document,
)
from .runners import CONSTRUCTIONS, PARAMS, execute_config, resolve_config
from .series import catalog_names, catalog_series
from .witnesses import ScanExhausted, verify_certificate


# built once per process: argparse asks for the terminal size on each option
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serieswitness",
        description=(
            "Build re-verifiable witnesses for unbounded subseries, "
            "rearrangements, and ideal-boundedness verdicts of catalog series."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a construction and emit a certificate")
    run.add_argument("--series", required=True, help="catalog series name")
    run.add_argument(
        "--construction",
        required=True,
        choices=CONSTRUCTIONS,
        help="which witness construction or verdict to run",
    )
    for key, param in PARAMS.items():
        if isinstance(param.kind, dict):
            run.add_argument(f"--{key}", choices=tuple(param.kind), help=param.help)
        else:
            run.add_argument(f"--{key}", type=param.kind, help=param.help)
    run.add_argument("--out", default=None, help="write the JSON document here")

    verify = sub.add_parser("verify", help="recheck a certificate document")
    verify.add_argument("path", help="path to a JSON document from `run`")

    catalog = sub.add_parser("catalog", help="catalog inspection")
    catalog.add_argument("action", choices=("list",))
    return parser


def _config_from_args(args: argparse.Namespace) -> dict[str, Any]:
    config: dict[str, Any] = {
        "series": args.series,
        "construction": args.construction,
    }
    for key in PARAMS:
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    return config


def _emit(text: str, out: str | None, summary: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{summary} -> {out}")
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)


def _run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = resolve_config(_config_from_args(args))
    try:
        kind, payload = execute_config(config)
    except ScanExhausted as exc:
        seconds = time.perf_counter() - started
        doc = document_for_exhaustion(exc, config, seconds)
        _emit(dumps_document(doc), args.out, f"exhausted: {exc}")
        return 2
    seconds = time.perf_counter() - started
    if kind == "witness":
        text = certificate_text(payload, config, seconds)
        summary = (
            f"certificate: {payload.construction} on {payload.series_name}, "
            f"{len(payload.checkpoints)} checkpoint(s), stem length {len(payload.stem)}"
        )
    else:
        verdict, indexer = payload
        doc = document_for_verdict(verdict, indexer, config, seconds)
        text = dumps_document(doc)
        summary = (
            f"verdict: {verdict.status} (bound {verdict.bound:g}, "
            f"{verdict.interval_count} contained interval(s), horizon {verdict.horizon})"
        )
    issues = verify_certificate(payload) if kind == "witness" else verify_document(doc)
    if issues:
        print(f"self-verification failed: {issues[0]}", file=sys.stderr)
        return 1
    summary += " [self-verified]"
    _emit(text, args.out, summary)
    if kind == "verdict" and verdict.status == "undecided":
        return 2
    return 0


def _verify(args: argparse.Namespace) -> int:
    try:
        doc = load_document(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot load document: {exc}", file=sys.stderr)
        return 1
    try:
        issues = verify_document(doc)
    except SchemaMismatch as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return 1
    if issues:
        print(f"verification failed: {issues[0]}", file=sys.stderr)
        for issue in issues[1:5]:
            print(f"  also: {issue}", file=sys.stderr)
        return 1
    print("verified: every checkpoint recomputes")
    return 0


def _catalog(args: argparse.Namespace) -> int:
    print(f"{'name':<20} {'space':<24} {'claims'}")
    for name in catalog_names():
        oracle = catalog_series(name)
        claims = []
        if oracle.liminf_norm_zero:
            claims.append("liminf ||x_n|| = 0")
        if oracle.limsup_norm_infinite:
            claims.append("limsup ||x_n|| = inf")
        print(
            f"{name:<20} {oracle.space.describe():<24} "
            f"{', '.join(claims) if claims else '-'}"
        )
        print(f"{'':<20} {oracle.description}")
    return 0


_COMMANDS = {"run": _run, "verify": _verify, "catalog": _catalog}


def main(argv: list[str] | None = None) -> int:
    # argparse admits only the commands the parser declares
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
