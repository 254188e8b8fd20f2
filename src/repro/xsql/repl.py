"""An interactive XSQL shell.

Run with::

    python -m repro.xsql.repl [--paper | --synthetic N]
                              [--plan {none,greedy,typed,cost}]
                              [--stats] [--storage SPEC]

Statements end with ``;``.  Meta-commands (no semicolon):

* ``.help``            — this text
* ``.schema``          — list classes and their signatures
* ``.describe <oid>``  — dump one object
* ``.explain <query>`` — typing discipline, plan, and access paths;
  ``.explain analyze <query>`` also executes the query and annotates
  the physical-operator tree with actual row counts and timings
* ``.naive <query>``   — evaluate with the literal §3.4 semantics
* ``.indexes``         — list inverted indexes; ``.indexes +M``/``-M``
  enables/disables one on method ``M``
* ``.stats``           — cumulative pipeline metrics for this session
* ``.views``           — materialized views with staleness (fresh /
  delta-pending / rebuild-pending) and last-maintenance cost
* ``.open <spec>``     — attach a storage backend: a path (WAL-backed
  database directory, recovered if it exists), ``memory``, or
  ``log:PATH`` — the current database is carried over if the target
  is empty, adopted from it otherwise
* ``.checkpoint``      — persist the database at a durable point
* ``.storage``         — the attached backend's status line
* ``.version``         — the store's MVCC mutation ticket and pin/chain
  status
* ``.snapshot <query>``— run one query through a read-only snapshot
  pinned at the current version (see ``docs/MVCC.md``)
* ``.quit``            — leave

With ``--paper`` the shell starts on the Figure 1 schema and the paper's
instance database, so every example of the paper can be typed in
directly.  ``--plan`` selects the conjunct planner every statement runs
under; ``--stats`` prints a per-statement pipeline timing line and a
cumulative report on exit.  ``--storage SPEC`` opens the session on a
storage backend up front (same specs as ``.open``;
``--paper``/``--synthetic`` seed the database only when the backend
holds nothing yet).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.errors import XsqlError
from repro.oid import Atom
from repro.xsql.lexer import split_script
from repro.xsql.options import PLAN_MODES, ExecutionOptions
from repro.xsql.session import Session

__all__ = ["main", "run_repl"]

_BANNER = """XSQL shell — Querying Object-Oriented Databases (SIGMOD 1992)
statements end with ';'   .help for meta-commands   .quit to exit"""


def _make_session(args: argparse.Namespace) -> Session:
    session = Session()
    if args.paper:
        from repro.schema.figure1 import build_figure1_schema
        from repro.workloads.paper_db import populate_paper_database

        build_figure1_schema(session.store)
        populate_paper_database(session.store)
    elif args.synthetic:
        from repro.workloads.generator import (
            WorkloadConfig,
            generate_database,
        )

        generate_database(
            WorkloadConfig(n_people=args.synthetic), session.store
        )
    if getattr(args, "storage", None):
        from repro.storage import StorageOptions

        # A backend that already holds data wins over --paper/--synthetic
        # seeding; an empty one is seeded from the session's store.
        session.attach_storage(StorageOptions.parse(args.storage))
    return session


def _print_schema(session: Session, out) -> None:
    store = session.store
    for cls in store.hierarchy.topological():
        parents = sorted(
            c.name for c in store.hierarchy.direct_superclasses(cls)
        )
        suffix = f" :: {', '.join(parents)}" if parents else ""
        print(f"{cls}{suffix}", file=out)
        for signature in sorted(
            store.declared_signatures(cls), key=str
        ):
            print(f"  {signature}", file=out)


def _handle_meta(
    session: Session,
    line: str,
    out,
    options: Optional[ExecutionOptions] = None,
) -> bool:
    """Process one meta-command; returns False to stop the loop."""
    options = options or ExecutionOptions()
    command, _, rest = line.partition(" ")
    rest = rest.strip()
    if command in (".quit", ".exit"):
        return False
    if command == ".help":
        print(__doc__, file=out)
    elif command == ".schema":
        _print_schema(session, out)
    elif command == ".describe":
        print(session.store.describe(Atom(rest)), file=out)
    elif command == ".explain":
        analyze = False
        if rest.startswith("analyze ") or rest == "analyze":
            analyze = True
            rest = rest[len("analyze") :].strip()
        print(
            session.explain(rest, options=options, analyze=analyze),
            file=out,
        )
    elif command == ".naive":
        print(session.query(rest, engine="naive").pretty(), file=out)
    elif command == ".indexes":
        if rest.startswith("+"):
            session.enable_index(rest[1:].strip())
        elif rest.startswith("-"):
            session.disable_index(rest[1:].strip())
        enabled = session.indexes()
        print(
            "indexes: " + (", ".join(enabled) if enabled else "(none)"),
            file=out,
        )
    elif command == ".stats":
        print(session.metrics.summary(), file=out)
    elif command == ".views":
        status = session.views.maintenance_status()
        if not status:
            print("views: (none)", file=out)
        else:
            for name in sorted(status):
                info = status[name]
                pending = (
                    f" pending_groups={info['pending_groups']}"
                    if info["pending_groups"]
                    else ""
                )
                print(
                    f"{name}: {info['state']} "
                    f"objects={info['objects']}{pending} "
                    f"last={info['last_kind']}"
                    f"/{info['last_groups']} group(s)"
                    f"/{info['last_seconds'] * 1000:.3f}ms",
                    file=out,
                )
    elif command == ".open":
        from repro.storage import StorageOptions

        session.attach_storage(StorageOptions.parse(rest))
        print(_storage_line(session), file=out)
    elif command == ".checkpoint":
        from repro.storage import CommitStamp

        result = session.checkpoint()
        if isinstance(result, CommitStamp):
            print(
                f"checkpoint at lsn={result.lsn} "
                f"({session.storage_options.backend} backend)",
                file=out,
            )
        else:
            print(
                "no storage backend attached — .open a path to make "
                "checkpoints durable",
                file=out,
            )
    elif command == ".storage":
        print(_storage_line(session), file=out)
    elif command == ".version":
        print(_version_line(session), file=out)
    elif command == ".snapshot":
        if not rest:
            print(
                "usage: .snapshot <query> — runs the query through a "
                "read-only snapshot pinned at the current version",
                file=out,
            )
        else:
            with session.snapshot_view() as snap:
                print(f"snapshot pinned at v{snap.ticket}", file=out)
                result = snap.query(rest.rstrip(";"), options=options)
                print(result.pretty(limit=50), file=out)
    else:
        print(f"unknown meta-command {command!r} (.help)", file=out)
    return True


def _storage_line(session: Session) -> str:
    status = session.storage_status()
    return "storage: " + "  ".join(
        f"{key}={value}" for key, value in status.items()
    )


def _version_line(session: Session) -> str:
    status = session.version_status()
    return f"version: v{session.ticket}  " + "  ".join(
        f"{key}={value}" for key, value in status.items()
    )


def run_repl(
    session: Session,
    stdin=None,
    stdout=None,
    plan: str = "none",
    show_stats: bool = False,
    options: Optional[ExecutionOptions] = None,
) -> int:
    """Drive the shell over the given streams (testable entry point).

    ``options`` carries the full execution configuration; the ``plan``
    argument is the historical alias and is folded into it.
    """
    resolved = ExecutionOptions.coerce(options, plan=plan if options is None else None)
    stdin = stdin or sys.stdin
    out = stdout or sys.stdout
    print(_BANNER, file=out)
    buffer = ""
    for raw_line in stdin:
        line = raw_line.rstrip("\n")
        stripped = line.strip()
        if not buffer.strip() and stripped.startswith("."):
            buffer = ""
            try:
                if not _handle_meta(session, stripped, out, options=resolved):
                    return 0
            except XsqlError as error:
                print(f"error: {error}", file=out)
            continue
        buffer += line + "\n"
        # Token-level split: a ';' inside a string literal or a comment
        # stays in the statement instead of cutting it short.
        statements, buffer = split_script(buffer)
        for statement in statements:
            if not statement.strip():
                continue
            try:
                result = session.query(statement, options=resolved)
                print(result.pretty(limit=50), file=out)
            except XsqlError as error:
                print(f"error: {error}", file=out)
            if show_stats:
                print(session.metrics.statement_line(), file=out)
    if show_stats:
        print(session.metrics.summary(), file=out)
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="XSQL interactive shell")
    parser.add_argument(
        "--paper",
        action="store_true",
        help="start on the Figure 1 schema and the paper instance",
    )
    parser.add_argument(
        "--synthetic",
        type=int,
        metavar="N",
        help="start on a synthetic database with N people",
    )
    parser.add_argument(
        "--plan",
        choices=PLAN_MODES,
        default="none",
        help="conjunct planner for executed statements (default: none)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-statement pipeline timings and a final summary",
    )
    parser.add_argument(
        "--storage",
        metavar="SPEC",
        help=(
            "storage backend: a database directory path (WAL-backed, "
            "recovered if it exists), 'memory', 'log:PATH', or 'dict'"
        ),
    )
    args = parser.parse_args(argv)
    session = _make_session(args)
    options = ExecutionOptions(plan=args.plan).validate()
    return run_repl(
        session, plan=args.plan, show_stats=args.stats, options=options
    )


if __name__ == "__main__":
    raise SystemExit(main())
