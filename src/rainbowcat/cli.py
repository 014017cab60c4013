"""Command-line surface: construct, decide, brute-force, tabulate, verify.

Exit codes are the machine contract:

* label / feasible: 0 feasible, 1 infeasible, 2 usage error
* label: 2 for a feasible shape over a group of order above
  constructor.MAX_ORDER = 2**20, which construct refuses rather than exhaust
  memory; feasible answers at any size (closed form)
* oracle: 0 found, 1 exhausted-infeasible, 3 budgeted-unknown
* table: with --cross-check, nonzero iff some row disagrees
* oracle / table: 2 for groups of order above oracle.MAX_ORDER = 512, which
  the exhaustive search (one recursion level per element) cannot handle,
  and for Z_7^3, whose block menus it cannot enumerate (oracle.check_order)
* verify: 0 valid, 1 invalid, 2 parse error
* every command: 2 when the reader closes stdout before all output is
  written (a broken pipe), with no traceback, and 2 when memory runs out

Data goes to stdout, diagnostics to stderr.

Each command imports what it runs, so a cold call compiles only that: verify
loads group and labeling, label and feasible add constructor, oracle and
table add oracle (with constructor); json loads for verify, table and
label --verbose only.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, List, Optional, Tuple

from . import group, labeling
from .errors import RainbowError
from .group import GroupParams
from .labeling import HAIR_ROLES, Labeling, Shape


class _UsageError(Exception):
    pass


def _parse_instance(p: int, k: int, hairs: str) -> Tuple[GroupParams, Shape]:
    try:
        params = GroupParams(p, k)
    except ValueError as exc:
        raise _UsageError(str(exc))
    try:
        parts = [int(v) for v in hairs.split(",")]
    except ValueError:
        raise _UsageError(f"--hairs must be three comma-separated integers, got {hairs!r}")
    try:
        shape = labeling.make_shape(params, parts)
    except RainbowError as exc:
        raise _UsageError(str(exc))
    return params, shape


def _coords(params: GroupParams, cells) -> List[str]:
    return group.format_elements(params, cells, ",", "()")


def _text(params: GroupParams, shape: Shape, lab: Labeling) -> Iterator[str]:
    """The labeling as text, in pieces (labeling.format_cells); lab must be
    verified (missing_edge_label)."""
    zeta = labeling.missing_edge_label(params, shape, lab.spine_ix)
    rows = [("spine", lab.spine_ix)] + [(role, labeling.hair_cells(lab, role)) for role in HAIR_ROLES]
    for name, cells in rows + [("missing", (zeta,))]:
        yield f"{name}: "
        yield from labeling.format_cells(params, cells, ",", "()", " ")
        yield "\n"


def _dot(params: GroupParams, lab: Labeling) -> str:
    names = _coords(params, range(params.order))
    lines = ["graph caterpillar {"]
    lines += [f'  n{v} [label="{names[v]}" role="{labeling.ROLES[c - 1]}"];' for v, c in enumerate(lab.role_map)]
    spine, hairs = lab.spine_ix, tuple(map(lab.hair_ix, HAIR_ROLES))
    lines += [
        f'  n{u} -- n{v} [label="{names[s]}"];'
        for (u, v), s in zip(labeling._edges(spine, hairs), labeling.edge_labels(params, spine, hairs))
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_label(args) -> int:
    from . import constructor

    params, shape = _parse_instance(args.p, args.k, args.hairs)
    try:
        twin, plan, lab = constructor.build(params, shape)
    except constructor.InfeasibleShapeError as exc:
        print(f"infeasible: {exc.verdict.exception}")
        if exc.verdict.detail:
            print(exc.verdict.detail, file=sys.stderr)
        return 1
    if args.verbose:
        import json

        if twin:
            print(f"empty-X corner; built as the isomorphic tree C{twin.h}", file=sys.stderr)
        print(json.dumps(plan.to_debug_dict(params)), file=sys.stderr)
    if args.format == "json":
        sys.stdout.writelines(labeling.json_pieces(params, shape, lab))
        sys.stdout.write("\n")
    elif args.format == "dot":
        sys.stdout.write(_dot(params, lab))
    else:
        sys.stdout.writelines(_text(params, shape, lab))
    return 0


def cmd_feasible(args) -> int:
    from . import constructor

    params, shape = _parse_instance(args.p, args.k, args.hairs)
    verdict = constructor.feasibility(params, shape)
    if verdict.feasible:
        print("feasible")
        return 0
    print(f"infeasible: {verdict.exception}")
    if verdict.detail:
        print(verdict.detail, file=sys.stderr)
    return 1


def cmd_oracle(args) -> int:
    from . import oracle

    params, shape = _parse_instance(args.p, args.k, args.hairs)
    budget = oracle.SearchBudget(timeout_ms=args.timeout_ms, node_limit=args.node_limit)
    verdict = oracle.search(params, shape, budget)
    print(f"{verdict.outcome} nodes={verdict.nodes} ms={verdict.elapsed_ms:.1f}")
    if verdict.outcome == oracle.FOUND:
        return 0
    if verdict.outcome == oracle.BUDGETED:
        return 3
    return 1


def _table_row(task) -> dict:
    from . import oracle

    p, k, h, timeout_ms, cross_check = task
    params = GroupParams(p, k)
    shape = labeling.make_shape(params, h)
    budget = oracle.SearchBudget(timeout_ms=timeout_ms) if timeout_ms else None
    return oracle.table_row(params, shape, budget, cross_check)


def cmd_table(args) -> int:
    import json

    from . import oracle

    try:
        params = GroupParams(args.p, args.k)
    except ValueError as exc:
        raise _UsageError(str(exc))
    oracle.check_order(params)
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    tasks = [
        (args.p, args.k, shape.h, args.timeout_ms, args.cross_check)
        for shape in oracle.all_shapes(params)
    ]
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    disagreement = False
    with contextlib.ExitStack() as stack:
        if workers > 1:
            import concurrent.futures  # only a parallel table needs it

            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            )
            rows = pool.map(_table_row, tasks)
        else:
            rows = map(_table_row, tasks)
        for row in rows:
            print(json.dumps(row))
            disagreement |= row["agree"] is False
    return 1 if (args.cross_check and disagreement) else 0


def cmd_verify(args) -> int:
    import json

    try:
        if args.input == "-":
            payload = sys.stdin.read()
        else:
            with open(args.input) as fh:
                payload = fh.read()
        params, shape, *labels = labeling.labeling_from_dict(json.loads(payload))
    except (OSError, json.JSONDecodeError, RainbowError, ValueError, RecursionError) as exc:
        # RecursionError: json.loads on a deeply nested payload
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    # free the raw text before verify allocates its edge labels
    del payload
    try:
        report = labeling.verify_labels(params, shape, *labels)
    except RainbowError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if report.valid:
        (missing,) = _coords(params, [report.missing_edge_label])
        print(f"valid missing={missing}")
        return 0
    if report.duplicate_vertex:
        print(f"invalid: duplicate vertex label ({report.duplicate_vertex[0]} and {report.duplicate_vertex[1]})")
    elif report.duplicate_edge:
        (u1, v1), (u2, v2) = report.duplicate_edge
        u1, v1, u2, v2 = _coords(params, [u1, v1, u2, v2])
        print(f"invalid: duplicate edge label {u1}--{v1} and {u2}--{v2}")
    else:
        print("invalid")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowcat",
        description="Rainbow labelings of three-spine caterpillars over Z_p^k.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_flags(sp):
        sp.add_argument("--p", type=int, required=True, help="prime modulus")
        sp.add_argument("--k", type=int, required=True, help="rank of the group")
        sp.add_argument(
            "--hairs", type=str, required=True, help="hair counts h1,h2,h3 in spine order"
        )

    sp = sub.add_parser("label", help="construct a labeling")
    instance_flags(sp)
    sp.add_argument("--format", choices=["text", "json", "dot"], default="text")
    sp.add_argument("--verbose", action="store_true",
                    help="print the plan that built the labeling to stderr, as JSON")
    sp.set_defaults(func=cmd_label)

    sp = sub.add_parser("feasible", help="closed-form feasibility verdict")
    instance_flags(sp)
    sp.set_defaults(func=cmd_feasible)

    sp = sub.add_parser("oracle", help="exhaustive search")
    instance_flags(sp)
    sp.add_argument("--timeout-ms", type=int, default=None,
                    help="wall-time budget for whole-group search")
    sp.add_argument("--node-limit", type=int, default=None,
                    help="whole-group search nodes; models decided per coset are not budgeted")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("table", help="feasibility table as JSON lines")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--cross-check", action="store_true", help="compare predicate vs oracle")
    sp.add_argument("--timeout-ms", type=int, default=None, help="whole-group search time per shape")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers for table rows")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="check a labeling JSON file")
    sp.add_argument("--input", type=str, default="-", help="path or - for stdin")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at /dev/null so that the
        # interpreter's last flush of what is still buffered cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except RainbowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
