"""Command-line front end.

Subcommands:

- ``gen``      generate a random network file
- ``compute``  compute a Lipschitz bound and write a JSON report
- ``verify``   independently check a report's certificate against its network
- ``bench``    sweep depth/width/seed grids and emit a CSV

Exit codes: 0 success, 2 invalid arguments (among them ``--c`` or
``--sweep`` for a method that takes no c, a ``--sweep`` of more than
``MAX_SWEEP_POINTS`` points, and ``--theta`` anywhere but with ``--c`` or
``--sweep`` for a method that reads theta), unreadable input, a
network with a non-finite entry or an empty layer, a malformed report or one
that does not fit its network, 3 I/O failure, 4 definiteness lost without a
sweep fallback, 5 all sweep points (for ``best``, all methods; for
``bench``, all rows) failed, 6 validation failed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import METHODS, MultiplierSequence, evaluate, reads, report_to_dict
from .certify import _GAMMA_RTOL, DEFAULT_RADIUS, validate
from .errors import (
    AllInfeasible,
    DefinitenessLost,
    DimensionChainError,
    DimensionMismatch,
    LipboundError,
    ParseError,
    ValidationFailed,
)
from .linalg import openblas_threads
from .network import ACTIVATIONS, generate_random, load_network, save_network

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DEFINITENESS = 4
EXIT_INFEASIBLE = 5
EXIT_VALIDATION = 6

# The most points a --sweep may expand to, checked before the list is built.
MAX_SWEEP_POINTS = 100_000


def _manifest(command: str, args: argparse.Namespace) -> dict:
    return {
        "command": command,
        "args": vars(args),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
        "numeric": {
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "openblas": openblas_threads(),
        },
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipbound",
        description="Certified Lipschitz upper bounds for feedforward networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random network file")
    gen.add_argument("--layers", type=int, required=True, help="hidden layer count")
    gen.add_argument("--width", type=int, required=True)
    gen.add_argument("--in", dest="in_dim", type=int, required=True)
    gen.add_argument("--out", dest="out_dim", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--activation", default="tanh", choices=tuple(ACTIVATIONS))
    gen.add_argument("--binary", action="store_true", help="write LNET binary format")
    gen.add_argument("--o", dest="output", default="net.json")

    comp = sub.add_parser("compute", help="compute a Lipschitz bound")
    comp.add_argument("--net", required=True)
    comp.add_argument("--method", required=True, choices=METHODS + ("best",))
    c_or_sweep = comp.add_mutually_exclusive_group()
    c_or_sweep.add_argument("--c", type=float, default=None)
    c_or_sweep.add_argument("--sweep", default=None, metavar="LO:HI:STEP")
    comp.add_argument("--theta", type=float, default=None)
    comp.add_argument("--certified", action="store_true")
    comp.add_argument("--o", dest="output", default=None)

    ver = sub.add_parser("verify", help="verify a bound report")
    ver.add_argument("--net", required=True)
    ver.add_argument("--report", required=True)
    ver.add_argument("--samples", type=int, default=200)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    ver.add_argument("--o", dest="output", default=None)

    bench = sub.add_parser("bench", help="benchmark bound methods over a grid")
    bench.add_argument("--depths", required=True, help="comma-separated depths")
    bench.add_argument("--widths", required=True, help="comma-separated widths")
    bench.add_argument("--seeds", default="0", help="comma-separated seeds")
    bench.add_argument(
        "--methods", default="product,fast,sn,gc,gcs,shift",
        help="comma-separated method names",
    )
    bench.add_argument("--certified", action="store_true")
    # the fixed c of each bench run; methods without a flag run at c = 1
    for m in ("sn", "gc", "gcs"):
        bench.add_argument(f"--c-{m}", type=float, default=1.0, dest=f"c_{m}")
    bench.add_argument("--c-shift", type=float, default=2.0, dest="c_shift")
    bench.add_argument("--o", dest="output", default="bench.csv")
    return parser


def cmd_gen(args: argparse.Namespace) -> int:
    net = generate_random(
        args.layers, args.width, args.in_dim, args.out_dim, args.seed,
        activation=args.activation,
    )
    save_network(net, args.output, binary=args.binary)
    print(f"wrote {args.output}: dims {' -> '.join(str(d) for d in net.dims)}")
    return EXIT_OK


def cmd_compute(args: argparse.Namespace) -> int:
    net = load_network(args.net)
    grid = None
    if args.sweep is not None:
        try:
            lo, hi, step = (float(v) for v in args.sweep.split(":"))
        except ValueError:
            raise ValueError(f"--sweep takes LO:HI:STEP, got {args.sweep!r}") from None
        # the slack is relative, so HI stays a point however many there are
        steps = (hi - lo) / step * (1 + 1e-12) if step > 0 else math.nan
        if not (hi >= lo and math.isfinite(steps)):
            raise ValueError("--sweep requires step > 0, finite hi >= lo and a finite "
                             "number of points")
        count = math.floor(steps) + 1
        if count > MAX_SWEEP_POINTS:
            raise ValueError(f"--sweep requires at most {MAX_SWEEP_POINTS} points, "
                             f"got {count:g}")
        grid = [lo + i * step for i in range(count)]
    report = evaluate(
        net, args.method, args.c, grid, theta=args.theta, certified=args.certified
    )
    payload = report_to_dict(report)
    payload["manifest"] = _manifest("compute", args)
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    params = "".join(f"{p}={getattr(report.config, p):g} " for p in reads(report.method))
    print(
        f"method={report.method} {params}"
        f"bound={report.bound:.12g} time={report.wall_time:.3f}s"
    )
    return EXIT_OK


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_certificate(payload) -> tuple:
    """The certificate a parsed JSON report states: (bound, multipliers).

    Reads ``bound``, ``multipliers.lambdas`` and ``multipliers.gamma``, and
    the top-level ``gamma`` where present, which must agree with
    ``multipliers.gamma`` (ValidationFailed otherwise); how the run was
    configured is never read.  Raises ParseError if a field is missing, not
    numeric or beyond the float range.
    """
    payload = payload if isinstance(payload, dict) else {}
    ms = payload.get("multipliers")
    ms = ms if isinstance(ms, dict) else {}
    lambdas = ms.get("lambdas")
    fields = {"bound": payload.get("bound"), "multipliers.gamma": ms.get("gamma")}
    fields["gamma"] = payload.get("gamma", fields["multipliers.gamma"])
    for name, value in fields.items():
        if not _is_number(value):
            raise ParseError(f"report field {name} is missing or not a number")
    if not (isinstance(lambdas, list) and all(
            isinstance(lam, list) and all(map(_is_number, lam)) for lam in lambdas)):
        raise ParseError(
            "report field multipliers.lambdas is missing or not lists of numbers"
        )
    try:  # JSON integers have no size limit
        bound, gamma, stated = (float(v) for v in fields.values())
        lambdas = [np.array(lam, dtype=np.float64) for lam in lambdas]
    except OverflowError as exc:
        raise ParseError(f"report number outside the float range: {exc}") from exc
    # "not <=" so that a NaN on either side never agrees
    if "gamma" in payload and not abs(stated - gamma) <= _GAMMA_RTOL * (1 + abs(gamma)):
        raise ValidationFailed(
            f"report gamma {stated} disagrees with multipliers.gamma {gamma}"
        )
    return bound, MultiplierSequence(lambdas, gamma)


def cmd_verify(args: argparse.Namespace) -> int:
    net = load_network(args.net)
    bound, multipliers = read_certificate(json.loads(Path(args.report).read_text()))
    vr = validate(
        net, bound, multipliers, n_samples=args.samples, seed=args.seed,
        radius=args.radius,
    )
    out = {**asdict(vr), "manifest": _manifest("verify", args)}
    if args.output:
        Path(args.output).write_text(json.dumps(out, indent=2) + "\n")
    print(
        f"bound={vr.bound:.12g} empirical={vr.empirical_lower:.12g} "
        f"margin={vr.margin:.3e} psd={vr.lmi.psd}"
    )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    """One task at a time, so each row's seconds times that task alone."""
    lists = {}
    for flag in ("depths", "widths", "seeds", "methods"):
        lists[flag] = [v.strip() for v in getattr(args, flag).split(",") if v.strip()]
        if not lists[flag]:
            raise ValueError(f"bench: --{flag} names no {flag[:-1]}")
        for i, v in enumerate(lists[flag] if flag != "methods" else ()):
            try:
                lists[flag][i] = int(v)
            except ValueError:
                raise ValueError(f"bench: --{flag} takes integers, got {v!r}") from None
    depths, widths, seeds, methods = lists.values()
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ValueError(f"bench: unknown --methods {bad}")
    rows = []
    for depth, width, seed in itertools.product(sorted(depths), sorted(widths),
                                                sorted(seeds)):
        net = generate_random(depth, width, width, width, seed)
        for method in sorted(methods):
            row = {"depth": depth, "width": width, "seed": seed, "method": method,
                   "c": "", "bound": "", "seconds": "", "certified": args.certified,
                   "status": "ok"}
            try:
                c = getattr(args, f"c_{method}", 1.0) if reads(method) else None
                report = evaluate(net, method, c, certified=args.certified)
                row["seconds"] = f"{report.wall_time:.6f}"
                row["bound"] = f"{report.bound:.12g}"
                row["c"] = f"{report.config.c:g}" if reads(method) else ""
            except LipboundError as exc:
                row["status"] = f"error: {exc}"
            rows.append(row)
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    manifest_path = Path(args.output).with_suffix(".manifest.json")
    manifest_path.write_text(json.dumps(_manifest("bench", args), indent=2) + "\n")
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"wrote {args.output}: {n_ok}/{len(rows)} rows ok")
    return EXIT_OK if n_ok > 0 else EXIT_INFEASIBLE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen": cmd_gen,
        "compute": cmd_compute,
        "verify": cmd_verify,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, DimensionChainError, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DefinitenessLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEFINITENESS
    except AllInfeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValidationFailed as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
