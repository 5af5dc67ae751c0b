"""Command-line front end.

Machine output is canonical JSON on stdout; progress notes go to stderr so
pipelines stay clean.  Exit codes: 0 success, 1 a stated property failed to
hold (or could not be certified), 2 the known coefficient window was too
short, 3 an algebraic extension needs a branch choice the caller must make,
4 malformed input (including command-line usage errors).
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import checks, serialize
from .cohomology import LatticeWindow, derham_dims, h1_generators, truncated_complex_dims
from .errors import (
    EngineError,
    ParseError,
    PrecisionExhausted,
    ZeroDivisorSplit,
)
from .reduction import KNOWN_SHARP, reduce, stability_constant

MAX_STABILITY_SIZE = 6
"""Largest ``n`` that ``mcred stability`` accepts: the bound recurses over the
orbits of every smaller size, and took 0.5 s at n = 6 (r = 3, 100, 256), 4.7 s
at n = 7 and 40 s at n = 8 (r = 3) on a 2-core x86-64 VM, Python 3.11.7."""


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return serialize.loads(text)


def _emit(obj: dict, out: str | None) -> None:
    text = serialize.dumps(obj)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        _note(f"wrote {out}")


def _load_connection(args):
    c = serialize.decode_connection(_read(args.input))
    if args.precision is not None:
        c = c.truncate(serialize.check_exponent(args.precision, "--precision"))
    return c


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_reduce(args) -> int:
    c = _load_connection(args)
    tree = reduce(c)
    kinds = [leaf.kind for leaf in tree.leaves()]
    _note(f"reduced: {len(kinds)} leaf(s) [{', '.join(kinds)}], "
          f"{tree.restarts} restart(s)")
    _emit(serialize.encode_tree(tree), args.out)
    return 0


def cmd_derham(args) -> int:
    c = _load_connection(args)
    if args.window is not None:
        lo, hi = (serialize.check_exponent(v, "--window") for v in args.window)
        if lo >= hi:
            raise ParseError(f"--window {lo} {hi} is empty: MIN must lie below MAX")
        dims = truncated_complex_dims(c, LatticeWindow(lo, hi))
    else:
        dims = derham_dims(c)
    _emit(serialize.encode_dims(dims), args.out)
    return 0


def cmd_fredholm(args) -> int:
    c = _load_connection(args)
    dims = derham_dims(c)
    if dims.certificate != "spectrum-derived":
        _note(f"no certificate: dimensions ({dims.h0}, {dims.h1}) come from "
              f"window doubling only")
        return 1
    out = serialize.encode_dims(dims)
    if c.pole_order <= 1:
        out["h1_generators"] = [
            [serialize.encode_series(comp) for comp in vec]
            for vec in h1_generators(c)
        ]
    _emit(out, args.out)
    return 0


def cmd_gauge(args) -> int:
    c = _load_connection(args)
    g = serialize.decode_matrix(_read(args.gauge))
    if args.precision is not None:
        g = g.truncate(args.precision)
    moved = c.gauge(g)
    _emit(serialize.encode_connection(moved), args.out)
    return 0


def cmd_stability(args) -> int:
    if not 1 <= args.n <= MAX_STABILITY_SIZE:
        raise ParseError(f"size must lie between 1 and {MAX_STABILITY_SIZE}, got {args.n}")
    if serialize.check_exponent(args.r, "pole order") < 0:
        raise ParseError(f"pole order must be at least 0, got {args.r}")
    bound = stability_constant(args.n, args.r)
    obj = {"n": args.n, "r": args.r, "bound": bound,
           "sharp": KNOWN_SHARP.get((args.n, args.r))}
    _emit(obj, args.out)
    return 0


def cmd_check(args) -> int:
    if args.count is not None and args.count < 1:
        raise ParseError("--count must be at least 1")
    try:
        results = checks.run_all(seed=args.seed, only=args.suites or None,
                                 trials=args.count)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    bad = 0
    for name, failures in results.items():
        if failures:
            bad += 1
            print(f"{name}: FAIL ({len(failures)} failure(s))")
            for line in failures:
                print(f"  {line}")
        else:
            print(f"{name}: ok")
    return 1 if bad else 0


def cmd_generate(args) -> int:
    if args.count < 1:
        raise ParseError("--count must be at least 1")
    rng = random.Random(args.seed)
    objs = []
    for k in range(args.count):
        kind = checks.KINDS[k % len(checks.KINDS)]
        c = checks.random_connection(
            rng, rng.randint(1, 3), rng.randint(0, 3), kind=kind)
        objs.append(serialize.encode_connection(c))
    _emit(objs[0] if args.count == 1 else {"connections": objs}, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this engine reserves 2
    for precision exhaustion, so usage errors are remapped to 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcred",
        description="Exact reduction of meromorphic connections over a "
                    "formal punctured disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name, fn, help_, out: bool = True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        if out:
            p.add_argument("--out", metavar="FILE",
                           help="write the JSON result here instead of stdout")
        return p

    p = add("reduce", cmd_reduce, "reduce a connection to canonical leaves")
    p.add_argument("input", help="connection JSON file")
    p.add_argument("--precision", type=int, metavar="P",
                   help="truncate the input to exponents below P first")

    for name, fn, help_ in (
        ("derham", cmd_derham, "cohomology dimensions (h0, h1, chi)"),
        ("fredholm", cmd_fredholm,
         "cohomology dimensions, certificate required"),
    ):
        p = add(name, fn, help_)
        p.add_argument("input", help="connection JSON file")
        p.add_argument("--precision", type=int, metavar="P",
                       help="truncate the input to exponents below P first")
        if name == "derham":
            p.add_argument("--window", nargs=2, type=int,
                           metavar=("MIN", "MAX"),
                           help="report raw dimensions on this window only")

    p = add("gauge", cmd_gauge, "apply a gauge transformation")
    p.add_argument("input", help="connection JSON file")
    p.add_argument("gauge", help="gauge matrix JSON file")
    p.add_argument("--precision", type=int, metavar="P",
                   help="truncate the inputs to exponents below P first")

    p = add("stability", cmd_stability,
            "tail exponent bound for a given size and pole order")
    p.add_argument("n", type=int, help="connection size")
    p.add_argument("r", type=int, help="pole order")

    p = add("check", cmd_check, "run the randomized property suites",
            out=False)
    p.add_argument("suites", nargs="*", metavar="SUITE",
                   help="suites to run (default: all); see mcred.checks.SUITES")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, metavar="N",
                   help="override each suite's instance count")

    p = add("generate", cmd_generate, "emit random sample connections")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        _note(f"parse error: {exc}")
        return 4
    except PrecisionExhausted as exc:
        hint = f" (precision >= {exc.needed} would do)" if exc.needed is not None else ""
        _note(f"precision exhausted: {exc}{hint}")
        return 2
    except ZeroDivisorSplit as exc:
        _note(f"unresolved field extension: {exc}")
        return 3
    except EngineError as exc:
        _note(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
