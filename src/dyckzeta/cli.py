"""Command-line front end.

Verbs: convert (between path/order encodings), map (apply a named
bijection), verify (run a harness check), enumerate (stream objects one per
line), render (draw a path).  Exit status: 0 success or verification passed,
1 verification found failures, 2 usage or validation error, a sweep
stopped short of a verdict (a worker died), or interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate

from .errors import PreconditionError, SweepError, ValidationError
from . import harness
from .lattice import (
    _AB,
    AreaSequence,
    DyckWord,
    _csv,
    _text_of_area,
    area_sequence_from_area_set,
    area_set_from_area_sequence,
    parse_area_sequence,
    parse_area_set,
    parse_word,
)
from .partlist import _bound_listing, _walk
from .uio import (
    _complement,
    enumerate_uio,
    parse_intervals,
    parse_pred,
    uio_from_intervals,
)
from .zeta import zeta

def _jobs(text: str) -> int:
    """The --jobs value: an int, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 worker, got {jobs}")
    return jobs


# ------------------------------------------------------------- conversion

#: source encoding -> its parser down to the area-sequence hub; orders cross
#: over by the area bijection a_j = j - 1 - pred[j], with no path between,
#: and so do words, read as orders by _pred_of_word
_TO_AREA = {
    "word": lambda text: AreaSequence(_complement(_pred_of_word(text))),
    "areaseq": parse_area_sequence,
    "areaset": lambda text: area_sequence_from_area_set(parse_area_set(text)),
    "pred": lambda text: AreaSequence(_complement(parse_pred(text).pred)),
    "intervals": lambda text: AreaSequence(
        _complement(uio_from_intervals(parse_intervals(text)).pred)),
}

#: target encoding -> its text from the hub; interval realizations of an
#: order are not canonical, so intervals is a source only
_FROM_AREA = {
    "word": lambda seq: _text_of_area(seq.entries),
    "areaseq": str,
    "areaset": lambda seq: str(area_set_from_area_sequence(seq)),
    "pred": lambda seq: _csv(_complement(seq.entries)),
}


def _each_value(value):
    """The positional argument, or stdin lines when it is omitted; this is
    what lets verbs compose under shell pipes (enumerate | map | ...)."""
    if value is not None:
        yield value
        return
    for line in sys.stdin:
        yield line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")


#: Lines per write of a line stream.  Under python -u stdout writes through,
#: and a print per line is two write(2) calls; at n = 10, blocks of 256 ran
#: as fast as larger ones and kept the peak RSS of a print per line.
LINE_BLOCK = 256


def _write_lines(lines, from_stdin=False) -> None:
    """Write each line and a newline to stdout, one write per LINE_BLOCK
    lines, or per line if the lines come `from_stdin` and stdin is a
    terminal, so that each typed line is answered.  Lines made before an
    exception are written before it propagates."""
    size = 1 if from_stdin and sys.stdin.isatty() else LINE_BLOCK
    write = sys.stdout.write
    block = []
    try:
        for line in lines:
            block.append(line)
            if len(block) == size:
                text, block = "\n".join(block), []
                write(text + "\n")
    finally:
        if block:
            write("\n".join(block) + "\n")


def _cmd_convert(args) -> int:
    parse, render = _TO_AREA[args.src], _FROM_AREA[args.dst]
    lines = (render(parse(value)) for value in _each_value(args.value))
    _write_lines(lines, args.value is None)
    return 0


# ------------------------------------------------------------------- maps

def _apply_named_map(name: str, value: str) -> str:
    if name == "a":
        return _FROM_AREA["word"](_TO_AREA["pred"](value))
    if name == "zeta":
        return str(zeta(parse_word(value)))
    return _csv(_pred_of_word(value))


def _cmd_map(args) -> int:
    """Print the image of each value, one line each, in input order.

    q, p and unzeta = zeta_inverse = p o a^-1 print q(U), or its path, from
    one insertion walk over the lines' pred vectors (partlist._walk):
    consecutive lines whose vectors share a prefix, as sorted input does,
    re-insert only the rest.  unzeta reads the pred vector a^-1(word) off
    the line's bytes (_pred_of_word), with no path object.  Each q(U) is
    checked as an area sequence, whose path is then a Dyck word.
    """
    _write_lines(_images(args.name, _each_value(args.value)), args.value is None)
    return 0


def _images(name: str, values):
    if name in ("p", "q"):
        preds = (parse_pred(value).pred for value in values)
    elif name == "unzeta":
        preds = map(_pred_of_word, values)
    else:
        return (_apply_named_map(name, value) for value in values)
    text = _FROM_AREA["areaseq" if name == "q" else "word"]
    return (text(AreaSequence(listing)) for listing in _walk(preds))


def _pred_of_word(line: str) -> tuple[int, ...]:
    """a^-1(word), the reader of every word line: pred[j] is the number of
    b's before the j-th a of its a/b bytes, one per character ("?" if not
    ASCII).  A Dyck path of size len // 2 has n a's and n b's, and stays on
    or above the diagonal iff pred[j] <= j for every j (the b count peaks
    just before the next a).  A line it refuses raises parse_word's error."""
    path = line.encode("ascii", "replace").translate(_AB)
    n = len(line) // 2
    runs = path.split(b"a")
    if len(runs) == n + 1 and path.count(b"b") == n and len(path) == 2 * n:
        runs.pop()
        pred = tuple(accumulate(map(len, runs)))
        for j, p in enumerate(pred):
            if p > j:
                break
        else:
            return pred
    parse_word(line)
    raise RuntimeError(f"parse_word accepts {line!r}, a line the order rule refuses")


# ----------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    check = harness.CHECKS[args.check]
    jobs = args.jobs if args.jobs is not None else harness._usable_cpus()
    report = check(args.n, jobs=jobs, max_n=args.max_n)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.render_text())
    return 0 if report.passed else 1


# -------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> int:
    """Print every order of size n, or every Dyck path as a(U) of the order
    U of the same rank: in rank order, that is enumerate_dyck's order.  n is
    bounded as map bounds a line, before a block of lines is buffered."""
    _bound_listing(args.n)
    orders = enumerate_uio(args.n)
    if args.kind == "dyck":
        _write_lines(_text_of_area(_complement(u.pred)) for u in orders)
    else:
        _write_lines(map(str, orders))
    return 0


# ----------------------------------------------------------------- render

#: Largest path size render_ascii draws: its canvas is (2n + 1)^2
#: characters, 160 801 at n = 200, so a short word cannot ask for a huge one.
RENDER_ASCII_MAX_N = 200


def render_ascii(d: DyckWord) -> str:
    """Draw the path on an n x n grid, origin bottom left, diagonal marked;
    n at most RENDER_ASCII_MAX_N, checked before the canvas is allocated."""
    n = d.n
    if n > RENDER_ASCII_MAX_N:
        raise PreconditionError(
            f"ascii render is limited to n <= {RENDER_ASCII_MAX_N}, got n = {n}; "
            "use --format svg"
        )
    size = 2 * n + 1
    canvas = [[" "] * size for _ in range(size)]
    for y in range(n + 1):
        for x in range(n + 1):
            canvas[2 * (n - y)][2 * x] = "+"
    for i in range(1, n + 1):
        canvas[2 * (n - i) + 1][2 * i - 1] = "/"
    x = y = 0
    for step in d.steps:
        if step == "a":
            canvas[2 * (n - y) - 1][2 * x] = "|"
            y += 1
        else:
            canvas[2 * (n - y)][2 * x + 1] = "-"
            x += 1
    return "\n".join("".join(row).rstrip() for row in canvas)


def render_svg(d: DyckWord, diagonals: bool = False) -> str:
    """Standalone SVG: grid, main diagonal, the path, and optionally the
    reading diagonals y = x + t."""
    n = d.n
    unit = 40
    pad = 10
    side = n * unit + 2 * pad

    def px(x: float, y: float) -> tuple[float, float]:
        return (pad + x * unit, pad + (n - y) * unit)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" '
        f'height="{side}" viewBox="0 0 {side} {side}">'
    ]

    def line(start, end, stroke, dash=None):
        (x0, y0), (x1, y1) = px(*start), px(*end)
        dashes = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
                     f'stroke="{stroke}" stroke-width="1"{dashes}/>')

    for i in range(n + 1):
        line((i, 0), (i, n), "#cccccc")
        line((0, i), (n, i), "#cccccc")
    line((0, 0), (n, n), "#555555", "6,4")
    if diagonals:
        for t in range(1, n):
            line((0, t), (n - t, n), "#999999", "2,4")
    points = []
    x = y = 0
    points.append("%s,%s" % px(x, y))
    for step in d.steps:
        if step == "a":
            y += 1
        else:
            x += 1
        points.append("%s,%s" % px(x, y))
    parts.append(
        f'<polyline points="{" ".join(points)}" fill="none" '
        f'stroke="#1f4fd8" stroke-width="4" stroke-linecap="square"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def _cmd_render(args) -> int:
    word = parse_word(args.value)
    if args.format == "ascii":
        print(render_ascii(word))
    else:
        print(render_svg(word, diagonals=args.diagonals))
    return 0


# ------------------------------------------------------------------ entry

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckzeta",
        description="Unit interval orders, Dyck paths, and the zeta map.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    convert = sub.add_parser("convert", help="losslessly convert encodings")
    convert.add_argument("--from", dest="src", required=True, choices=_TO_AREA)
    convert.add_argument("--to", dest="dst", required=True, choices=_FROM_AREA)
    convert.add_argument("value", nargs="?", default=None,
                         help="object text; omit to stream stdin lines")
    convert.set_defaults(func=_cmd_convert)

    mp = sub.add_parser("map", help="apply a named map to objects")
    mp.add_argument(
        "--name",
        required=True,
        choices=("a", "p", "q", "zeta", "unzeta", "a-inverse"),
    )
    mp.add_argument(
        "value",
        nargs="?",
        default=None,
        help="pred vector for a/p/q, step word for zeta/unzeta/a-inverse; "
        "omit to stream stdin lines",
    )
    mp.set_defaults(func=_cmd_map)

    verify = sub.add_parser("verify", help="run one verification check")
    verify.add_argument("--check", required=True, choices=harness.CHECKS)
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument(
        "--jobs",
        type=_jobs,
        default=None,
        help="worker processes, at least 1 (default and cap: the usable CPUs)",
    )
    verify.add_argument("--max-n", type=int, default=None, dest="max_n",
                        help="raise the default size ceiling")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    enum = sub.add_parser("enumerate", help="stream all objects of one size")
    enum.add_argument("--kind", required=True, choices=("dyck", "uio"))
    enum.add_argument("--n", type=int, required=True)
    enum.set_defaults(func=_cmd_enumerate)

    render = sub.add_parser("render", help="draw a path on its grid")
    render.add_argument("value")
    render.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    render.add_argument(
        "--diagonals",
        action="store_true",
        help="svg only: also draw the reading diagonals y = x + t",
    )
    render.set_defaults(func=_cmd_render)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValidationError, PreconditionError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C; pool workers ignore it and are stopped by the harness
        print("error: interrupted", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe (enumerate | head ...); exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
