"""Command-line front end.

Verbs: convert (between path/order encodings), map (apply a named
bijection), verify (run a harness check), enumerate (stream objects one per
line), render (draw a path).  Exit status: 0 success or verification passed,
1 verification found failures, 2 usage or validation error, or
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import PreconditionError, ValidationError
from . import harness
from .lattice import (
    _UP,
    AreaSequence,
    DyckWord,
    _text_of_area,
    area_sequence_from_area_set,
    area_sequence_from_word,
    area_set_from_area_sequence,
    parse_area_sequence,
    parse_area_set,
    parse_word,
)
from .uio import (
    UnitIntervalOrder,
    _complement,
    a_inverse,
    a_map,
    enumerate_uio,
    parse_intervals,
    parse_pred,
    uio_from_intervals,
)
from .zeta import zeta

JOBS_ENV_VAR = "DYCKZETA_JOBS"


def _default_jobs() -> int:
    raw = os.environ.get(JOBS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ------------------------------------------------------------- conversion

#: source encoding -> its parser down to the area-sequence hub; orders cross
#: over by the area bijection a_j = j - 1 - pred[j], with no path between
_TO_AREA = {
    "word": lambda text: area_sequence_from_word(parse_word(text)),
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
    "pred": lambda seq: str(UnitIntervalOrder(_complement(seq.entries))),
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
        return str(a_map(parse_pred(value)))
    if name == "zeta":
        return str(zeta(parse_word(value)))
    return str(a_inverse(parse_word(value)))


def _cmd_map(args) -> int:
    """Print the image of each value, one line each, in input order.

    q, p and unzeta = zeta_inverse = p o a^-1 print q(U), or its path, from
    one insertion walk over the stream (harness._walk): consecutive lines
    whose pred vectors share a prefix, as sorted input does, re-insert only
    the rest.  unzeta reads the pred vector a^-1(word) off the line's bytes
    (_pred_of_word), with no path object.  Each q(U) is checked as an area
    sequence, whose path is then a Dyck word.
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
    return (text(AreaSequence(listings[len(pred)]))
            for pred, listings in harness._walk(preds, tuple))


#: the step letters U/R and 1/0 as a/b; harness._dyck_pred refuses any
#: other byte
_AB = bytes.maketrans(b"UR10", b"abab")


def _pred_of_word(line: str) -> tuple[int, ...]:
    """a^-1(word) of a step word, read off its a/b bytes by the order rule
    (harness._dyck_pred); a line it refuses raises parse_word's error.
    Each character is one byte ("?" if not ASCII), so the length is kept."""
    pred = harness._dyck_pred(line.encode("ascii", "replace").translate(_AB),
                              len(line) // 2)
    if pred is None:
        parse_word(line)
        raise RuntimeError(f"parse_word accepts {line!r}, a line the order rule refuses")
    return pred


# ----------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    check = args.check
    if check == "grevlex" and args.jobs is not None and args.jobs > 1:
        raise PreconditionError(
            f"grevlex runs in one process; --jobs {args.jobs} is not supported"
        )
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if check == "theorem":
        report = harness.check_theorem(args.n, jobs=jobs, max_n=args.max_n)
    elif check == "induction":
        report = harness.check_induction_step(args.n, jobs=jobs, max_n=args.max_n)
    elif check == "bijections":
        report = harness.check_bijections(args.n, jobs=jobs, max_n=args.max_n)
    else:
        report = harness.check_grevlex(args.n, max_n=args.max_n)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.render_text())
    return 0 if report.passed else 1


# -------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> int:
    """Print every order of size n, or every Dyck path as a(U) of the order
    U of the same rank: in rank order, that is enumerate_dyck's order."""
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
        if step is _UP:
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
    for i in range(n + 1):
        x0, y0 = px(i, 0)
        x1, y1 = px(i, n)
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
        x0, y0 = px(0, i)
        x1, y1 = px(n, i)
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
    x0, y0 = px(0, 0)
    x1, y1 = px(n, n)
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
        f'stroke="#555555" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    if diagonals:
        for t in range(1, n):
            x0, y0 = px(0, t)
            x1, y1 = px(n - t, n)
            parts.append(
                f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
                f'stroke="#999999" stroke-width="1" stroke-dasharray="2,4"/>'
            )
    points = []
    x = y = 0
    points.append("%s,%s" % px(x, y))
    for step in d.steps:
        if step is _UP:
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
    verify.add_argument(
        "--check",
        required=True,
        choices=("theorem", "induction", "bijections", "grevlex"),
    )
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=f"worker processes (default from ${JOBS_ENV_VAR}, else 1; "
        "capped at the usable CPUs); grevlex runs in one process, refuses "
        f"--jobs above 1 and ignores ${JOBS_ENV_VAR}",
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
    except (ValidationError, PreconditionError) as exc:
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
