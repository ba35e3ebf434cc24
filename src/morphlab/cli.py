"""Command-line front door.

Subcommands: analyze, normalize, expand, verify, matrix.  Machine output
is JSON; domain errors (an unreadable --file and a malformed pair among
them) exit with code 2 and parse errors with code 3, both printing
{"error": {...}} so scripts can react.  When the reader closes stdout
early (`morphlab expand ... | head`), the command stops without a
traceback and exits with code 141, 128 + SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

from . import spectral, streams
from .errors import BudgetExceededError, DomainMismatchError, MorphlabError, ParseError
from .fixtures import load_matrix_text
from .normalize import MorphicPresentation, normalize
from .parser import format_morphism, parse_file
from .polytools import positive_width
from .streams import image_prefix, prefix_equal

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DOMAIN_ERROR = 2
EXIT_PARSE_ERROR = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by SIGPIPE

BUDGET_HELP = (
    "pump budget: how many letters of f^w(start) a stream may read, not counting "
    "those the image morphism erases forever (default 10^6, or MORPHLAB_BUDGET)"
)


def _width_fraction(text):
    """--width: a positive rational, refused as a bad --budget is."""
    try:
        return positive_width(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise DomainMismatchError(f"--width must be a rational number, got {text!r}") from None


def _positive_budget(text):
    """--budget: a positive integer, refused as a bad MORPHLAB_BUDGET is."""
    return streams.parse_budget(text, "--budget")


def _budget(args):
    return streams.default_budget() if args.budget is None else args.budget


def _read_file(path):
    """The text of --file, or a MorphlabError that names the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MorphlabError(f"cannot read --file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise MorphlabError(f"cannot read --file {path!r}: not UTF-8 text") from None


def _load_file(path):
    return parse_file(_read_file(path))


def _resolve_pair(mf, pair_arg, start_arg, flag="--pair"):
    if pair_arg:
        names = [x.strip() for x in pair_arg.split(",")]
        if len(names) != 2:
            raise MorphlabError(f"{flag} names two morphisms as 'f,g', got {pair_arg!r}")
    elif mf.pair:
        names = mf.pair
    else:
        raise MorphlabError("no pair given: use --pair or a 'pair = f, g;' directive")
    f, g = (mf.morphism(name) for name in names)
    start = start_arg or mf.start
    if start is None:
        raise MorphlabError("no start letter: use --start or a 'start = a;' directive")
    return MorphicPresentation(f, g, start)


def _print_json(payload):
    """Write json.dumps(payload, indent=2) and a newline, 2^16 encoder
    chunks at a time: a large sigma is never one string."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while batch := list(islice(chunks, 1 << 16)):
        sys.stdout.write("".join(batch))
    sys.stdout.write("\n")


def _print_blocks(p, blocks):
    print(f"p = {p}")
    for block in blocks:
        letters = ",".join(block["letters"])
        lo, hi = block["radius"]["enclosure"]
        print(f"block [{letters}] {block['kind']} radius in [{lo}, {hi}]")


def _cmd_analyze(args):
    mf = _load_file(args.file)
    f = mf.morphism(args.morphism)
    report = spectral.analyze_morphism(f, width=args.width)
    if args.json:
        _print_json(report)
    else:
        _print_blocks(report["p"], report["blocks"])
        for letter, growth in report["letter_growth"].items():
            print(f"growth({letter}) = ({growth['lambda_per_step']}, {growth['d']})")
    return EXIT_OK


def _cmd_normalize(args):
    mf = _load_file(args.file)
    pres = _resolve_pair(mf, args.pair, args.start)
    report = normalize(pres)
    payload = report.as_dict(include_stages=args.trace)
    if args.check:
        budget = _budget(args)
        original = image_prefix(pres.g, pres.f, pres.start, args.check, max_pump=budget)
        rebuilt = image_prefix(report.tau, report.sigma, report.start, args.check, max_pump=budget)
        payload["verified_prefix"] = args.check if prefix_equal(original, rebuilt, args.check) else None
        if payload["verified_prefix"] is None:
            raise MorphlabError("normalized output disagrees with the input word")
    if args.emit:
        text = "\n".join(
            (
                format_morphism(args.emit_sigma, report.sigma),
                format_morphism(args.emit_tau, report.tau),
            )
        )
        try:
            Path(args.emit).write_text(text + "\n")
        except OSError as exc:
            raise MorphlabError(f"cannot write --emit {args.emit!r}: {exc.strerror}") from None
        payload["emitted"] = {
            "path": args.emit,
            "sigma": args.emit_sigma,
            "tau": args.emit_tau,
            "start": report.start,
        }
    if args.json:
        _print_json(payload)
    else:
        print(f"start = {report.start}")
        for name, morphism in (("sigma", report.sigma), ("tau", report.tau)):
            print(format_morphism(name, morphism))
        print(f"p = {report.cyclicity_power}, k_seq = {list(report.mortal_counts)}, "
              f"N = {report.visibility_power}, q = {report.stretch_power}")
        print(f"trichotomy case {report.trichotomy_case}; growth "
              f"({report.input_growth.rate.describe()}, {report.input_growth.degree}) -> "
              f"({report.output_growth.rate.describe()}, {report.output_growth.degree})")
        if args.trace:
            for stage in report.stages:
                removed = f" removed {list(stage.removed)}" if stage.removed else ""
                print(f"stage {stage.name}:{removed}")
                print(format_morphism("f", stage.f))
                print(format_morphism("g", stage.g))
    return EXIT_OK


def _cmd_expand(args):
    mf = _load_file(args.file)
    f = mf.morphism(args.morphism)
    start = args.start or mf.start
    if start is None:
        raise MorphlabError("no start letter: use --start or a 'start = a;' directive")
    budget = _budget(args)
    if args.image:
        g = mf.morphism(args.image)
        word = streams.ImageStream(g, f, start, budget=budget).prefix(args.limit)
    else:
        stream = streams.FixedPointStream(f, start)  # checks f first
        if args.limit > budget:  # the first n symbols of f^w(start) are n source symbols
            raise BudgetExceededError(
                f"{args.limit} symbols of f^w({start}) are {args.limit} source symbols, past the "
                f"pump budget of {budget}; raise it with --budget"
            )
        word = stream.prefix(args.limit)
    if args.binary:
        out = sys.stdout.buffer
        for letter in word.letters():
            data = letter.encode("utf-8")
            out.write(len(data).to_bytes(4, "big"))
            out.write(data)
        out.flush()
    elif args.json:
        _print_json({"prefix": list(word.letters()), "length": len(word)})
    else:
        print(word.text())
    return EXIT_OK


def _cmd_verify(args):
    mf = _load_file(args.file)
    pres1 = _resolve_pair(mf, args.pair1, args.start, "--pair1")
    pres2 = _resolve_pair(mf, args.pair2, args.start2 or args.start, "--pair2")
    budget = _budget(args)
    w1 = image_prefix(pres1.g, pres1.f, pres1.start, args.len, max_pump=budget)
    w2 = image_prefix(pres2.g, pres2.f, pres2.start, args.len, max_pump=budget)
    mismatch = streams.first_mismatch(w1, w2, args.len)
    payload = {"equal": mismatch is None, "length": args.len, "mismatch_index": mismatch}
    if args.json:
        _print_json(payload)
    elif mismatch is None:
        print(f"equal up to {args.len} symbols")
    else:
        print(f"mismatch at index {mismatch}")
    return EXIT_OK if mismatch is None else EXIT_MISMATCH


def _parse_entry_list(spec_list):
    entries = []
    for item in spec_list:
        try:
            i, j = (int(x) for x in item.split(","))
        except ValueError:
            raise MorphlabError(f"entries look like i,j (1-based), got {item!r}") from None
        entries.append((i, j))
    return entries


def _index(k, n, what):
    """The 0-based index of the 1-based `k`, which must lie in 1..n."""
    if not 1 <= k <= n:
        raise DomainMismatchError(f"{what} {k} is out of range 1..{n}")
    return k - 1


def _growth_payload(growth):
    return {"vanishes": growth.is_vanishing, **growth.as_dict()}


def _cmd_matrix(args):
    matrix = load_matrix_text(_read_file(args.file))
    dec = spectral.decompose(matrix)
    payload = {
        "p": dec.p,
        "blocks": dec.blocks_as_json(args.width),
        "entries": [],
        "rows": [],
        "cols": [],
    }
    n = dec.size
    for i, j in _parse_entry_list(args.entries or []):
        row, col = _index(i, n, "row"), _index(j, n, "column")
        for r in range(dec.p):
            growth = dec.entry_growth(row, col, r)
            payload["entries"].append({"i": i, "j": j, "r": r, **_growth_payload(growth)})
    for i in args.rows or []:
        payload["rows"].append({"i": i, **_growth_payload(dec.row_growth(_index(i, n, "row")))})
    for j in args.cols or []:
        payload["cols"].append({"j": j, **_growth_payload(dec.column_growth(_index(j, n, "column")))})
    if args.json:
        _print_json(payload)
    else:
        _print_blocks(dec.p, payload["blocks"])

        def fmt(entry):
            if entry["vanishes"]:
                return "0"
            return f"Theta(n^{entry['d']} * ({entry['lambda_per_step']})^n) per step"

        for row in payload["entries"]:
            print(f"({row['i']},{row['j']}) r={row['r']}: {fmt(row)}")
        for row in payload["rows"]:
            print(f"row {row['i']} sum: {fmt(row)}")
        for row in payload["cols"]:
            print(f"column {row['j']} sum: {fmt(row)}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morphlab",
        description="Analyze free-monoid morphisms and normalize erasing presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, about, width=False, budget=False):
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        if width:  # only the radius reports read it
            p.add_argument("--width", type=_width_fraction, default=spectral.DEFAULT_WIDTH,
                           help="enclosure width for radius reports (default 1/10^9)")
        if budget:  # only the commands that pump a stream read it
            p.add_argument("--budget", type=_positive_budget, help=BUDGET_HELP)
        return p

    p = command("analyze", _cmd_analyze, "spectral report for one endomorphism", width=True)
    p.add_argument("--file", required=True)
    p.add_argument("--morphism", required=True)

    p = command("normalize", _cmd_normalize, "remove erasure from a presentation", budget=True)
    p.add_argument("--file", required=True)
    p.add_argument("--pair", help="names 'f,g' (defaults to the file's pair directive)")
    p.add_argument("--start", help="start letter (defaults to the file's start directive)")
    p.add_argument("--check", type=int, default=0, help="verify this many output symbols")
    p.add_argument("--trace", action="store_true", help="include every pipeline stage")
    p.add_argument("--emit", help="write the normalized morphisms to this file")
    p.add_argument("--emit-sigma", default="normalized_sigma", help="emitted generator name")
    p.add_argument("--emit-tau", default="normalized_tau", help="emitted coding name")

    p = command("expand", _cmd_expand, "print a prefix of f^w(start) or g(f^w(start))",
                budget=True)
    p.add_argument("--file", required=True)
    p.add_argument("--morphism", required=True)
    p.add_argument("--start")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--image", help="apply this morphism to the fixed point")
    p.add_argument("--binary", action="store_true", help="length-prefixed binary symbols")

    p = command("verify", _cmd_verify, "compare two presentations symbol by symbol", budget=True)
    p.add_argument("--file", required=True)
    p.add_argument("--pair1", required=True, help="names 'f,g'")
    p.add_argument("--pair2", required=True, help="names 'f,g'")
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--start", help="start letter for both pairs")
    p.add_argument("--start2", help="start letter for the second pair, when different")

    p = command("matrix", _cmd_matrix, "growth table for a whitespace integer grid", width=True)
    p.add_argument("--file", required=True, help="path to a .mat file")
    p.add_argument("--entries", nargs="*", help="entries i,j (1-based)")
    p.add_argument("--rows", nargs="*", type=int, help="row-sum growth (1-based)")
    p.add_argument("--cols", nargs="*", type=int, help="column-sum growth (1-based)")

    return parser


def main(argv=None):
    try:
        try:
            # a bad --budget or --width raises DomainMismatchError from its type, not a usage error
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except ParseError as exc:
            _print_json({"error": {"kind": "parse", "message": str(exc)}})
            code = EXIT_PARSE_ERROR
        except MorphlabError as exc:
            _print_json({"error": {"kind": type(exc).__name__, "message": str(exc)}})
            code = EXIT_DOMAIN_ERROR
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
