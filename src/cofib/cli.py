"""Batch front-end: load JSON fixtures, run the pipelines, emit reports.

Exit codes: 0 on success, 1 when a check fails (the report carries the
witness), 2 on malformed input or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

from . import automata as aut
from . import pcs
from . import regex as rx
from . import samples
from .blowup import blowup as compute_blowup
from .blowup import verify_blowup
from .lifting import appendix_identity_suite, unique_rlp
from .words import BrickIndex


class InputError(Exception):
    pass


def _dumps(value, ensure_ascii: bool) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, ensure_ascii=...)`` on
    dicts with ``str`` keys, lists, ``str``, ``int``, ``bool`` and ``None``
    (else ``TypeError``), without json's pure-Python indented encoder."""
    quote = encode_basestring_ascii if ensure_ascii else encode_basestring
    chunks: list[str] = []
    append = chunks.append

    def write(value, pad: str) -> None:  # pad: a newline and value's indent
        kind, inner = type(value), pad + "  "
        if kind is str:
            append(quote(value))
        elif (kind is dict or kind is list) and not value:
            append("{}" if kind is dict else "[]")
        elif kind is dict:
            sep = "{"
            for key in sorted(value):
                item, head = value[key], sep + inner + quote(key) + ": "
                if type(item) is str:
                    append(head + quote(item))
                else:
                    append(head)
                    write(item, inner)
                sep = ","
            append(pad + "}")
        elif kind is list:
            try:
                chunks.extend(("[" + inner, ("," + inner).join(map(quote, value)), pad + "]"))
            except TypeError:  # not all strings
                for k, item in enumerate(value):
                    append(("," if k else "[") + inner)
                    write(item, inner)
                append(pad + "]")
        elif kind is bool or value is None:
            append("null" if value is None else "true" if value else "false")
        elif kind is int:
            append(int.__repr__(value))
        else:
            raise TypeError(f"cannot write {kind.__name__} as JSON")

    write(value, "\n")
    del write  # it refers to itself: the chunks would live until a cyclic GC pass
    return "".join(chunks)


def _emit(data) -> None:
    print(_dumps(data, ensure_ascii=False))


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _load_pcs(path: str) -> pcs.RelPCS:
    return pcs.from_json_dict(_load_json(path))


def _load_automaton(path: str) -> aut.RelAutomaton:
    return aut.from_json_dict(_load_json(path))


def _count(text: str) -> int:
    """A non-negative integer argument."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


MAX_AMBIENT_DIM = 7  # `pcs verify -n 7` on one square runs for half a minute
MAX_FUZZ_DEPTH = 16  # random regex trees grow with depth: 4687 nodes at 24
MAX_FUZZ_COUNT = 10_000  # `rx fuzz --depth 4 -L 8` checks 1000 regexes in 1.4 s
MAX_WORD_LENGTH = 12
_TEX = str.maketrans(  # LaTeX's special characters, written as text
    {c: "\\" + c for c in "#$%&_{}"} | {"\\": r"\textbackslash{}", "^": r"\textasciicircum{}", "~": r"\textasciitilde{}"}
)


def _at_most(limit: int, what: str):
    """An argument type: a non-negative integer of at most ``limit``."""

    def parse(text: str) -> int:
        if _count(text) > limit:
            raise argparse.ArgumentTypeError(f"{what} {text} exceeds the limit {limit}")
        return int(text)

    return parse


def _word_list(A: aut.RelAutomaton, length: int) -> list[str]:
    """The recognized words up to ``length``, sorted; at most ``MAX_WORDS``."""
    return sorted("".join(w) for w in aut.language_upto(A, length))


# -- pcs subcommands ----------------------------------------------------------


def _emit_validation(report: pcs.ValidationReport) -> int:
    _emit({"ok": report.ok, "problems": report.problems})
    return 0 if report.ok else 1


def cmd_pcs_validate(args) -> int:
    return _emit_validation(pcs.validate(_load_pcs(args.file)))


def cmd_pcs_blowup(args) -> int:
    P = _load_pcs(args.file)
    try:
        result = compute_blowup(P, args.n)
    except pcs.InvalidPCS as exc:
        return _emit_validation(exc.report)
    blown = pcs.to_json_dict(result.blowup)
    payload = {
        "blowup": blown,
        "beta": result.beta.mapping,
        "cells_by_dimension": {
            str(d): n for d, n in result.blowup.cube_counts().items()
        },
    }
    if args.provenance:
        payload["provenance"] = result.provenance_json()
    if args.output:
        try:
            Path(args.output).write_text(_dumps(blown, ensure_ascii=True))
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}")
    _emit(payload)
    return 0


def cmd_pcs_euclid(args) -> int:
    P = _load_pcs(args.file)
    report = pcs.euclidean_check(P, args.n)
    # an input that fails validation fails the chart check too, so only a failure is validated
    if not report.ok and not (valid := pcs.validate(P)).ok:
        return _emit_validation(valid)
    payload = {"ok": report.ok}
    if report.ok:
        payload["charts"] = {
            cube: {"epsilon": str(eps), "chart": pcs.chart_names(eps, f)}
            for cube, (eps, f) in report.charts.items()
        }
    else:
        payload["counterexample"] = report.counterexample
    _emit(payload)
    return 0 if report.ok else 1


def _cell_name(cell) -> str:
    """A cell as JSON text: a cube's name, or ``kind:name`` for an
    automaton's ``(kind, name)`` cell."""
    return cell if isinstance(cell, str) else ":".join(cell)


def _leg(f) -> dict:
    return {_cell_name(a): _cell_name(b) for a, b in f.mapping.items()}


def _emit_verdict(report) -> int:
    """A theorem-check summary with, for each failed lifting check, the
    generator, the failing square's legs and its filler count, and its
    fillers when there are two or more."""
    payload = report.summary()
    for key, lift in (("lifting_failure", report.lifting), ("codiagonal_failure", report.codiagonal_lifting)):
        if not lift.ok:
            payload[key] = {
                "generator": lift.generator,
                "lift_count": lift.lift_count,
                "top": _leg(lift.failure.top),
                "bottom": _leg(lift.failure.bottom),
            }
            if lift.lift_count > 1:
                payload[key]["fillers"] = list(map(_leg, lift.fillers))
    _emit(payload)
    return 0 if report.ok else 1


def cmd_pcs_verify(args) -> int:
    P = _load_pcs(args.file)
    try:
        report = verify_blowup(P, args.n)
    except pcs.InvalidPCS as exc:
        return _emit_validation(exc.report)
    return _emit_verdict(report)


def cmd_pcs_brick(args) -> int:
    try:
        eps = BrickIndex.parse(args.epsilon)
    except ValueError as exc:
        raise InputError(str(exc))
    if len(eps.bits) > MAX_AMBIENT_DIM:
        raise InputError(f"brick dimension {len(eps.bits)} exceeds the limit {MAX_AMBIENT_DIM}")
    _emit(pcs.to_json_dict(pcs.brick(eps)))
    return 0


def pcs_to_dot(P: pcs.RelPCS) -> str:
    """Cells as nodes ranked by dimension; a face entry with several
    targets goes through a point-shaped surrogate node (DOT has no native
    hyperedges).  A JSON string, its non-ASCII kept, is a DOT ID."""
    quote = encode_basestring
    shapes = {0: "ellipse", 1: "box"}
    lines = ["digraph precubical {", "  rankdir=BT;"]
    for d in sorted(P.cubes):
        cs = sorted(P.cubes[d])
        lines.append(f"  // dimension {d} ({len(cs)} cells)")
        for c in cs:
            shape = shapes.get(d, "box3d")
            lines.append(f"  {quote(c)} [shape={shape}];")
        lines.append(
            "  { rank=same; " + " ".join(f"{quote(c)};" for c in cs) + " }"
        )
    k = 0
    for (a, g), bs in sorted(P.faces.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        targets = sorted(bs)
        if len(targets) == 1:
            lines.append(f"  {quote(a)} -> {quote(targets[0])} [label={quote(str(g))}];")
        else:
            mid = f"rel{k}"
            k += 1
            lines.append(f"  {quote(mid)} [shape=point, label=\"\"];")
            lines.append(f"  {quote(a)} -> {quote(mid)} [label={quote(str(g))}, arrowhead=none];")
            for b in targets:
                lines.append(f"  {quote(mid)} -> {quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pcs_to_tikz(P: pcs.RelPCS) -> str:
    """Schematic layered figure: one row per dimension, faces as arrows, names escaped."""
    max_dim = max(P.cubes, default=0)
    if max_dim > 2:
        raise InputError("tikz export supports dimension at most 2")
    lines = ["\\begin{tikzpicture}[->, node distance=12mm]"]
    pos: dict[str, tuple[int, int]] = {}
    styles = {0: "draw, circle, inner sep=1.5pt", 1: "draw", 2: "draw, fill=gray!30"}
    for d in sorted(P.cubes):
        cs = sorted(P.cubes[d])
        lines.append(f"  % dimension {d} ({len(cs)} cells)")
        for i, c in enumerate(cs):
            pos[c] = (i, d)
            lines.append(
                f"  \\node[{styles[d]}] (c{len(pos)-1}) at ({2*i},{2*d}) "
                f"{{{c.translate(_TEX)}}};"
            )
    index = {c: i for i, c in enumerate(pos)}
    for (a, g), bs in sorted(P.faces.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        for b in sorted(bs):
            lines.append(
                f"  \\draw (c{index[a]}) -- node[midway, scale=0.6] {{{g}}} (c{index[b]});"
            )
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def cmd_pcs_export(args) -> int:
    P = _load_pcs(args.file)
    if args.format == "dot":
        sys.stdout.write(pcs_to_dot(P))
    else:
        sys.stdout.write(pcs_to_tikz(P))
    return 0


# -- automata subcommands -----------------------------------------------------


def cmd_aut_lang(args) -> int:
    A = _load_automaton(args.file)
    _emit({"length_bound": args.length, "words": _word_list(A, args.length)})
    return 0


def _certificate_json(certificate) -> list[dict]:
    """Per build step: its generator's kind and labels, its attach and fresh pairs."""
    return [
        {
            "generator": step.name[0],
            "labels": list(step.name[1]),
            "attach": {_cell_name(a): _cell_name(b) for a, b in step.attach},
            "fresh": {_cell_name(a): _cell_name(b) for a, b in step.fresh},
        }
        for step in certificate
    ]


def cmd_aut_cofrep(args) -> int:
    A = _load_automaton(args.file)
    result = aut.cofibrant_replacement(A)
    gens = aut.automata_generators(A.alphabet)
    lift = unique_rlp(aut.AUT_CARRIER, result.beta, gens.positive)
    payload = {
        "replacement": aut.to_json_dict(result.replacement),
        "beta_states": aut.state_map(result.beta),
        "beta_edges": aut.edge_map(result.beta),
        "certificate": _certificate_json(result.certificate),
        "unique_rlp": lift.ok,
    }
    _emit(payload)
    return 0 if lift.ok else 1


def cmd_aut_normalize(args) -> int:
    A = _load_automaton(args.file)
    result = aut.normalize(A)
    payload = {"automaton": aut.to_json_dict(result.automaton)}
    if result.warning:
        payload["warning"] = result.warning
    _emit(payload)
    return 0


def cmd_aut_conditions(args) -> int:
    A = _load_automaton(args.file)
    ok, witness = aut.check_conditions(A)
    payload = {"ok": ok}
    if witness:
        payload["witness"] = {"state": witness[0], "edge": witness[1]}
    _emit(payload)
    return 0 if ok else 1


def cmd_aut_verify(args) -> int:
    A = _load_automaton(args.file)
    return _emit_verdict(aut.verify_replacement(A, language_bound=args.length))


# -- regex subcommands ----------------------------------------------------------


def cmd_rx_compile(args) -> int:
    r = rx.parse(args.expr, ascii_aliases=args.ascii)
    A = rx.compile_regex(r, args.alphabet or "")
    payload = {"regex": str(r), "automaton": aut.to_json_dict(A)}
    if args.length is not None:
        payload["words"] = _word_list(A, args.length)
    _emit(payload)
    return 0


def cmd_rx_fuzz(args) -> int:
    if not args.alphabet:
        raise InputError("the alphabet must have at least one letter")
    report = rx.kleene_fuzz(
        seed=args.seed,
        count=args.count,
        depth=args.depth,
        L=args.length,
        alphabet=tuple(args.alphabet),
    )
    _emit(report.summary())
    print(f"{len(report.mismatches)} mismatches", file=sys.stderr)
    return 0 if report.ok else 1


# -- toolkit --------------------------------------------------------------------


def cmd_toolkit_appendix(args) -> int:
    reports = {
        name: appendix_identity_suite(carrier, cases)
        for name, (carrier, cases) in samples.appendix_cases().items()
    }
    ok = all(report.ok for report in reports.values())
    _emit({"ok": ok, "carriers": {name: report.summary() for name, report in reports.items()}})
    return 0 if ok else 1


# -- wiring ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once (``main`` reuses it; do not mutate)."""
    ambient_dim = _at_most(MAX_AMBIENT_DIM, "ambient dimension")
    word_length = _at_most(MAX_WORD_LENGTH, "word length")
    parser = argparse.ArgumentParser(
        prog="cofib",
        description="blowups of relational precubical sets and homotopical "
        "regex compilation, with every theorem checked on the input",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    p = groups.add_parser("pcs", help="relational precubical sets")
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("validate", help="check grading and closure")
    c.add_argument("file")
    c.set_defaults(func=cmd_pcs_validate)
    c = sub.add_parser("blowup", help="compute the blowup and its map")
    c.add_argument("-n", type=ambient_dim, required=True, help="ambient dimension")
    c.add_argument("file")
    c.add_argument("-o", "--output", help="write the blowup JSON here")
    c.add_argument("--provenance", action="store_true")
    c.set_defaults(func=cmd_pcs_blowup)
    c = sub.add_parser("euclid", help="search for a chart at every cube")
    c.add_argument("-n", type=ambient_dim, required=True)
    c.add_argument("file")
    c.set_defaults(func=cmd_pcs_euclid)
    c = sub.add_parser("verify", help="run the blowup theorem checks")
    c.add_argument("-n", type=ambient_dim, required=True)
    c.add_argument("file")
    c.set_defaults(func=cmd_pcs_verify)
    c = sub.add_parser("brick", help="print a euclidean brick")
    c.add_argument("-e", "--epsilon", required=True, help="bit string, e.g. 11")
    c.set_defaults(func=cmd_pcs_brick)
    c = sub.add_parser("export", help="DOT or TikZ figure")
    c.add_argument("--format", choices=["dot", "tikz"], required=True)
    c.add_argument("file")
    c.set_defaults(func=cmd_pcs_export)

    a = groups.add_parser("aut", help="relational automata")
    sub = a.add_subparsers(dest="command", required=True)
    c = sub.add_parser("lang", help="recognized words up to a length")
    c.add_argument("-L", "--length", type=word_length, required=True)
    c.add_argument("file")
    c.set_defaults(func=cmd_aut_lang)
    c = sub.add_parser("cofrep", help="cofibrant replacement with certificate")
    c.add_argument("file")
    c.set_defaults(func=cmd_aut_cofrep)
    c = sub.add_parser("normalize", help="replacement, one initial state, simple edges")
    c.add_argument("file")
    c.set_defaults(func=cmd_aut_normalize)
    c = sub.add_parser("conditions", help="concatenation-safety conditions")
    c.add_argument("file")
    c.set_defaults(func=cmd_aut_conditions)
    c = sub.add_parser("verify", help="replacement suite: lifting + language")
    c.add_argument("-L", "--length", type=word_length, default=5)
    c.add_argument("file")
    c.set_defaults(func=cmd_aut_verify)

    r = groups.add_parser("rx", help="regular expressions")
    sub = r.add_subparsers(dest="command", required=True)
    c = sub.add_parser("compile", help="compile to an automaton")
    c.add_argument("expr")
    c.add_argument("--alphabet", default="")
    c.add_argument("--ascii", action="store_true", help="accept 0 and () aliases")
    c.add_argument("-L", "--length", type=word_length, default=None, help="include words up to L")
    c.set_defaults(func=cmd_rx_compile)
    c = sub.add_parser("fuzz", help="compiler vs recursive semantics")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--count", type=_at_most(MAX_FUZZ_COUNT, "count"), required=True)
    c.add_argument("--depth", type=_at_most(MAX_FUZZ_DEPTH, "depth"), required=True)
    c.add_argument("-L", "--length", type=word_length, required=True)
    c.add_argument("--alphabet", default="ab")
    c.set_defaults(func=cmd_rx_fuzz)

    t = groups.add_parser("toolkit", help="carrier-agnostic identity suites")
    sub = t.add_subparsers(dest="command", required=True)
    c = sub.add_parser("appendix", help="codiagonal identities by explicit colimits")
    c.set_defaults(func=cmd_toolkit_appendix)
    return parser


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):  # not a caller's StringIO
        # UTF-8 whatever the locale; a lone surrogate becomes its JSON escape
        sys.stdout.reconfigure(encoding="utf-8", errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except (InputError, pcs.FormatError, aut.WordLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left early (``... | head``)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # mute the last flush
        return 141  # 128 + SIGPIPE, as if the signal had ended the process


if __name__ == "__main__":
    sys.exit(main())
