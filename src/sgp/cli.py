"""Command-line interface: print tables, classify subgroups, audit, write atlases.

Grammar::

    sgp table|classify|audit <family> <n|a..b> [--format text|json|csv]
        [--out PATH] [--max-order N] [--fail-on-discrepancy (audit only)]
    sgp atlas <family> <n|a..b> --out DIRECTORY [--max-order N]

Atlas files are always JSON.  Exit codes: 0 success, 1 usage,
failed --fail-on-discrepancy or a closed stdout (with nothing on stderr),
2 internal consistency, 3 table validation.  The group-order bound
defaults to 256 and can be overridden with --max-order or the
SGP_MAX_ORDER environment variable; every command checks it at the
largest n of the range before any group is built.
All output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import chars, gelfand, groups
from .errors import InternalConsistencyError, SgpError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_VALIDATION = 3

ATLAS_SCHEMA_VERSION = 1

_RANGE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")

# json.dumps(obj, ensure_ascii=False, indent=2) makes this encoder and joins
# what its iterencode yields; with an indent both run the pure-Python encoder
_JSON = json.JSONEncoder(ensure_ascii=False, indent=2)
_JSON_PIECE = 1 << 16  # characters joined into one write


class _UsageError(Exception):
    pass


class _ValidationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # parse_args keeps no state on the parser, so every main call shares one
    parser = _Parser(prog="sgp", description="Exact character tables and "
                     "strong-Gelfand classification for cyclic, dihedral and "
                     "dicyclic groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    command_help = {
        "table": "print the character table of a family group",
        "classify": "classify every subgroup as (strong) Gelfand or not",
        "audit": "diff the brute-force classification against the closed-form rules",
        "atlas": "write one JSON atlas file per group in the range",
    }
    for name, help_text in command_help.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("family", choices=list(groups.FAMILIES))
        p.add_argument("n", metavar="n|a..b", help="single n or inclusive range a..b")
        if name != "atlas":
            p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--out", default=None, help="write output here instead of stdout"
                       if name != "atlas" else "output directory (required)")
        p.add_argument("--max-order", type=int, default=None,
                       help="override the group-order bound")
        if name == "audit":
            p.add_argument("--fail-on-discrepancy", action="store_true",
                           help="exit nonzero when any discrepancy is reported")
    return parser


def _parse_range(text: str, family: str, bound: int) -> range:
    """The values of n or a..b, refused before any group is built.

    The family order grows with n, so checking the largest n refuses an
    oversized range at once.
    """
    m = _RANGE.match(text.strip())
    if not m:
        raise _UsageError(f"cannot parse n or range {text!r} (expected e.g. 5 or 3..10)")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if lo < 1 or hi < lo:
        raise _UsageError(f"invalid range {text!r}: need 1 <= a <= b")
    groups.check_order(groups.family_order(family, hi), bound)
    return range(lo, hi + 1)


def _max_order(args) -> int:
    if args.max_order is not None:
        return args.max_order
    env = os.environ.get("SGP_MAX_ORDER")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _UsageError(f"SGP_MAX_ORDER must be an integer, got {env!r}") from exc
    return groups.DEFAULT_MAX_ORDER


def _validated_table(g: groups.FiniteGroup) -> chars.CharacterTable:
    """The family table of g; a validation failure is printed and exits 3."""
    table = chars.family_table(g)
    check = chars.validate_table(table)
    if not check.passed:
        for failure in check.failures:
            print(f"table validation failed: {failure}", file=sys.stderr)
        raise _ValidationFailure
    return table


def _emit(texts: Iterable[str | Iterable[str]], out: str | None) -> None:
    """Write the texts separated by blank lines, ending in a newline, to
    stdout or to the file `out`.

    A text is a str or an iterable of its pieces (a text table comes line
    by line, JSON in pieces of about 64 KB).  Each piece is written as soon
    as it is made and is not kept once written, so a range holds at most
    one piece of one group's text.
    On stdout the texts written before a failure stay written; the file
    `out` is written only whole (`_write_atomically`).
    """
    pieces = _separated(texts)
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        _write_atomically(Path(out), map(str.encode, pieces))


def _separated(texts: Iterable[str | Iterable[str]]) -> Iterator[str]:
    """The pieces of the texts with a blank line between each two and a
    newline after the last."""
    for i, text in enumerate(texts):
        if i:
            yield "\n\n"
        yield from (text,) if isinstance(text, str) else text
        del text  # not held while the next group is made
    yield "\n"


def _write_atomically(path: Path, chunks: Iterable[bytes]) -> str:
    """Write the chunks in turn to `<path>.partial` and rename it into
    place, so a run that stops partway never leaves `path` half written.
    A failed write or rename removes the partial file and re-raises.
    Returns the sha256 hex digest of the bytes written."""
    import hashlib  # loads OpenSSL, which only the commands that write files need

    partial = path.with_name(path.name + ".partial")
    digest = hashlib.sha256()
    try:
        with partial.open("wb") as f:
            for chunk in chunks:
                digest.update(chunk)
                f.write(chunk)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _json_text(obj, end: str = "") -> Iterator[str]:
    """The text of json.dumps(obj, ensure_ascii=False, indent=2) followed by
    `end`, in pieces of about 64 KB, so the text is never held whole."""
    batch, size = [], 0
    for piece in _JSON.iterencode(obj):
        batch.append(piece)
        size += len(piece)
        if size >= _JSON_PIECE:
            yield "".join(batch)
            batch, size = [], 0
    batch.append(end)
    yield "".join(batch)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# -- report documents -------------------------------------------------------------
#
# Each report is built once as its JSON document; the text and CSV outputs
# are formatted from that document, so every format shows the same fields.


def _table_document(table: chars.CharacterTable) -> dict:
    """The table with each value as its string, rendered once per value object."""
    g = table.group
    values = {id(v): v for r in table.irreducibles for v in r.values}
    text = {key: str(v) for key, v in values.items()}
    return {
        "group": g.name,
        "classes": [g.labels[rep] for rep in groups.conjugacy_classes(g).reps],
        "rows": [{"name": r.name, "values": [text[id(v)] for v in r.values]}
                 for r in table.irreducibles],
    }


def _record_document(record: gelfand.SubgroupRecord) -> dict:
    doc = {
        "desc": record.descriptor,
        "order": record.order,
        "index": record.index,
        "gelfand": record.gelfand,
        "strong_gelfand": record.strong_gelfand,
    }
    w = record.witness
    if w is not None:
        doc["witness"] = {"psi": w.psi, "chi": w.chi, "mult": w.mult}
    return doc


def _classification_document(report: gelfand.ClassificationReport) -> dict:
    g = report.group
    return {"group": g.name, "order": g.order,
            "subgroups": [_record_document(r) for r in report.records],
            "family": g.family, "n": g.n}


def _audit_document(ga: gelfand.GroupAudit) -> dict:
    subgroups = []
    discrepancies = []
    for e in ga.entries:
        doc = _record_document(e.record)
        doc["predicted_strong_gelfand"] = e.predicted
        subgroups.append(doc)
        if not e.agrees:
            discrepancy = {"desc": doc["desc"], "order": doc["order"],
                           "predicted": e.predicted, "computed": doc["strong_gelfand"]}
            if "witness" in doc:
                discrepancy["witness"] = doc["witness"]
            discrepancies.append(discrepancy)
    return {
        "family": ga.family,
        "n": ga.n,
        "group": ga.group_name,
        "subgroups": subgroups,
        "discrepancies": discrepancies,
        "summary": {"total": ga.total, "agree": ga.agree, "disagree": ga.disagree},
    }


# -- text and CSV, read from the documents ------------------------------------------


_WITNESS_COLUMNS = ["witness_psi", "witness_chi", "witness_mult"]


def _witness_cells(doc: dict) -> list:
    w = doc.get("witness")
    return [w["psi"], w["chi"], w["mult"]] if w else ["", "", ""]


def _witness_text(w: dict) -> str:
    return f"witness <{w['psi']}, {w['chi']}> = {w['mult']}"


def _table_text(doc: dict) -> Iterator[str]:
    """The text table line by line, every line after the first led by its newline.

    Every cell is padded to its column's widest value, so a C_p table is
    p cells of up to p - 1 terms across, and is never held whole.
    """
    grid = [["", *doc["classes"]]] + [[r["name"], *r["values"]] for r in doc["rows"]]
    widths = [max(len(row[c]) for row in grid) for c in range(len(grid[0]))]
    yield f"Character table of {doc['group']}"
    for first, *rest in grid:
        cells = [first.ljust(widths[0])] + [v.rjust(w) for v, w in zip(rest, widths[1:])]
        yield "\n" + "  ".join(cells).rstrip()


def _table_csv(doc: dict) -> str:
    return _csv_text(["name", *doc["classes"]],
                     [[r["name"], *r["values"]] for r in doc["rows"]])


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _classification_text(doc: dict) -> str:
    lines = [f"Subgroups of {doc['group']}: {len(doc['subgroups'])} total"]
    for s in doc["subgroups"]:
        line = (f"  {s['desc']:<12} order={s['order']:<4} index={s['index']:<4} "
                f"gelfand={_yes_no(s['gelfand']):<4} "
                f"strong_gelfand={_yes_no(s['strong_gelfand'])}")
        if "witness" in s:
            line += "  " + _witness_text(s["witness"])
        lines.append(line)
    return "\n".join(lines)


def _classification_csv(doc: dict) -> str:
    return _csv_text(
        ["group", "desc", "order", "index", "gelfand", "strong_gelfand", *_WITNESS_COLUMNS],
        [[doc["group"], s["desc"], s["order"], s["index"], s["gelfand"],
          s["strong_gelfand"], *_witness_cells(s)] for s in doc["subgroups"]],
    )


def _audit_text(docs: list[dict]) -> str:
    lines = []
    for doc in docs:
        summary = doc["summary"]
        lines.append(f"{doc['family']} n={doc['n']} ({doc['group']}): "
                     f"subgroups={summary['total']} agree={summary['agree']} "
                     f"disagree={summary['disagree']}")
        for d in doc["discrepancies"]:
            line = (f"  {d['desc']} (order {d['order']}): predicted_strong_gelfand="
                    f"{d['predicted']} computed={d['computed']}")
            if "witness" in d:
                line += " " + _witness_text(d["witness"])
            lines.append(line)
    return "\n".join(lines)


def _audit_csv(docs: list[dict]) -> str:
    return _csv_text(
        ["family", "n", "desc", "order", "gelfand", "strong_gelfand",
         "predicted_strong_gelfand", "agree", *_WITNESS_COLUMNS],
        [[doc["family"], doc["n"], s["desc"], s["order"], s["gelfand"],
          s["strong_gelfand"], s["predicted_strong_gelfand"],
          s["predicted_strong_gelfand"] == s["strong_gelfand"], *_witness_cells(s)]
         for doc in docs for s in doc["subgroups"]],
    )


# -- commands -----------------------------------------------------------------------


def _per_group(args, document, text, csv_text) -> int:
    """Print `document(g, bound)` for each group of the range in the chosen format,
    separated by blank lines."""
    bound = _max_order(args)
    render = {"text": text, "json": _json_text, "csv": csv_text}[args.format]
    ns = _parse_range(args.n, args.family, bound)
    _emit(groups.map_family(args.family, ns, lambda g: render(document(g, bound)), bound),
          args.out)
    return EXIT_OK


def _cmd_table(args) -> int:
    return _per_group(args, lambda g, bound: _table_document(_validated_table(g)),
                      _table_text, _table_csv)


def _cmd_classify(args) -> int:
    return _per_group(
        args, lambda g, bound: _classification_document(gelfand.classify_subgroups(g, bound)),
        _classification_text, _classification_csv)


def _cmd_audit(args) -> int:
    bound = _max_order(args)
    report = gelfand.audit(args.family, _parse_range(args.n, args.family, bound), bound)
    render = {"text": _audit_text, "json": _json_text, "csv": _audit_csv}[args.format]
    _emit([render([_audit_document(ga) for ga in report.audits])], args.out)
    if args.fail_on_discrepancy and report.total_discrepancies:
        print(f"{report.total_discrepancies} discrepancies found", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _atlas_document(g: groups.FiniteGroup, bound: int) -> dict:
    table = _validated_table(g)
    return {"schema_version": ATLAS_SCHEMA_VERSION,
            **_audit_document(gelfand.audit_group(g, bound)),
            "order": g.order,
            "table": _table_document(table)}


def _cmd_atlas(args) -> int:
    if args.out is None:
        raise _UsageError("atlas requires --out DIRECTORY")
    bound = _max_order(args)
    ns = _parse_range(args.n, args.family, bound)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # An old manifest must not survive a run that fails partway through.
    manifest_path = out_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    manifest = []
    for doc in groups.map_family(args.family, ns, lambda g: _atlas_document(g, bound), bound):
        filename = f"{args.family}_{doc['n']}.json"
        digest = _write_atomically(out_dir / filename, map(str.encode, _json_text(doc, "\n")))
        manifest.append({"file": filename, "sha256": digest})
    manifest_text = _JSON.encode(manifest) + "\n"
    _write_atomically(manifest_path, [manifest_text.encode("utf-8")])
    print(manifest_text, end="")
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


_COMMANDS = {
    "table": _cmd_table,
    "classify": _cmd_classify,
    "audit": _cmd_audit,
    "atlas": _cmd_atlas,
}


def _silence_stdout() -> None:
    """Point the descriptor under stdout at os.devnull after its reader has
    gone, so the flush at exit does not fail again; a stdout without a
    descriptor (an in-process caller's capture) is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        rc = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return rc
    except _UsageError as exc:
        print(f"sgp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _ValidationFailure:
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"sgp: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SgpError as exc:
        print(f"sgp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_USAGE
    except OSError as exc:
        print(f"sgp: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
