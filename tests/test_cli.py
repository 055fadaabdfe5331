"""CLI surface: commands, formats, exit codes, atlas persistence."""

import csv
import hashlib
import gc
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

import sgp.chars
import sgp.cli
import sgp.gelfand
import sgp.groups
from sgp.chars import TableValidation
from sgp.cli import main
from sgp.errors import InternalConsistencyError
from sgp.groups import FiniteGroup


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_module(*argv, stdout=subprocess.PIPE):
    """`python -m sgp argv` in a new interpreter that imports the package under test."""
    src = str(pathlib.Path(sgp.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sgp", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": path})


# -- table ------------------------------------------------------------------------


def test_table_text_dihedral_5(capsys):
    rc, out, _ = run(capsys, "table", "dihedral", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Character table of D10"
    assert lines[1].split() == ["1", "a", "a^2", "b"]
    assert len(lines) == 6  # title + header + 4 rows


def test_table_cyclic_1(capsys):
    rc, out, _ = run(capsys, "table", "cyclic", "1")
    assert rc == 0
    assert "μ_0" in out
    body = [ln for ln in out.splitlines() if ln.startswith("μ_0")]
    assert body and body[0].split() == ["μ_0", "1"]


def test_table_dicyclic_3_json_row_names(capsys):
    rc, out, _ = run(capsys, "table", "dicyclic", "3", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert [r["name"] for r in doc["rows"]] == ["θ_1", "θ_2", "θ_3", "θ_4", "π_1", "γ_1"]


def test_table_csv_round_trips(capsys):
    rc, out, _ = run(capsys, "table", "dihedral", "6", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "1", "a", "a^2", "a^3", "b", "ba"]
    assert len(rows) == 1 + 6
    assert rows[1][0] == "χ_1" and rows[1][1:] == ["1"] * 6


def test_table_range(capsys):
    rc, out, _ = run(capsys, "table", "cyclic", "2..4")
    assert rc == 0
    assert out.count("Character table of") == 3


def _watch_file_writes(monkeypatch, watch):
    """Route each write to a file opened for writing by `Path.open` through
    `watch(write, data)`, which writes `data` with the file's `write`."""
    open_path = pathlib.Path.open

    class Watched:
        def __init__(self, f):
            self._f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

        def write(self, data):
            return watch(self._f.write, data)

        def writelines(self, chunks):
            for data in chunks:
                self.write(data)

    def opened(path, mode="r", *args, **kwargs):
        f = open_path(path, mode, *args, **kwargs)
        return Watched(f) if "w" in mode else f

    monkeypatch.setattr(pathlib.Path, "open", opened)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_each_group_is_written_before_the_next_is_built(to_file, tmp_path, monkeypatch):
    events = []
    build_group = sgp.groups.build_group

    def build(family, n):
        events.append(f"build C{n}")
        return build_group(family, n)

    def log(text):
        if text.startswith("Character table of "):
            events.append("write " + text.split()[3])

    class Stdout(io.StringIO):
        def write(self, text):
            log(text)
            return super().write(text)

    monkeypatch.setattr(sgp.groups, "build_group", build)
    monkeypatch.setattr(sys, "stdout", Stdout())
    _watch_file_writes(monkeypatch, lambda write, data: log(data.decode()) or write(data))
    out = ["--out", str(tmp_path / "tables.txt")] if to_file else []
    assert main(["table", "cyclic", "2..4", *out]) == 0
    assert events == ["build C2", "write C2", "build C3", "write C3", "build C4", "write C4"]


class _Sink(io.TextIOBase):
    """A stdout that counts what is written to it and keeps none of it."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


def test_a_text_table_is_written_without_being_held_whole(monkeypatch):
    # every cell of C131's text table is padded to the width of z131^130,
    # 130 terms, so the text is over 20 MB while its table is small
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        assert main(["table", "cyclic", "131"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written > 20_000_000
    assert peak < 10_000_000


def test_a_json_document_is_written_without_being_held_whole(monkeypatch):
    # C195's table document is built untraced, so the peak is what rendering
    # its 4.7 MB of JSON text and writing it hold
    g = sgp.groups.build_group("cyclic", 195)
    table = sgp.chars.family_table(g)
    doc = sgp.cli._table_document(table)
    monkeypatch.setattr(sgp.groups, "build_group", lambda family, n: g)
    monkeypatch.setattr(sgp.cli, "_validated_table", lambda g: table)
    monkeypatch.setattr(sgp.cli, "_table_document", lambda table: doc)
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        assert main(["table", "cyclic", "195", "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written > 4_000_000
    assert peak < 2_000_000


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "d10.txt"
    rc, out, _ = run(capsys, "table", "dihedral", "5", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert "Character table of D10" in target.read_text()


def test_a_table_with_equal_rows_fails_validation_and_exits_3(capsys, monkeypatch, tmp_path):
    family_table = sgp.chars.family_table

    def first_row_twice(g):
        rows = family_table(g).irreducibles
        return sgp.chars.CharacterTable(g, rows[:1] + rows[:-1])

    monkeypatch.setattr(sgp.chars, "family_table", first_row_twice)
    rc, _, err = run(capsys, "table", "dihedral", "5")
    assert rc == 3
    assert "table validation failed: row orthogonality <χ_1,χ_1> = 1, expected 0" in err
    rc, _, err = run(capsys, "atlas", "dihedral", "5", "--out", str(tmp_path))
    assert rc == 3 and "table validation failed" in err
    assert not (tmp_path / "manifest.json").exists()


def test_table_validation_failure_exits_3(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sgp.chars, "validate_table",
                        lambda t: TableValidation(False, ("forced failure",)))
    rc, _, err = run(capsys, "table", "dihedral", "5")
    assert rc == 3
    assert "table validation failed: forced failure" in err
    rc, _, err = run(capsys, "atlas", "dihedral", "3..5", "--out", str(tmp_path))
    assert rc == 3
    assert "table validation failed: forced failure" in err
    assert not (tmp_path / "manifest.json").exists()


# -- classify -----------------------------------------------------------------------


def test_classify_dihedral_5(capsys):
    rc, out, _ = run(capsys, "classify", "dihedral", "5")
    assert rc == 0
    records = [ln for ln in out.splitlines() if ln.startswith("  ")]
    assert len(records) == 8
    trivial = next(ln for ln in records if "trivial" in ln)
    assert "strong_gelfand=no" in trivial and "witness" in trivial


def test_classify_dicyclic_1_all_strong(capsys):
    rc, out, _ = run(capsys, "classify", "dicyclic", "1")
    assert rc == 0
    records = [ln for ln in out.splitlines() if ln.startswith("  ")]
    assert records and all("strong_gelfand=yes" in ln for ln in records)


def test_classify_dihedral_2_all_strong(capsys):
    rc, out, _ = run(capsys, "classify", "dihedral", "2")
    assert rc == 0
    records = [ln for ln in out.splitlines() if ln.startswith("  ")]
    assert records and all("strong_gelfand=yes" in ln for ln in records)


_CLASSIFY_LINE = re.compile(
    r"^  (\S+) +order=(\d+) +index=(\d+) +gelfand=(yes|no) +strong_gelfand=(yes|no)"
    r"(?:  witness <(.+), (.+)> = (\d+))?$")

_AUDIT_LINE = re.compile(
    r"^  (\S+) \(order (\d+)\): predicted_strong_gelfand=(True|False) computed=(True|False)"
    r"(?: witness <(.+), (.+)> = (\d+))?$")


def _json_witness(doc):
    w = doc.get("witness")
    return (w["psi"], w["chi"], w["mult"]) if w else None


def _csv_witness(row):
    if not row["witness_psi"]:
        assert row["witness_chi"] == row["witness_mult"] == ""
        return None
    return (row["witness_psi"], row["witness_chi"], int(row["witness_mult"]))


def _text_witness(psi, chi, mult):
    return None if psi is None else (psi, chi, int(mult))


def test_classify_json_and_csv_have_same_records(capsys):
    rc, out_json, _ = run(capsys, "classify", "dihedral", "6", "--format", "json")
    assert rc == 0
    doc = json.loads(out_json)
    rc, out_csv, _ = run(capsys, "classify", "dihedral", "6", "--format", "csv")
    assert rc == 0
    rc, out_text, _ = run(capsys, "classify", "dihedral", "6")
    assert rc == 0
    from_json = [(s["desc"], s["order"], s["index"], s["gelfand"], s["strong_gelfand"],
                  _json_witness(s)) for s in doc["subgroups"]]
    assert len(from_json) == 16
    assert any(w is not None for *_, w in from_json)
    assert any(w is None for *_, w in from_json)
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert {r["group"] for r in rows} == {doc["group"]}
    from_csv = [(r["desc"], int(r["order"]), int(r["index"]), r["gelfand"] == "True",
                 r["strong_gelfand"] == "True", _csv_witness(r)) for r in rows]
    assert all(r[f] in ("True", "False") for r in rows for f in ("gelfand", "strong_gelfand"))
    header, *lines = out_text.rstrip("\n").splitlines()
    assert header == f"Subgroups of {doc['group']}: {len(doc['subgroups'])} total"
    matches = [_CLASSIFY_LINE.match(line) for line in lines]
    assert all(matches)
    from_text = [(desc, int(order), int(index), gelfand == "yes", strong == "yes",
                  _text_witness(psi, chi, mult))
                 for desc, order, index, gelfand, strong, psi, chi, mult
                 in (m.groups() for m in matches)]
    assert from_csv == from_json
    assert from_text == from_json


def test_audit_formats_agree_with_the_json(capsys):
    outs = {}
    for fmt in ("json", "csv", "text"):
        rc, outs[fmt], _ = run(capsys, "audit", "dihedral", "3..8", "--format", fmt)
        assert rc == 0
    docs = json.loads(outs["json"])
    rows = list(csv.DictReader(io.StringIO(outs["csv"])))
    assert len(rows) == sum(len(doc["subgroups"]) for doc in docs)
    pairs = iter(rows)
    for doc in docs:
        for s in doc["subgroups"]:
            r = next(pairs)
            assert (r["family"], int(r["n"])) == (doc["family"], doc["n"])
            assert (r["desc"], int(r["order"])) == (s["desc"], s["order"])
            assert r["gelfand"] == str(s["gelfand"])
            assert r["strong_gelfand"] == str(s["strong_gelfand"])
            assert r["predicted_strong_gelfand"] == str(s["predicted_strong_gelfand"])
            assert r["agree"] == str(s["predicted_strong_gelfand"] == s["strong_gelfand"])
            assert _csv_witness(r) == _json_witness(s)
    lines = iter(outs["text"].rstrip("\n").splitlines())
    disagreeing = 0
    for doc in docs:
        summary = doc["summary"]
        assert next(lines) == (f"{doc['family']} n={doc['n']} ({doc['group']}): "
                               f"subgroups={summary['total']} agree={summary['agree']} "
                               f"disagree={summary['disagree']}")
        expected = [{"desc": s["desc"], "order": s["order"],
                     "predicted": s["predicted_strong_gelfand"],
                     "computed": s["strong_gelfand"],
                     **({"witness": s["witness"]} if "witness" in s else {})}
                    for s in doc["subgroups"]
                    if s["predicted_strong_gelfand"] != s["strong_gelfand"]]
        assert doc["discrepancies"] == expected
        assert summary["disagree"] == len(expected)
        assert summary["total"] == summary["agree"] + summary["disagree"]
        for d in doc["discrepancies"]:
            desc, order, predicted, computed, psi, chi, mult = _AUDIT_LINE.match(
                next(lines)).groups()
            assert (desc, int(order), predicted, computed) == (
                d["desc"], d["order"], str(d["predicted"]), str(d["computed"]))
            assert _text_witness(psi, chi, mult) == _json_witness(d)
            disagreeing += 1
    assert next(lines, None) is None
    assert disagreeing == 2  # C2 of D8 and C4 of D16


def test_classify_respects_max_order_flag(capsys):
    rc, _, err = run(capsys, "classify", "dihedral", "10", "--max-order", "16")
    assert rc == 1
    assert "exceeds" in err


def test_classify_respects_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("SGP_MAX_ORDER", "16")
    rc, _, err = run(capsys, "classify", "dihedral", "10")
    assert rc == 1
    assert "exceeds" in err
    monkeypatch.setenv("SGP_MAX_ORDER", "64")
    rc, _, _ = run(capsys, "classify", "dihedral", "10")
    assert rc == 0


@pytest.mark.parametrize("command, family, order", [
    ("table", "dihedral", 2_000_000),
    ("classify", "dihedral", 2_000_000),
    ("audit", "dicyclic", 4_000_000),
    ("atlas", "cyclic", 1_000_000),
])
def test_oversized_group_is_refused_before_it_is_built(command, family, order, tmp_path,
                                                       capsys, monkeypatch):
    def build_group(family, n):
        raise AssertionError(f"{family} {n} was built past the order bound")

    monkeypatch.delenv("SGP_MAX_ORDER", raising=False)
    monkeypatch.setattr(sgp.groups, "build_group", build_group)
    out_dir = tmp_path / "atlas"
    # a range is refused at its largest n, before its in-bound groups are built
    for n in ("1000000", "1..1000000"):
        start = time.perf_counter()
        rc, _, err = run(capsys, command, family, n, "--out", str(out_dir))
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert f"group order {order} exceeds the bound 256" in err
        assert not out_dir.exists()


def test_atlas_builds_each_group_once(tmp_path, capsys, monkeypatch):
    build = sgp.groups.build_group
    built = []

    def counted(family, n):
        built.append((family, n))
        return build(family, n)

    monkeypatch.setattr(sgp.groups, "build_group", counted)
    assert run(capsys, "atlas", "cyclic", "1..4", "--out", str(tmp_path))[0] == 0
    assert built == [("cyclic", n) for n in range(1, 5)]


def test_each_finished_group_is_freed_without_the_cycle_collector(tmp_path, capsys):
    gc.collect()
    before = {id(o): o for o in gc.get_objects() if isinstance(o, FiniteGroup)}
    gc.disable()
    try:
        assert run(capsys, "audit", "dicyclic", "2..8", "--format", "json")[0] == 0
        assert run(capsys, "atlas", "cyclic", "1..6", "--out", str(tmp_path))[0] == 0
        left = sum(1 for o in gc.get_objects()
                   if isinstance(o, FiniteGroup) and id(o) not in before)
    finally:
        gc.enable()
    assert left == 0


def test_repeated_atlas_runs_leave_no_growing_garbage(tmp_path, capsys):
    def garbage_after(runs):
        for _ in range(runs):
            assert run(capsys, "atlas", "cyclic", "3", "--out", str(tmp_path))[0] == 0
        return gc.collect()

    gc.collect()
    gc.disable()
    try:
        counts = garbage_after(2), garbage_after(8)
    finally:
        gc.enable()
    assert counts[0] == counts[1]


# -- audit ---------------------------------------------------------------------------


def test_audit_range_text(capsys):
    rc, out, _ = run(capsys, "audit", "dihedral", "3..7")
    assert rc == 0
    lines = out.strip().splitlines()
    summary = [ln for ln in lines if ln.startswith("dihedral n=")]
    assert len(summary) == 5
    assert "dihedral n=4 (D8): subgroups=10 agree=9 disagree=1" in out


def test_audit_fail_on_discrepancy_clean(capsys):
    rc, _, _ = run(capsys, "audit", "dicyclic", "3..3", "--fail-on-discrepancy")
    assert rc == 0


def test_audit_cyclic_family_is_clean(capsys):
    rc, out, _ = run(capsys, "audit", "cyclic", "2..8", "--fail-on-discrepancy")
    assert rc == 0
    assert "disagree=0" in out


def test_audit_fail_on_discrepancy_dirty(capsys):
    rc, _, err = run(capsys, "audit", "dihedral", "4..4", "--fail-on-discrepancy")
    assert rc == 1
    assert "discrepanc" in err


def test_audit_json_is_array_per_n(capsys):
    rc, out, _ = run(capsys, "audit", "dicyclic", "2..3", "--format", "json")
    assert rc == 0
    docs = json.loads(out)
    assert [d["n"] for d in docs] == [2, 3]
    assert docs[0]["summary"]["disagree"] == 1
    assert docs[1]["summary"]["disagree"] == 0


def test_audit_csv(capsys):
    rc, out, _ = run(capsys, "audit", "dihedral", "4..4", "--format", "csv")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    bad = [r for r in rows if r["agree"] == "False"]
    assert len(bad) == 1 and bad[0]["desc"] == "C2"


# -- atlas ----------------------------------------------------------------------------


def test_atlas_writes_files_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "atlas"
    rc, out, _ = run(capsys, "atlas", "dihedral", "3..10", "--out", str(out_dir))
    assert rc == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == sorted([f"dihedral_{n}.json" for n in range(3, 11)] + ["manifest.json"])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert json.loads(out) == manifest
    import hashlib
    for entry in manifest:
        digest = hashlib.sha256((out_dir / entry["file"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_atlas_files_are_written_in_pieces(tmp_path, capsys, monkeypatch):
    # each data file is about 300 KB of JSON, written in pieces of about 64 KB
    sizes = []
    _watch_file_writes(monkeypatch, lambda write, data: sizes.append(len(data)) or write(data))
    out_dir = tmp_path / "atlas"
    rc, out, _ = run(capsys, "atlas", "cyclic", "100..101", "--out", str(out_dir))
    assert rc == 0
    assert sum(sizes) == sum(p.stat().st_size for p in out_dir.iterdir()) > 550_000
    assert max(sizes) < 80_000
    for entry in json.loads(out):
        digest = hashlib.sha256((out_dir / entry["file"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_failed_atlas_rerun_leaves_no_old_manifest(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "atlas"
    rc, _, _ = run(capsys, "atlas", "dihedral", "3..5", "--out", str(out_dir))
    assert rc == 0 and (out_dir / "manifest.json").exists()
    validate = sgp.chars.validate_table

    def fail_on_d8(t):
        if t.group.name == "D8":
            return TableValidation(False, ("forced failure",))
        return validate(t)

    monkeypatch.setattr(sgp.chars, "validate_table", fail_on_d8)
    rc, _, err = run(capsys, "atlas", "dihedral", "3..5", "--out", str(out_dir))
    assert rc == 3
    assert "table validation failed: forced failure" in err
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "dihedral_3.json", "dihedral_4.json", "dihedral_5.json"]


def _cut_a_write_short(monkeypatch, nth):
    """Make the nth write to a file opened by `Path.open` store half its
    bytes and raise, as a full disk would."""
    writes = []

    def cut_short(write, data):
        writes.append(data)
        if len(writes) == nth:
            write(data[: len(data) // 2])
            raise OSError("no space left on device")
        return write(data)

    _watch_file_writes(monkeypatch, cut_short)


def test_a_data_write_cut_short_leaves_the_old_file_whole(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "atlas"
    rc, _, _ = run(capsys, "atlas", "dihedral", "3..5", "--out", str(out_dir))
    assert rc == 0
    before = (out_dir / "dihedral_4.json").read_bytes()
    _cut_a_write_short(monkeypatch, 2)  # the data file of D8
    rc, _, err = run(capsys, "atlas", "dihedral", "3..5", "--out", str(out_dir))
    assert rc == 1 and "no space left on device" in err
    assert not (out_dir / "manifest.json").exists()
    assert (out_dir / "dihedral_4.json").read_bytes() == before
    assert not list(out_dir.glob("*.partial"))


def test_an_out_file_write_cut_short_leaves_the_old_file_whole(tmp_path, capsys, monkeypatch):
    target = tmp_path / "d12.txt"
    rc, _, _ = run(capsys, "classify", "dihedral", "6", "--out", str(target))
    assert rc == 0
    before = target.read_bytes()
    _cut_a_write_short(monkeypatch, 1)
    rc, _, err = run(capsys, "classify", "dihedral", "6", "--out", str(target))
    assert rc == 1 and "no space left on device" in err
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d12.txt"]


def test_atlas_rerun_is_byte_identical(tmp_path, capsys):
    out_dir = tmp_path / "atlas"
    run(capsys, "atlas", "dicyclic", "2..4", "--out", str(out_dir))
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    run(capsys, "atlas", "dicyclic", "2..4", "--out", str(out_dir))
    after = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert before == after


def test_atlas_documents_flag_center_not_strong(tmp_path, capsys):
    out_dir = tmp_path / "atlas"
    rc, _, _ = run(capsys, "atlas", "dicyclic", "2..6", "--out", str(out_dir))
    assert rc == 0
    for n in range(2, 7):
        doc = json.loads((out_dir / f"dicyclic_{n}.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["table"]["group"] == f"Dic{4 * n}"
        center = [s for s in doc["subgroups"] if s["desc"] == "C2" and s["order"] == 2]
        assert center and not center[0]["strong_gelfand"]
        assert center[0]["witness"]["mult"] >= 2


def test_atlas_round_trips_through_json(tmp_path, capsys):
    out_dir = tmp_path / "atlas"
    run(capsys, "atlas", "dihedral", "5..5", "--out", str(out_dir))
    path = out_dir / "dihedral_5.json"
    doc = json.loads(path.read_text())
    assert json.dumps(doc, ensure_ascii=False, indent=2) + "\n" == path.read_text()


def test_atlas_reads_each_tables_galois_maps_from_one_memo(tmp_path, capsys, monkeypatch):
    calls = []
    original = sgp.chars._class_power_map

    def counted(group, t):
        calls.append((group.name, t))
        return original(group, t)

    monkeypatch.setattr(sgp.chars, "_class_power_map", counted)
    assert run(capsys, "atlas", "cyclic", "12", "--out", str(tmp_path))[0] == 0
    # one map per generator of the units mod the exponent, found in increasing
    # order, for the tables of C12 (1, 5, 7; 11 = 5 * 7), C1, C2, C3, C4 and C6
    assert len(calls) == len(set(calls)) == 3 + 1 + 1 + 2 + 2 + 2


def test_atlas_requires_out(capsys):
    rc, _, err = run(capsys, "atlas", "dihedral", "3..4")
    assert rc == 1
    assert "--out" in err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_atlas_refuses_format_and_creates_nothing(tmp_path, capsys, fmt):
    out = tmp_path / "d"
    rc, stdout, err = run(capsys, "atlas", "cyclic", "2", "--out", str(out), "--format", fmt)
    assert rc == 1
    assert stdout == "" and "--format" in err
    assert not out.exists()


# -- usage and exit codes ------------------------------------------------------------------


def test_unknown_family_is_usage_error(capsys):
    rc, _, err = run(capsys, "table", "symmetric", "4")
    assert rc == 1
    assert err
    rc, out, err = run(capsys, "table", "mystery", "3")
    assert (rc, out) == (1, "")
    # argparse words the choices by Python version, in the registry's order
    assert err.startswith("sgp: error: argument family: invalid choice: ") and "mystery" in err
    assert re.search(r"\bcyclic\b.*\bdihedral\b.*\bdicyclic\b", err)


def test_bad_ranges_are_usage_errors(capsys):
    assert run(capsys, "audit", "dihedral", "7..3")[0] == 1
    assert run(capsys, "table", "dihedral", "0")[0] == 1
    assert run(capsys, "table", "dihedral", "x")[0] == 1
    assert run(capsys, "table", "dihedral", "1..2..3")[0] == 1


def test_unknown_command_is_usage_error(capsys):
    rc, _, _ = run(capsys, "frobnicate", "dihedral", "3")
    assert rc == 1


def test_internal_consistency_maps_to_exit_2(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalConsistencyError("forced dual-path mismatch")

    monkeypatch.setattr(sgp.gelfand, "classify_subgroups", boom)
    rc, _, err = run(capsys, "classify", "dihedral", "5")
    assert rc == 2
    assert "forced dual-path mismatch" in err


def test_console_entry_point_via_module():
    proc = run_module("table", "dihedral", "3")
    assert proc.returncode == 0
    assert "Character table of D6" in proc.stdout
    proc = run_module("audit", "dihedral", "4..4", "--fail-on-discrepancy")
    assert proc.returncode == 1


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(buffered, monkeypatch):
    # a buffered stdout fails at the flush, an unbuffered one at the first write
    if buffered:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes a byte
    try:
        proc = run_module("classify", "dihedral", "36", stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_main_calls_share_one_parser_but_no_state(capsys, monkeypatch):
    monkeypatch.delenv("SGP_MAX_ORDER", raising=False)
    sgp.cli._build_parser.cache_clear()
    rc, out, err = run(capsys, "table", "cyclic", "5", "--max-order", "3")
    assert rc == 1 and out == ""
    assert "group order 5 exceeds the bound 3" in err
    rc, out, err = run(capsys, "table", "cyclic", "5")
    fresh = run_module("table", "cyclic", "5")
    assert rc == 0 and fresh.returncode == 0
    assert (out, err) == (fresh.stdout, fresh.stderr)
    info = sgp.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# -- byte contract -------------------------------------------------------------------

_CONTRACT_RANGES = {"cyclic": "1..10", "dihedral": "1..8", "dicyclic": "1..4"}

# sha256 of argv, exit code, stdout, stderr and every atlas file (name and
# bytes) for each command over `_CONTRACT_RANGES`, one digest per
# (command, family, format).  atlas takes no --format and always writes
# JSON, so it has one digest per family, under "json".
_CONTRACT_DIGESTS = {
    ("table", "cyclic", "text"):
        "3193d723248fa85a30c133e0a9c909e925fe51aee468b7464b4de4c3ed31a23a",
    ("table", "cyclic", "json"):
        "896b81953cecf2047591cd1b66c6522391de017ea4055a1a3d96e371c301a600",
    ("table", "cyclic", "csv"):
        "cfb5a841057d0f7c1d08f2410818362a00325884822d4deab5b6f65fd474c2d5",
    ("table", "dihedral", "text"):
        "c8faf9312861fe9c6bec057b15ae3f1b03b1bc44976412e38f54c3c272ea970c",
    ("table", "dihedral", "json"):
        "fb1214895313844cbe27b92ddb45c02f22cbd9aad9e40070a0192365ae012074",
    ("table", "dihedral", "csv"):
        "acba380de202ca8912ac82744d24cb7d3d9847529c3c6db8f93501ef41817906",
    ("table", "dicyclic", "text"):
        "68f79a26fda666585ad2b014f97b25a0d4352fb4a8004d195307f503441250dd",
    ("table", "dicyclic", "json"):
        "4a6ec73915dc373687742a588d1148389ce31cebeb57561f97282eb34b7e4618",
    ("table", "dicyclic", "csv"):
        "da3a5239b8419562ac127bee8b24ce281c0f77021904b5584784076ae395a50e",
    ("classify", "cyclic", "text"):
        "8b6032e706a879447b302f783d5f7eb6559b539f8911a34b728682fd70864384",
    ("classify", "cyclic", "json"):
        "3834e4ffe78b3d9479ebe1a63ae56d9bcff9081d685083adf84f2e7dcd10d2fa",
    ("classify", "cyclic", "csv"):
        "3fa3f71a3659a52ec5c8b96210ca6abaec1d91123d34d47689940a9a2cedd5b7",
    ("classify", "dihedral", "text"):
        "120406c0f31a0a5b48159efa7c4f2f9537407a3968aa628c25489565448158ae",
    ("classify", "dihedral", "json"):
        "bfa92fc06789e93468b95742bd121e120f8569e4c4edbe3563b9a4322f4986f5",
    ("classify", "dihedral", "csv"):
        "c893e60b85ae8ba2c7e3df3334ee0cd7dc91a1069764f91b80ad0bf5de450ded",
    ("classify", "dicyclic", "text"):
        "bb669fb56279a3934ec48f027e9906eb3fc806c9ede86ce866a1cbd3796efa0e",
    ("classify", "dicyclic", "json"):
        "99fc76244b168baf88a929782bd6d4a839971b2f739eee95dfd3ac5498956f65",
    ("classify", "dicyclic", "csv"):
        "d7e17a347111e6779feb522be99e75964d17422e34325d66a868f91180f2568b",
    ("audit", "cyclic", "text"):
        "0f38a8153369605f1e17e2f825a98a4f8d989326ce7a8877e40cb11056976270",
    ("audit", "cyclic", "json"):
        "1278289692f1af952f15d00ebaaab759bde4dc564724b79f785bdebe3ea446de",
    ("audit", "cyclic", "csv"):
        "07c4c914510703006b640c045d7527d2c4c770c1405da112f16c89ea0e9c41c8",
    ("audit", "dihedral", "text"):
        "b626a7f62528b3c57c0a4e6d4318d77b0b177431fed2aabad52141ca7bdc06d4",
    ("audit", "dihedral", "json"):
        "f4278c6fdf9324aab757de1887d880feb44d8ec56517bcbec5a1deb058ccda5f",
    ("audit", "dihedral", "csv"):
        "224a9eddd6ff7cffb3d536d9e5570f3f2788ad82aaa6fbd2ac0d2b244b67c006",
    ("audit", "dicyclic", "text"):
        "7c1525e1609c6f61924f344ae6e3ba972e058c5612cc5e5f2b02f2dc77a66768",
    ("audit", "dicyclic", "json"):
        "bcd142cf4eeb1f230438bcb8791d3ce7e9167d324ef73a2fb4929a0724e4648a",
    ("audit", "dicyclic", "csv"):
        "c9c195c970b8a47860e646f4a33f7a85a21e1d0c9253862f4717733388574ecf",
    ("atlas", "cyclic", "json"):
        "7a018a7caf82dc6c1b5647fce8efc4e0e72f323e797e91735209509865e87f2b",
    ("atlas", "dihedral", "json"):
        "75cc50c340d9407d9543d29defb271105940d9a3c4d5c24f8f149924625cfb3f",
    ("atlas", "dicyclic", "json"):
        "a805ed20aaaf486cca24edf0c87aee4029d5e527ae124b2912d903a0e071ece0",
}


def _transcript_digest(capsys, tmp_path, command, family, fmt):
    argv = [command, family, _CONTRACT_RANGES[family]]
    argv += ["--format", fmt] if command != "atlas" else []
    out_dir = tmp_path / "out"
    extra = ["--out", str(out_dir)] if command == "atlas" else []
    rc, out, err = run(capsys, *argv, *extra)
    digest = hashlib.sha256()
    shown = argv + (["--out", "OUT"] if extra else [])
    for part in (" ".join(shown), str(rc), out, err):
        digest.update(part.encode("utf-8") + b"\0")
    for path in sorted(out_dir.iterdir()) if extra else ():
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("command, family, fmt", list(_CONTRACT_DIGESTS))
def test_cli_bytes_match_the_pinned_digests(command, family, fmt, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("SGP_MAX_ORDER", raising=False)
    digest = _transcript_digest(capsys, tmp_path, command, family, fmt)
    assert digest == _CONTRACT_DIGESTS[command, family, fmt]


# sha256 of the stdout of commands at the default order bound: the tables
# pinned from the table builders that made every cell's value on its own,
# the classifications of D256 and Dic256 (the non-abelian matrix paths)
# from the code before the `gelfand` functions took only the subgroup
_DEFAULT_BOUND_DIGESTS = {
    "table cyclic 256": "997e3bdb961e147f2808dffa0e4cd0137ccf699e677ef249330ead094fc9d4c6",
    "table dihedral 128": "06dd94318117d5f403bb24cc50b368a09a1e872f31f02dd160b1d7c7c6cddefc",
    "table dicyclic 64": "cea8684be843ccf56acf0a8b9762f52d7af1c5bf5e9696630331b840c8f308e7",
    "classify cyclic 256": "0ceb486ef5f2846eb7003ac1f968ed504008ec3124efef147ebd253c0f929901",
    "classify dihedral 128": "dabda967f3ab3e6bb0ba0724c4d6e6934eb7adb06102b83af36952d87f8a4836",
    "classify dicyclic 64": "c6f1178ac129d45c09d1da56b0b91d97253e3769963a88f26abb77f7b0ddec40",
}


@pytest.mark.parametrize("command", list(_DEFAULT_BOUND_DIGESTS))
def test_default_bound_bytes_match_the_pinned_digests(command, capsys, monkeypatch):
    monkeypatch.delenv("SGP_MAX_ORDER", raising=False)
    rc, out, err = run(capsys, *command.split())
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _DEFAULT_BOUND_DIGESTS[command]
