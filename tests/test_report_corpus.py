"""The byte-identical report gate of tools/report_corpus.py, on a few
requests."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_corpus.py"


@pytest.fixture
def corpus(monkeypatch):
    spec = importlib.util.spec_from_file_location("report_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    search = ["search", "--predicate", "kneser", "--budget", "2", "--family"]
    monkeypatch.setattr(module, "requests", lambda: {
        "search/cyclic": search + ["cyclic_translation"],
        "search/dihedral": search + ["dihedral_natural"],
        "run/orbits": {"group": {"kind": "cyclic", "n": 4},
                       "action": {"kind": "left_translation"},
                       "tasks": [{"task": "orbits"}]}})
    return module


def test_check_names_each_request_that_differs(corpus, tmp_path, capsys):
    path = tmp_path / "digest.json"
    assert corpus.main(["--write-digest", str(path)]) == 0
    digest = json.loads(path.read_text())
    assert sorted(digest) == ["run/orbits", "search/cyclic",
                              "search/dihedral"]
    assert corpus.main(["--check", str(path)]) == 0
    assert "0 requests differ" in capsys.readouterr().out

    digest["search/dihedral"] = "0" * 64
    path.write_text(json.dumps(digest))
    assert corpus.main(["--check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: search/dihedral", f"1 requests differ from {path}"]

    # a request the digest lacks, or only the digest holds, differs too
    del digest["run/orbits"]
    digest["search/gone"] = digest.pop("search/dihedral")
    path.write_text(json.dumps(digest))
    assert corpus.main(["--check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: run/orbits", "differs: search/dihedral",
        "differs: search/gone", f"3 requests differ from {path}"]


def test_check_names_each_report_not_written_as_json_dumps_writes_it(
        corpus, tmp_path, capsys, monkeypatch):
    # dropping one indent space keeps every document; the byte check still
    # names each request
    from subaction import cli
    path = tmp_path / "digest.json"
    assert corpus.main(["--write-digest", str(path)]) == 0
    dump = cli._dump
    monkeypatch.setattr(cli, "_dump",
                        lambda doc: dump(doc).replace("\n  ", "\n ", 1))
    assert corpus.main(["--check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: run/orbits", "differs: search/cyclic",
        "differs: search/dihedral", f"3 requests differ from {path}"]


def test_csv_requests_record_the_csv_text_of_an_earlier_report(
        corpus, monkeypatch):
    from subaction import cli
    listed = corpus.requests()
    monkeypatch.setattr(corpus, "CSV", ("run/orbits", "search/dihedral"))
    monkeypatch.setattr(corpus, "requests", lambda: {**listed, **{
        f"report/csv/{name}": ["report", "--format", "csv", "--in", name]
        for name in corpus.CSV}})
    res = corpus.results(corpus.ROOT)
    for name, header in (("run/orbits", "index,task,"),
                         ("search/dihedral", "kind,cursor,")):
        csv_text = cli._to_csv(res[name]["report"])
        assert csv_text.startswith(header)
        assert res[f"report/csv/{name}"] == {
            "exit": 0, "stderr": "", "report": csv_text}
