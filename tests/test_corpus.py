"""The committed corpus is exactly what the generator produces, the
dispatched engine agrees with brute force on every instance in it, and the
CLI prints the same bytes on all of it."""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

from cardminsat.abduction import parse_pap
from cardminsat.cli import run

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _generator():
    spec = importlib.util.spec_from_file_location("make_corpus", ROOT / "tools" / "make_corpus.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_corpus_matches_generator():
    files = _generator().build_corpus()
    assert files, "generator produced nothing"
    on_disk = {str(p.relative_to(CORPUS)).replace("\\", "/")
               for p in CORPUS.rglob("*") if p.is_file()}
    assert on_disk == set(files)
    for rel_path, text in files.items():
        assert (CORPUS / rel_path).read_text() == text, f"corpus drift in {rel_path}"


def test_verify_exits_zero_on_every_corpus_formula(capsys):
    formulas = sorted((CORPUS / "formulas").glob("*.cms"))
    assert len(formulas) >= 50
    for path in formulas:
        assert run(["verify", str(path)]) == 0, path.name
    capsys.readouterr()


def test_abduce_runs_on_corpus_instances(capsys):
    for path in sorted((CORPUS / "abduction").glob("*.pap")):
        assert run(["abduce", str(path), "--hyp", "x1"]) == 0, path.name
    capsys.readouterr()


# sha256 of every corpus CLI call below; a change of any printed byte,
# engine choice, witness or exit code changes it.
CORPUS_STDOUT_SHA256 = "288d7e820e73054abc69a1a6226f1005031fda982657e1678348286de9684798"


def _corpus_calls():
    """(verb arguments without the path, file) of every corpus CLI call."""
    for path in sorted((CORPUS / "relations").glob("*.rel")):
        yield ["classify"], path
    for path in sorted((CORPUS / "formulas").glob("*.cms")):
        for engine in ("auto", "horn", "w2a", "generic", "brute"):
            yield ["solve", "--engine", engine], path
        yield ["verify"], path
    for path in sorted((CORPUS / "abduction").glob("*.pap")):
        for hyp in parse_pap(path.read_text()).hypotheses:
            for semantics in ("cw", "pu"):
                yield ["abduce", "--hyp", hyp, "--semantics", semantics], path


def test_cli_output_on_the_corpus_is_pinned():
    digest = hashlib.sha256()
    calls = 0
    for args, path in _corpus_calls():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([args[0], str(path), *args[1:]])
        for text in (out.getvalue(), err.getvalue()):
            assert str(ROOT) not in text, (args, path.name)
        record = (args, path.name, code, out.getvalue(), err.getvalue())
        digest.update(repr(record).encode() + b"\n")
        calls += 1
    assert calls >= 400
    assert digest.hexdigest() == CORPUS_STDOUT_SHA256
