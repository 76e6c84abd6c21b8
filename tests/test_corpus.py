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
from cardminsat.coclones import all_labels
from cardminsat.reductions import OR2_WEAKBASE_TARGETS, XOR3_WEAKBASE_TARGETS

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


# sha256 of every corpus `reduce` call below (its report with the output
# directory masked, its exit code and the bytes of the pair it writes) and of
# `weakbase` on every label at widths 2-4.
REDUCE_WEAKBASE_SHA256 = "16171569634ff690c7acb24e06789b4a85033b3557b197e73393aea186b76519"

CHAIN_TARGETS = [(tag, w) for tag in OR2_WEAKBASE_TARGETS + XOR3_WEAKBASE_TARGETS
                 for w in ((2, 3) if tag.startswith("IS") else (None,))]


def _capture(argv, mask=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    texts = [out.getvalue(), err.getvalue()]
    if mask is not None:
        texts = [t.replace(str(mask), "<out>") for t in texts]
    return code, *texts


def test_reduce_and_weakbase_output_is_pinned(tmp_path):
    digest = hashlib.sha256()
    prefix = tmp_path / "red"
    pair = [prefix.with_suffix(".rel"), prefix.with_suffix(".cms")]
    for path in sorted((CORPUS / "formulas").glob("*.cms")):
        for tag, width in CHAIN_TARGETS:
            args = ["--target", tag] + (["--width", str(width)] if width else [])
            record = (path.name, args, *_capture(["reduce", str(path), *args,
                                                  "--out", str(prefix)], tmp_path))
            digest.update(repr(record).encode() + b"\n")
            for written in pair:
                if written.exists():
                    digest.update(hashlib.sha256(written.read_bytes()).digest())
                    written.unlink()
    for label in all_labels((2, 3, 4)):
        argv = ["weakbase", label.tag] + (["--width", str(label.width)] if label.width else [])
        digest.update(repr((argv, *_capture(argv))).encode() + b"\n")
    assert digest.hexdigest() == REDUCE_WEAKBASE_SHA256
