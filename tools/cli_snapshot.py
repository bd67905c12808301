"""Hash the output of a fixed matrix of mfkit CLI runs, for byte-identity checks.

    python tools/cli_snapshot.py [TREE]

runs every command below through ``mfkit.cli.dispatch`` of the package in
TREE/src (default: the tree holding this script) and prints one line per run:

    <exit code> <sha256 of stdout> <sha256 of stderr> <argv>

Run it on two trees and diff the outputs; an empty diff means every run gave
the same exit code and the same bytes on both streams.  The runs work in a
fresh temporary directory and name their files relatively, so paths echoed
in messages match between trees.  The envelopes the runs read come from the
tree's own `catalog` runs.  The matrix, for each curve (y^2 = x^3 + 1 over QQ
at the point (0, 1), and over GF(101) at (2, 3)):

- for every catalog kind: catalog, verify, transpose, duality, ar,
  shift/twist/picard by +1 and -1, hom against the point at shifts 0 and -1,
  iso against the point and against the structure sheaf;
- resolve of K and of the point module at length 5, extract in its three
  modes, the cone of an iso certificate, with and without --reduce;
- malformed envelopes and out-of-range flags, each refused;
- shift --k and twist --n at ±(2^31 - 1) on the point envelope: each result
  with a twist beyond ±(2^31 - 1), which the loaders refuse, is refused
  before it is written (exit 2), and the others are written.

A run that one tree refuses and the other completes differs on every stream,
so apart from the runs at ±(2^31 - 1), which check that bound, the matrix
holds no run that only a newer bound refuses; the tests pin those.  The
whole matrix takes a few seconds in one process.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TREE = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
sys.path.insert(0, str(TREE / "src"))

from mfkit.catalog import CATALOG_KINDS  # noqa: E402
from mfkit.cli import dispatch  # noqa: E402

CURVES = (("q", "QQ", ("0", "1")), ("f101", "GF(101)", ("2", "3")))
HUGE = "9" * 4300  # the most digits int() converts


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _shown(arg: str) -> str:
    return arg if len(arg) <= 40 else f"{arg[:4]}...<{len(arg)} chars>"


def run(*argv: str) -> str:
    """Run one command, print its line and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = dispatch(list(argv))
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
    print(code, _digest(out.getvalue()), _digest(err.getvalue()), " ".join(map(_shown, argv)), flush=True)
    return out.getvalue()


def _write(name: str, payload) -> str:
    Path(name).write_text(json.dumps(payload))
    return name


def per_kind(tag: str, field: str, lam: str, mu: str) -> None:
    for kind in CATALOG_KINDS:
        text = run("catalog", "--field", field, "--kind", kind, "--lambda", lam, "--mu", mu)
        _write(f"{tag}-{kind}.json", json.loads(text)[0])
    point, sheaf = f"{tag}-point.json", f"{tag}-structure-sheaf.json"
    for kind in CATALOG_KINDS:
        path = f"{tag}-{kind}.json"
        for command in ("verify", "transpose", "duality", "ar"):
            run(command, path)
        for sign in ("1", "-1"):
            run("shift", path, "--k", sign)
            run("twist", path, "--n", sign)
            run("picard", path, "--sign", sign)
        for shift in ("0", "-1"):
            run("hom", path, point, "--shift", shift)
        run("iso", path, point)
        run("iso", path, sheaf)


def per_curve(tag: str, field: str, lam: str, mu: str) -> None:
    curve = ("--field", field)
    run("resolve", "--module", "K", "--length", "5", *curve)
    run("resolve", "--module", "point", lam, mu, "--length", "5", *curve)
    ext = run("extract", "--module", "point", lam, mu, "--mode", "point", *curve)
    run("extract", "--module", "K", "--mode", "structure-sheaf", *curve)
    run("extract", "--module", "point", lam, mu, "--mode", "raw", "--step", "2", *curve)
    iso = json.loads(run("iso", _write(f"{tag}-ext.json", json.loads(ext)), f"{tag}-point.json"))
    phi = _write(f"{tag}-phi.json", iso["forward"])
    run("cone", phi)
    run("cone", phi, "--reduce")
    malformed(tag)


def malformed(tag: str) -> None:
    kp = f"{tag}-point.json"
    good = json.loads(Path(kp).read_text())
    morphism = json.loads(Path(f"{tag}-phi.json").read_text())

    def edited(envelope, drop=None, **fields):
        out = copy.deepcopy(envelope)
        out.pop(drop, None)
        out.update(fields)
        return out

    huge = edited(good, p0_twists=[int(HUGE)] + good["p0_twists"][1:], p1_twists=[-int(HUGE)] + good["p1_twists"][1:])
    envelopes = {
        "not-object": [],
        "missing-alpha": edited(good, drop="alpha"),
        "d-4": edited(good, d=4),
        "bad-ring": edited(good, ring=5),
        "bad-f": edited(good, f="X +"),
        "f-not-string": edited(good, f=5),
        "twist-text": edited(good, p0_twists=["1"] + good["p0_twists"][1:]),
        "ragged": edited(good, alpha=good["alpha"][:1]),
        "entry-text": edited(good, beta=[["Q"] + good["beta"][0][1:]] + good["beta"][1:]),
        "huge": huge,
    }
    for name, envelope in envelopes.items():
        run("verify", _write(f"{tag}-{name}.json", envelope))
    run("shift", f"{tag}-huge.json", "--k", "2")
    run("twist", f"{tag}-huge.json", "--n", "5")
    run("transpose", f"{tag}-huge.json")
    for bound in (str(2**31 - 1), str(-(2**31 - 1))):
        run("shift", kp, "--k", bound)
        run("twist", kp, "--n", bound)
    run("shift", kp, "--k", HUGE)
    run("hom", kp, kp, "--shift", "-" + HUGE)
    run("iso", kp, kp, "--samples", "-1")
    run("ar", kp, "--max-degree", "101")
    run("resolve", "--module", "K", "--length", "1001")
    run("extract", "--module", "K", "--mode", "raw", "--step", "1000")
    for name, envelope in {
        "shift-text": edited(morphism, shift="1"),
        "shift-2^31": edited(morphism, shift=-(2**31)),
        "rings-differ": edited(morphism, target=edited(good, ring={"field": "GF(7)"})),
        "missing-f1": edited(morphism, drop="f1"),
    }.items():
        run("cone", _write(f"{tag}-phi-{name}.json", envelope))
    presentation = {"ring": good["ring"], "f": good["f"], "ambient_twists": [0], "relations": [["X + Y^2", "Y"]]}
    run("resolve", "--module", _write(f"{tag}-inhomogeneous.json", presentation), "--length", "2")


def main() -> None:
    os.environ.pop("MFKIT_SEED", None)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for tag, field, (lam, mu) in CURVES:
            per_kind(tag, field, lam, mu)
            per_curve(tag, field, lam, mu)


if __name__ == "__main__":
    main()
