"""The benchmark tracer (perfbench/tracer.py) patches mfkit's functions by
name.  These tests install it on a fresh import, so a rename breaks here and
not only in a traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RESOLUTION = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import mfkit as mk
from tracer import Tracer

tracer = Tracer()
tracer.install(mk)
curve = mk.default_curve()
X, Y, Z = curve.ring.gens()
residue_field = mk.Presentation(curve.ring, curve.f, [0], mk.GradedMatrix(curve.ring, [0], [1, 1, 1], [[X, Y, Z]]))
mk.detect_periodicity(mk.minimal_resolution(residue_field, 4))
mk.extract_mf(residue_field, "structure-sheaf")
pt = mk.default_points(curve, 1)[0]
point, line = mk.catalog_mf(curve, "point", pt), mk.catalog_mf(curve, "lb-minus-p", pt)
mk.hom_space(line, point).basis
mk.is_stably_isomorphic(point, point)
mk.reduce_mf(mk.direct_sum_mf(point, mk.trivial_mf(curve.ring, curve.f)))
mk.picard_tensor(point, 1)
print(json.dumps(tracer.metrics(1, 0)))
"""


def test_tracer_installs_on_a_fresh_import_and_sees_the_groebner_layer():
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RESOLUTION], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    metrics = json.loads(run.stdout.splitlines()[-1])
    assert metrics["groebner.buchberger_calls"] > 0
    # its hook takes len() of what buchberger returns
    assert metrics["groebner.basis_size"] > 0
    assert metrics["groebner.reductions"] > 0
    # the mf layer: extract_mf runs under the mf.extract span
    assert metrics["mf.extract_s"] > 0
    assert metrics["linalg.add_calls"] > 0
    # the Hom layer too: the hom_space hooks read StableHom.problem.slots and
    # strict_basis, the iso search runs under scale_morphism's wrapper, and
    # reading a basis builds its boundary span through boundary_vectors (the
    # point's self-Hom has no boundary slot; the one of Hom(line, point) is a
    # slot of Hom(line[1], point))
    for key in (
        "homs.hom_space_calls", "homs.unknowns", "homs.equations", "homs.boundary_vectors",
        "linalg.nullspace_calls", "homs.iso_calls",
    ):
        assert metrics[key] > 0, key
    # reduce_mf's hook counts the rank it splits off, here the trivial summand
    assert metrics["mf.reduce_calls"] > 0
    assert metrics["mf.summands_split"] > 0
    # picard_tensor and the twist functors it calls are spans too
    assert metrics["homs.twist_functor_s"] > 0
    assert metrics["catalog.picard_s"] > 0
