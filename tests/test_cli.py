"""Command-line interface: exit codes, JSON payloads, and wiring."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfkit as mk
from mfkit.cli import dispatch
from mfkit.io import morphism_to_dict

from fixtures import cone_generator


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def write_mf(tmp_path, name, M):
    path = tmp_path / name
    path.write_text(json.dumps(mk.mf_to_dict(M)))
    return str(path)


@pytest.fixture(scope="module")
def qcurve():
    return mk.default_curve()


@pytest.fixture(scope="module")
def qpoints(qcurve):
    return mk.default_points(qcurve, 5)


# ---------------------------------------------------------------------------
# verify


def test_verify_accepts_catalog_object(tmp_path, capsys, qcurve, qpoints):
    path = write_mf(tmp_path, "kp.json", mk.catalog_mf(qcurve, "point", qpoints[0]))
    code, payload, err = run_cli(capsys, "verify", path)
    assert code == 0
    assert payload["valid"] is True
    assert payload["violations"] == []


def test_verify_rejects_tampered_object(tmp_path, capsys, qcurve, qpoints):
    d = mk.mf_to_dict(mk.catalog_mf(qcurve, "point", qpoints[0]))
    d["alpha"][0][0] = "X^2"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, payload, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert payload["valid"] is False
    assert any("(0,0)" in v for v in payload["violations"])


def test_verify_missing_file_is_input_error(capsys, tmp_path):
    code, payload, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2


def test_verify_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, payload, err = run_cli(capsys, "verify", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "key, value",
    [("alpha", lambda rows: [[1] + row[1:] for row in rows]), ("p0_twists", lambda tw: [True] + tw[1:])],
)
def test_verify_non_string_entry_or_bool_twist_is_input_error(tmp_path, capsys, qcurve, qpoints, key, value):
    d = mk.mf_to_dict(mk.catalog_mf(qcurve, "point", qpoints[0]))
    d[key] = value(d[key])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, payload, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert payload is None
    assert err.startswith("error:")


def test_verify_overlong_power_is_input_error(tmp_path, capsys, qcurve, qpoints):
    d = mk.mf_to_dict(mk.catalog_mf(qcurve, "point", qpoints[0]))
    d["f"] = "(X+Y+Z)^100000"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, payload, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_resolve_non_string_relation_is_input_error(tmp_path, capsys):
    # no relation_twists, so the loader infers them from the entries
    d = {
        "ring": {"vars": ["X", "Y", "Z"], "field": "QQ"},
        "f": "Y^2*Z - X^3 - Z^3",
        "ambient_twists": [0],
        "relations": [["X", 1, "Z"]],
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(d))
    code, payload, err = run_cli(capsys, "resolve", "--module", str(path), "--length", "2")
    assert code == 2
    assert payload is None
    assert err.startswith("error:")


@pytest.mark.parametrize("f", ["0", "1", "X^2"])
def test_resolve_presentation_without_a_cubic_potential_is_input_error(tmp_path, capsys, f):
    d = {
        "ring": {"vars": ["X", "Y", "Z"], "field": "QQ"},
        "f": f,
        "ambient_twists": [0, 0],
        "relation_twists": [0, 1],
        "relations": [["1", "X"], ["0", "Y"]],
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(d))
    code, payload, err = run_cli(capsys, "resolve", "--module", str(path), "--length", "2")
    assert code == 2
    assert payload is None
    assert "degree 3" in err


# ---------------------------------------------------------------------------
# resolve / extract


def test_resolve_residue_field(capsys):
    code, payload, err = run_cli(
        capsys, "resolve", "--module", "K", "--length", "4"
    )
    assert code == 0
    assert payload["twists"] == [
        [0],
        [1, 1, 1],
        [2, 2, 2, 3],
        [3, 4, 4, 4],
        [5, 5, 5, 6],
    ]
    assert payload["periodicity"] == 3


def test_resolve_point_module(capsys):
    code, payload, err = run_cli(
        capsys, "resolve", "--module", "point", "0", "1", "--length", "4"
    )
    assert code == 0
    assert payload["twists"][:2] == [[0], [1, 1]]
    assert payload["periodicity"] == 2


def test_extract_point_matches_catalog(capsys, tmp_path, qcurve, qpoints):
    code, payload, err = run_cli(
        capsys, "extract", "--module", "point", "2", "3", "--mode", "point"
    )
    assert code == 0
    M = mk.mf_from_dict(payload)
    C = mk.catalog_mf(qcurve, "point", mk.point_on(qcurve, 2, 3))
    assert mk.is_stably_isomorphic(M, C).status == "yes"


def test_resolve_and_raw_extract_off_the_default_curve(capsys):
    off = ("--module", "K", "--field", "GF(101)", "--curve", "3", "7")
    code, payload, _ = run_cli(capsys, "resolve", *off, "--length", "5")
    assert code == 0
    assert payload["periodicity"] == 3
    code, raw, _ = run_cli(capsys, "extract", *off, "--mode", "raw", "--step", "3")
    assert code == 0
    assert mk.verify_mf(mk.mf_from_dict(raw)) == []
    assert raw == payload["periodic_pair"]


def test_extract_wrong_mode_is_input_error(capsys):
    code, payload, err = run_cli(
        capsys, "extract", "--module", "K", "--mode", "point"
    )
    assert code == 2


def test_extract_step_outside_raw_mode_is_input_error(capsys, tmp_path):
    # --step means something in raw mode only; another mode refuses it
    # rather than silently ignoring it
    out = tmp_path / "o.json"
    code, payload, err = run_cli(
        capsys, "extract", "--module", "K", "--mode", "structure-sheaf", "--step", "-4", "--out", str(out)
    )
    assert code == 2
    assert "raw" in err
    assert not out.exists()
    code, payload, err = run_cli(capsys, "extract", "--module", "point", "2", "3", "--mode", "point", "--step", "2")
    assert code == 2 and payload is None


# ---------------------------------------------------------------------------
# catalog


def test_catalog_single_entry(capsys):
    code, payload, err = run_cli(
        capsys, "catalog", "--kind", "point", "--lambda", "2", "--mu", "3"
    )
    assert code == 0
    entries = payload
    assert len(entries) == 1
    assert entries[0]["kind"] == "point"
    assert entries[0]["verified"] is True


def test_catalog_all_points_prime_field(capsys):
    code, payload, err = run_cli(
        capsys,
        "catalog",
        "--kind",
        "point",
        "--field",
        "F101",
        "--all-points",
    )
    assert code == 0
    assert len(payload) == 101
    assert all(e["verified"] for e in payload)


def test_catalog_kind_all(capsys):
    code, payload, err = run_cli(
        capsys, "catalog", "--kind", "all", "--lambda", "0", "--mu", "1"
    )
    assert code == 0
    kinds = {e["kind"] for e in payload}
    assert kinds == set(mk.CATALOG_KINDS)


def test_catalog_bad_point_is_input_error(capsys):
    code, payload, err = run_cli(
        capsys, "catalog", "--kind", "point", "--lambda", "0", "--mu", "2"
    )
    assert code == 2


@pytest.mark.parametrize("lam", ["1/101", "abc"])
def test_catalog_bad_coordinate_is_input_error(capsys, lam):
    code, payload, err = run_cli(
        capsys, "catalog", "--field", "101", "--kind", "point", "--lambda", lam, "--mu", "0"
    )
    assert code == 2
    assert payload is None
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--kind", "point", "--lambda", "0"), "--lambda and --mu must be given together"),
        (("--kind", "point"), "needs --lambda/--mu or --all-points"),
        (("--kind", "nonsense"), "unknown catalog kind 'nonsense'"),
    ],
)
def test_catalog_flag_errors(capsys, argv, message):
    code, payload, err = run_cli(capsys, "catalog", *argv)
    assert code == 2
    assert payload is None
    assert message in err


def enumerations(monkeypatch):
    """The fields cmd_catalog asks to enumerate the points of, recorded;
    each request is answered with no points, so a regressed guard costs
    nothing here (GF(1000003) has 998,003 affine points on the curve)."""
    calls = []
    monkeypatch.setattr(mk.cli, "rational_points", lambda cv: calls.append(cv.field) or [])
    return calls


def test_catalog_all_points_refuses_a_large_prime_before_enumerating(capsys, monkeypatch):
    calls = enumerations(monkeypatch)
    code, payload, err = run_cli(capsys, "catalog", "--field", "GF(1000003)", "--kind", "point", "--all-points")
    assert code == 2
    assert payload is None
    assert f"at most {mk.cli.MAX_POINT_PRIME}, got 1000003" in err
    assert calls == []


@pytest.mark.parametrize("field", ["QQ", "GF(1000003)"])
def test_catalog_all_points_without_a_point_kind_enumerates_nothing(capsys, monkeypatch, field):
    calls = enumerations(monkeypatch)
    code, payload, err = run_cli(capsys, "catalog", "--field", field, "--kind", "structure-sheaf", "--all-points")
    assert code == 0
    assert [e["kind"] for e in payload] == ["structure-sheaf"]
    assert calls == []


def test_catalog_in_characteristic_two_is_input_error(capsys):
    code, payload, err = run_cli(capsys, "catalog", "--field", "GF(2)", "--kind", "all", "--all-points")
    assert code == 2
    assert payload is None
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# cone / hom / iso


def test_cone_command(capsys, tmp_path, qcurve, qpoints):
    phi, _ = cone_generator(qcurve, "e-plus-p", qpoints[0])
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(morphism_to_dict(phi)))
    code, payload, err = run_cli(capsys, "cone", str(path), "--reduce")
    assert code == 0
    C = mk.mf_from_dict(payload)
    assert C.rank == 2
    T = mk.shift_mf(mk.catalog_mf(qcurve, "lb-e-plus-p", qpoints[0]), 1)
    assert mk.is_stably_isomorphic(C, T).status == "yes"


@pytest.mark.parametrize("side", ["source", "target"])
def test_cone_rejects_a_tampered_factorisation_in_the_envelope(capsys, tmp_path, qcurve, qpoints, side):
    # the identity on a valid object, with one side's beta no longer a factor
    # of f: the input is refused and named, not the cone it would give
    env = morphism_to_dict(mk.identity_morphism(mk.catalog_mf(qcurve, "point", qpoints[0])))
    env[side]["beta"][0][0] = "0"
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(env))
    code, payload, err = run_cli(capsys, "cone", str(path))
    assert code == 2
    assert payload is None
    assert f"invalid {side} factorisation in {path}" in err
    assert "mapping cone" not in err


def test_hom_command(capsys, tmp_path, qcurve, qpoints):
    O = mk.catalog_mf(qcurve, "structure-sheaf")
    a = write_mf(tmp_path, "o1.json", O)
    b = write_mf(tmp_path, "o2.json", O)
    code, payload, err = run_cli(capsys, "hom", a, b, "--shift", "-1")
    assert code == 0
    assert payload["stable_dim"] == 1


def test_hom_refuses_an_oversized_system_before_building_it(
    capsys, tmp_path, monkeypatch, qcurve, qpoints
):
    # Hom(kp[-2000], kp) would have 36,036,009 unknowns; they are counted
    # from the twists and refused with exit 2 before one slot is enumerated
    # (enumerating one would end as an internal error, exit 70)
    path = write_mf(tmp_path, "kp.json", mk.catalog_mf(qcurve, "point", qpoints[0]))

    def refuse(ring, d):
        raise AssertionError(f"monomials of degree {d} enumerated")

    monkeypatch.setattr(mk.PolyRing, "monomials_of_degree", refuse)
    code, payload, err = run_cli(capsys, "hom", path, path, "--shift", "-2000")
    assert code == 2
    assert payload is None
    limit = mk.homs.MAX_HOM_SLOTS
    assert err.splitlines() == [f"error: Hom system needs 36036009 unknowns, more than {limit}"]


def test_iso_command_yes(capsys, tmp_path, qcurve, qpoints):
    kp = mk.catalog_mf(qcurve, "point", qpoints[0])
    padded = mk.direct_sum_mf(kp, mk.trivial_mf(qcurve.ring, qcurve.f))
    a = write_mf(tmp_path, "a.json", padded)
    b = write_mf(tmp_path, "b.json", kp)
    code, payload, err = run_cli(capsys, "iso", a, b)
    assert code == 0
    assert payload["status"] == "yes"
    assert payload["forward"] is not None
    assert "seed:" in err


def test_iso_command_refuted(capsys, tmp_path, qcurve, qpoints):
    a = write_mf(tmp_path, "p.json", mk.catalog_mf(qcurve, "point", qpoints[0]))
    b = write_mf(tmp_path, "q.json", mk.catalog_mf(qcurve, "point", qpoints[1]))
    code, payload, err = run_cli(capsys, "iso", a, b)
    assert code == 1
    assert payload["status"] == "no"


def test_iso_command_inconclusive(capsys, tmp_path, qcurve, qpoints):
    kp = mk.catalog_mf(qcurve, "point", qpoints[0])
    kq = mk.catalog_mf(qcurve, "point", qpoints[1])
    a = write_mf(tmp_path, "pq.json", mk.direct_sum_mf(kp, kq))
    b = write_mf(tmp_path, "pp.json", mk.direct_sum_mf(kp, kp))
    code, payload, err = run_cli(capsys, "iso", a, b, "--samples", "20")
    assert code == 3
    assert payload["status"] == "inconclusive"


def test_iso_seed_env(capsys, tmp_path, qcurve, qpoints, monkeypatch):
    kp = mk.catalog_mf(qcurve, "point", qpoints[0])
    a = write_mf(tmp_path, "s1.json", kp)
    b = write_mf(tmp_path, "s2.json", kp)
    monkeypatch.setenv("MFKIT_SEED", "42")
    code, payload, err = run_cli(capsys, "iso", a, b)
    assert code == 0
    assert "seed: 42" in err


def test_iso_seed_flag_wins_over_env(capsys, tmp_path, qcurve, qpoints, monkeypatch):
    kp = mk.catalog_mf(qcurve, "point", qpoints[0])
    a = write_mf(tmp_path, "s1.json", kp)
    b = write_mf(tmp_path, "s2.json", kp)
    monkeypatch.setenv("MFKIT_SEED", "42")
    code, payload, err = run_cli(capsys, "iso", a, b, "--seed", "7")
    assert code == 0
    assert "seed: 7" in err and "seed: 42" not in err


def test_iso_non_integer_seed_env_is_input_error(capsys, tmp_path, qcurve, qpoints, monkeypatch):
    a = write_mf(tmp_path, "s.json", mk.catalog_mf(qcurve, "point", qpoints[0]))
    monkeypatch.setenv("MFKIT_SEED", "abc")
    code, payload, err = run_cli(capsys, "iso", a, a)
    assert code == 2
    assert payload is None
    assert "MFKIT_SEED" in err


# ---------------------------------------------------------------------------
# object functors


def test_transpose_twist_shift_commands(capsys, tmp_path, qcurve, qpoints):
    kp = mk.catalog_mf(qcurve, "point", qpoints[0])
    path = write_mf(tmp_path, "kp.json", kp)
    code, payload, _ = run_cli(capsys, "transpose", path)
    assert code == 0 and mk.verify_mf(mk.mf_from_dict(payload)) == []
    code, payload, _ = run_cli(capsys, "twist", path, "--n", "2")
    assert code == 0
    assert mk.mf_from_dict(payload) == mk.twist_mf(kp, 2)
    code, payload, _ = run_cli(capsys, "shift", path, "--k", "-1")
    assert code == 0
    assert mk.mf_from_dict(payload) == mk.shift_mf(kp, -1)


def test_picard_and_duality_commands(capsys, tmp_path, qcurve, qpoints):
    kp = mk.catalog_mf(qcurve, "point", qpoints[0])
    path = write_mf(tmp_path, "kp.json", kp)
    code, payload, _ = run_cli(capsys, "picard", path, "--sign", "-1")
    assert code == 0
    moved = mk.mf_from_dict(payload)
    assert mk.verify_mf(moved) == []
    # --sign 1 undoes --sign -1 up to a certified stable isomorphism
    moved_path = write_mf(tmp_path, "moved.json", moved)
    code, payload, _ = run_cli(capsys, "picard", moved_path, "--sign", "1")
    assert code == 0
    back = write_mf(tmp_path, "back.json", mk.mf_from_dict(payload))
    code, payload, _ = run_cli(capsys, "iso", back, path)
    assert code == 0 and payload["status"] == "yes"
    code, payload, _ = run_cli(capsys, "duality", path)
    assert code == 0
    D = mk.mf_from_dict(payload)
    assert mk.is_stably_isomorphic(D, mk.shift_mf(kp, -1)).status == "yes"


def test_ar_command(capsys, tmp_path, qcurve, qpoints):
    path = write_mf(tmp_path, "kp.json", mk.catalog_mf(qcurve, "point", qpoints[0]))
    code, payload, _ = run_cli(capsys, "ar", path)
    assert code == 0
    assert payload["doubling_ok"] is True
    # golden: the Hilbert functions do not depend on the route ar_middle takes
    assert payload["hilbert_coker"] == [1, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31]
    assert payload["hilbert_middle"] == [2, 8, 14, 20, 26, 32, 38, 44, 50, 56, 62]


def test_ar_command_on_a_non_brick(capsys, tmp_path, qcurve, qpoints):
    # k(p) ⊕ k(q) has a 2-dimensional Ext¹, so its middle is Hom(M*, E)
    kpq = mk.direct_sum_mf(mk.catalog_mf(qcurve, "point", qpoints[0]), mk.catalog_mf(qcurve, "point", qpoints[1]))
    code, payload, _ = run_cli(capsys, "ar", write_mf(tmp_path, "kpq.json", kpq))
    assert code == 0
    assert payload["doubling_ok"] is True


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ar", "{kp}", "--max-degree", "-1"], "must be >= 0"),
        (["iso", "{kp}", "{kp}", "--samples", "-1"], "must be >= 0"),
        (["ar", "{kp}", "--max-degree", "101"], "--max-degree must be <= 100, got 101"),
    ],
    ids=["ar", "iso", "ar-above-bound"],
)
def test_negative_count_flags_are_input_errors(monkeypatch, capsys, tmp_path, qcurve, qpoints, argv, message):
    kp = write_mf(tmp_path, "kp.json", mk.catalog_mf(qcurve, "point", qpoints[0]))

    def refuse(M, d):
        raise AssertionError(f"Hilbert function computed in degree {d}")

    # a broken bound fails as exit 70 at once instead of running the degree loop
    monkeypatch.setattr(mk.cli, "hilbert_function", refuse)
    code, payload, err = run_cli(capsys, *(a.format(kp=kp) for a in argv))
    assert code == 2
    assert payload is None
    assert message in err


@pytest.mark.parametrize(
    "tamper",
    [
        pytest.param(lambda d: d.update(alpha=[["X", "Y"], ["Z", "X"]]), id="alpha"),
        pytest.param(lambda d: d.update(p1_twists=[2, 3]), id="p1_twists"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["hom", "{bad}", "{good}"],
        ["hom", "{good}", "{bad}"],
        ["iso", "{good}", "{bad}"],
        ["ar", "{bad}"],
        ["transpose", "{bad}"],
        ["duality", "{bad}"],
        ["twist", "{bad}", "--n", "1"],
        ["shift", "{bad}", "--k", "1"],
        ["picard", "{bad}", "--sign", "1"],
    ],
    ids=["hom-source", "hom-target", "iso", "ar", "transpose", "duality", "twist", "shift", "picard"],
)
def test_commands_refuse_an_invalid_factorisation(capsys, tmp_path, qcurve, qpoints, tamper, argv):
    d = mk.mf_to_dict(mk.catalog_mf(qcurve, "point", qpoints[0]))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(d))
    tamper(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    code, payload, err = run_cli(capsys, *(a.format(good=good, bad=bad) for a in argv))
    assert code == 2
    assert payload is None
    assert f"invalid factorisation in {bad}" in err


@pytest.mark.parametrize("argv", [["picard", "--sign", "-1"], ["duality"], ["ar"]], ids=["picard", "duality", "ar"])
def test_curve_commands_refuse_a_two_variable_potential(capsys, tmp_path, argv):
    # a valid factorisation, but of a potential that is not a Weierstrass cubic in X, Y, Z
    d = {
        "ring": {"field": "QQ", "vars": ["X", "Y"]},
        "f": "X^3 + Y^3",
        "p0_twists": [1],
        "p1_twists": [0],
        "alpha": [["X + Y"]],
        "beta": [["X^2 - X*Y + Y^2"]],
    }
    path = tmp_path / "xy.json"
    path.write_text(json.dumps(d))
    assert run_cli(capsys, "verify", str(path))[0] == 0
    code, payload, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert payload is None
    assert "three variables" in err


def test_size_bound_command(capsys):
    code, payload, _ = run_cli(
        capsys, "size-bound", "--curve", "0", "1", "--lambda", "2", "--mu", "3"
    )
    assert code == 0
    assert payload["cone_rank"] in (5, 6)


def test_out_flag_writes_file(capsys, tmp_path, qcurve, qpoints):
    src = write_mf(tmp_path, "kp.json", mk.catalog_mf(qcurve, "point", qpoints[0]))
    out = tmp_path / "twisted.json"
    code = dispatch(["twist", src, "--n", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert mk.mf_from_dict(data) == mk.twist_mf(
        mk.catalog_mf(qcurve, "point", qpoints[0]), 1
    )


def test_out_flag_to_a_missing_directory_is_input_error(capsys, tmp_path, qcurve, qpoints):
    src = write_mf(tmp_path, "kp.json", mk.catalog_mf(qcurve, "point", qpoints[0]))
    out = tmp_path / "missing" / "twisted.json"
    code, payload, err = run_cli(capsys, "twist", src, "--n", "1", "--out", str(out))
    assert code == 2
    assert payload is None
    assert f"cannot write {out}" in err
    assert not out.parent.exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mfkit", "catalog", "--kind", "trivial"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload[0]["kind"] == "trivial"


def test_runtime_imports_only_the_standard_library():
    # the package and its CLI need nothing outside the standard library
    probe = (
        "import sys; before = set(sys.modules); import mfkit, mfkit.cli; "
        "print(sorted(n for n in set(sys.modules) - before "
        "if n.split('.')[0] not in sys.stdlib_module_names and n.split('.')[0] != 'mfkit'))"
    )
    src = str(Path(mk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_closed_stdout_pipe_exits_quietly(tmp_path, qcurve, qpoints):
    # like `mfkit transpose kp.json | head -c 0`: the reader is gone before
    # the envelope is written
    path = write_mf(tmp_path, "kp.json", mk.catalog_mf(qcurve, "point", qpoints[0]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mfkit", "transpose", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    # a fault of mfkit, not of the input: one line, exit 70, never 1
    # ("refuted") and never a traceback
    import mfkit.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_hom", broken)
    code, payload, err = run_cli(capsys, "hom", "a.json", "b.json")
    assert code == cli.EXIT_INTERNAL == 70
    assert payload is None
    assert err == "internal error: RuntimeError: boom\n"
