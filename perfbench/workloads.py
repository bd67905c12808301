"""The four workloads: their inputs, their ops and the checks on the ops' outputs.

A workload is built from the freshly imported package ``mk`` and the seed.
Every op builds what it works on from the workload's inputs, so no op reuses
a cache filled by an earlier one.  Checks use the independent arithmetic in
``check.py`` and properties the mathematics guarantees, never stored copies
of earlier outputs.
"""

from __future__ import annotations

import json
import random
from functools import partial
from typing import Callable, NamedTuple

from check import (
    MFData,
    certificate_problems,
    cokernel_hilbert,
    factorisation_problems,
)

SHIFTS = range(-3, 4)
MERSENNE = 2**31 - 1  # p ≡ 3 mod 4, so square roots are a single power


class Op(NamedTuple):
    key: str
    run: Callable[[], object]


def matrix_text(mat) -> str:
    return repr([[sorted(e.terms.items()) for e in row] for row in mat.entries])


def mf_text(M) -> str:
    return f"{M.p0}|{M.p1}|{matrix_text(M.alpha)}|{matrix_text(M.beta)}"


def point_key(pt) -> str:
    return "" if pt is None else f"@{pt.lam},{pt.mu}"


class Workload:
    """Ops plus ``digest`` (canonical text of one output) and ``check``."""

    name = ""
    # Passes a run makes at least.  Unscaled, one pass of hom or picard spread
    # 8-12 % from run to run, two about 5 %.
    min_passes = 2

    def digest(self, key: str, out) -> str:
        raise NotImplementedError

    def check(self, outputs: dict) -> tuple[dict, list]:
        """Problems of one pass's outputs: ({op key: [problem]}, [input problem])."""
        raise NotImplementedError

    def envelope_bytes(self, out) -> int:
        return 0


# --- catalog -----------------------------------------------------------------


def _catalog_op(mk, curve, kind, pt):
    M = mk.catalog_mf(curve, kind, pt)
    text = json.dumps(mk.catalog_entry_dict(kind, curve, pt, M))
    back = mk.mf_from_dict(json.loads(text))
    return M, text, back, mk.verify_mf(back)


class Catalog(Workload):
    """Every catalog kind at every affine point of y² = x³ + 1 over GF(101)."""

    name = "catalog"
    P = 101

    def __init__(self, mk, seed: int):
        self.curve = mk.default_curve(mk.Field(self.P))
        self.points = mk.rational_points(self.curve)
        tasks = [
            (kind, pt)
            for kind in mk.CATALOG_KINDS
            for pt in (self.points if kind in mk.POINT_KINDS else [None])
        ]
        random.Random(seed).shuffle(tasks)
        self.tasks = {kind + point_key(pt): (kind, pt) for kind, pt in tasks}
        self.ops = [Op(key, partial(_catalog_op, mk, self.curve, kind, pt)) for key, (kind, pt) in self.tasks.items()]

    def digest(self, key, out):
        return out[1]

    def envelope_bytes(self, out):
        return len(out[1].encode())

    def check(self, outputs):
        p = self.P
        inputs = []
        # p ≡ 2 mod 3 makes y² = x³ + 1 supersingular: p + 1 points with infinity
        coords = {(int(pt.lam), int(pt.mu)) for pt in self.points}
        if len(self.points) != p or len(coords) != p:
            inputs.append(f"expected {p} distinct affine points, got {len(self.points)}")
        inputs += [f"({x}, {y}) is not on the curve" for x, y in coords if (y * y - x**3 - 1) % p]
        problems = {}
        for key, (M, text, back, verify) in outputs.items():
            kind, pt = self.tasks[key]
            env = json.loads(text)
            found = [f"verify_mf: {m}" for m in verify]
            if env.get("verified") is not True or env.get("kind") != kind:
                found.append("envelope metadata is wrong")
            if env.get("point") != (None if pt is None else [str(pt.lam), str(pt.mu)]):
                found.append("envelope point is wrong")
            data = MFData.of(back)
            if data != MFData.of(M):
                found.append("parsed envelope differs from the built object")
            found += factorisation_problems(data)
            problems[key] = found
        return problems, inputs


# --- modules -----------------------------------------------------------------


def _residue(mk, curve):
    ring = curve.ring
    X, Y, Z = ring.gens()
    return mk.Presentation(ring, curve.f, [0], mk.GradedMatrix(ring, [0], [1, 1, 1], [[X, Y, Z]]))


def _point_module(mk, curve, pt):
    ring = curve.ring
    X, Y, Z = ring.gens()
    rel = mk.GradedMatrix(ring, [0], [1, 1], [[Y - Z.scale(pt.mu), X - Z.scale(pt.lam)]])
    return mk.Presentation(ring, curve.f, [0], rel)


def _resolve_residue(mk, curve):
    return mk.minimal_resolution(_residue(mk, curve), 5)


def _resolve_cokernel(mk, curve, kind, pt):
    return mk.minimal_resolution(mk.cokernel_module(mk.catalog_mf(curve, kind, pt)), 4)


def _extract_residue(mk, curve):
    return mk.extract_mf(_residue(mk, curve), "structure-sheaf")


def _extract_point(mk, curve, pt):
    return mk.extract_mf(_point_module(mk, curve, pt), "point")


def _almost_split(mk, curve, kind, pt):
    middle = mk.ar_middle(mk.catalog_mf(curve, kind, pt), curve)
    return middle, [mk.hilbert_function(middle, i) for i in range(11)]


def _periodicity_problems(twists, start: int) -> list[str]:
    """Over a hypersurface, F_{k+2} = F_k(-3) once k >= depth A - depth M."""
    return [
        f"twists at step {k + 2} are not those at step {k} plus 3"
        for k in range(start, len(twists) - 2)
        if sorted(twists[k + 2]) != sorted(t + 3 for t in twists[k])
    ]


class Modules(Workload):
    """Resolutions, extractions and almost-split middles over QQ."""

    name = "modules"
    # op_p50_ms falls among ~40 ms resolutions whose single times vary by a
    # quarter.  With two passes (the mean of two times per op) it spread 0.04
    # and 0.26 of its median in two sets of runs; the median of three rejects
    # one outlier per op.
    min_passes = 3

    def __init__(self, mk, seed: int):
        self.mk = mk
        self.curve = curve = mk.default_curve()
        # All five affine rational points in every pass: the cost of an op
        # over QQ depends on the point (ar_middle ranges over 3x), so drawing
        # points from the seed would make the spread across seeds one of inputs.
        self.points = mk.default_points(curve, 5)
        kinds = [k for k in mk.CATALOG_KINDS if k != "trivial"]
        objects = [
            (kind, pt)
            for kind in kinds
            for pt in (self.points if kind in mk.POINT_KINDS else [None])
        ]
        self.objects = {kind + point_key(pt): (kind, pt) for kind, pt in objects}
        ops = [Op("resolve:K", partial(_resolve_residue, mk, curve))]
        ops += [Op("resolve:" + key, partial(_resolve_cokernel, mk, curve, *o)) for key, o in self.objects.items()]
        # extraction op -> the catalog object its reduction must match in shape
        self.extracted = {"extract:K": ("structure-sheaf", None)}
        self.extracted.update({"extract:point" + point_key(pt): ("point", pt) for pt in self.points})
        ops += [Op("extract:K", partial(_extract_residue, mk, curve))]
        ops += [Op("extract:point" + point_key(pt), partial(_extract_point, mk, curve, pt)) for pt in self.points]
        ops += [Op("ar:" + key, partial(_almost_split, mk, curve, *o)) for key, o in self.objects.items()]
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def digest(self, key, out):
        if key.startswith("resolve:"):
            return repr(out.twists) + "".join(matrix_text(d) for d in out.diffs)
        if key.startswith("extract:"):
            return mf_text(out)
        return repr(out[0].ambient) + matrix_text(out[0].relations) + repr(out[1])

    def check(self, outputs):
        mk, curve = self.mk, self.curve
        problems = {}
        for key, out in outputs.items():
            task, _, what = key.partition(":")
            found = []
            if task == "resolve" and what == "K":
                if out.twists[:4] != [[0], [1, 1, 1], [2, 2, 2, 3], [3, 4, 4, 4]]:
                    found.append(f"residue field twists begin {out.twists[:4]}")
                found += _periodicity_problems(out.twists, 2)
                syz = mk.Presentation(curve.ring, curve.f, out.twists[2], out.diffs[2])
                found += [
                    f"first syzygy of (X, Y, Z) has h({i}) != {6 * i - 9}"
                    for i in range(2, 11)
                    if mk.hilbert_function(syz, i) != 6 * i - 9
                ]
            elif task == "resolve":
                found += _periodicity_problems(out.twists, 0)
            elif task == "extract":
                expected = mk.catalog_mf(curve, *self.extracted[key])
                found += factorisation_problems(MFData.of(out))
                red = mk.reduce_mf(out)
                if (sorted(red.p0), sorted(red.p1)) != (sorted(expected.p0), sorted(expected.p1)):
                    found.append(f"reduces to twists {red.p0}/{red.p1}, expected {expected.p0}/{expected.p1}")
            else:
                M = MFData.of(mk.catalog_mf(curve, *self.objects[what]))
                want = [2 * cokernel_hilbert(M, i) for i in range(11)]
                if out[1] != want:
                    found.append(f"middle Hilbert function {out[1]} is not twice the cokernel's {want}")
            problems[key] = found
        return problems, []


# --- hom -----------------------------------------------------------------------


def random_point(mk, curve, rng):
    """A uniformly drawn affine point of y² = x³ + 1 over GF(2^31 - 1)."""
    p = MERSENNE
    while True:
        lam = rng.randrange(p)
        rhs = (lam**3 + 1) % p
        mu = pow(rhs, (p + 1) // 4, p)
        if mu * mu % p == rhs:
            return mk.point_on(curve, lam, mu if rng.randrange(2) else -mu % p)


def _hom_profile(mk, M, N):
    return [mk.stable_hom_dim(M, N, shift=s) for s in SHIFTS]


class Hom(Workload):
    """Stable Hom profiles of all ordered pairs of 14 objects over GF(2^31 - 1)."""

    name = "hom"

    def __init__(self, mk, seed: int):
        curve = mk.default_curve(mk.Field(MERSENNE))
        rng = random.Random(seed)
        points = []
        while len(points) < 5:
            pt = random_point(mk, curve, rng)
            if all(pt.lam != q.lam for q in points):
                points.append(pt)
        objects = {
            kind: mk.catalog_mf(curve, kind, points[0] if kind in mk.POINT_KINDS else None)
            for kind in mk.CATALOG_KINDS
        }
        for i, pt in enumerate(points[1:], start=1):
            objects[f"point@{i}"] = mk.catalog_mf(curve, "point", pt)
        self.names = list(objects)
        self.point_objects = ["point", "point-e"] + [f"point@{i}" for i in range(1, 5)]
        pairs = [(a, b) for a in self.names for b in self.names]
        rng.shuffle(pairs)
        self.ops = [Op(f"{a}|{b}", partial(_hom_profile, mk, objects[a], objects[b])) for a, b in pairs]

    def digest(self, key, out):
        return repr(out)

    def check(self, outputs):
        prof = {tuple(key.split("|")): out for key, out in outputs.items()}
        problems = {key: [] for key in outputs}

        def flag(a, b, msg):
            problems[f"{a}|{b}"].append(msg)

        for (a, b), dims in prof.items():
            dual = prof.get((b, a))
            for i in range(-2, 3) if dual else ():
                # Serre duality on an elliptic curve: Hom(M[i], N) ≅ Hom(N[-1-i], M)^*
                if dims[i + 3] != dual[-1 - i + 3]:
                    flag(a, b, f"dim Hom(M[{i}], N) = {dims[i + 3]} but dim Hom(N[{-1 - i}], M) = {dual[-1 - i + 3]}")
            if a == b and a != "trivial" and dims != [0, 0, 1, 1, 0, 0, 0]:
                flag(a, b, f"simple object has self-profile {dims}, expected End = Ext^1 = k")
            zero = "trivial" in (a, b) or (a != b and a in self.point_objects and b in self.point_objects)
            if zero and any(dims):
                flag(a, b, f"profile {dims} should vanish")
        return problems, []


# --- picard ------------------------------------------------------------------


def _picard_round_trip(mk, curve, M, iso_seed):
    down = mk.picard_tensor(M, -1, curve)
    back = mk.picard_tensor(down, +1, curve)
    return down, back, mk.is_stably_isomorphic(back, M, seed=iso_seed)


def _iso_problems(res, source, target, trivial: bool) -> list[str]:
    """A "yes" whose certificate joins the reduced models of source and target.

    Picard images come out reduced and catalog objects are reduced, except the
    trivial object, whose unit entry splits it down to zero.
    """
    if res.status != "yes" or res.forward is None or res.backward is None:
        return [f"isomorphism status {res.status}: {res.reason}"]
    found = certificate_problems(res.forward, res.backward)
    for name, side, obj in (("source", res.forward.source, source), ("target", res.forward.target, target)):
        if trivial:
            if side.rank != 0:
                found.append(f"certificate {name} should be the zero object")
        elif MFData.of(side) != MFData.of(obj):
            found.append(f"certificate {name} is not the {name} object")
    return found


class Picard(Workload):
    """Degree -1 then +1 Picard twists and an iso search, every kind over QQ."""

    name = "picard"

    def __init__(self, mk, seed: int):
        self.mk = mk
        self.curve = curve = mk.default_curve()
        # Fixed at (0, 1): a pass over QQ takes 14 s at (0, ±1) but 73 s at
        # (2, ±3), so a seeded point would swamp the run-to-run spread.
        pt = mk.default_points(curve, 1)[0]
        self.objects = {
            kind: mk.catalog_mf(curve, kind, pt if kind in mk.POINT_KINDS else None)
            for kind in mk.CATALOG_KINDS
        }
        rng = random.Random(seed)
        kinds = list(self.objects)
        rng.shuffle(kinds)
        self.iso_seeds = {kind: rng.randrange(2**31) for kind in kinds}
        self.ops = [
            Op(kind, partial(_picard_round_trip, mk, curve, self.objects[kind], self.iso_seeds[kind]))
            for kind in kinds
        ]

    def digest(self, key, out):
        down, back, res = out
        cert = [] if res.forward is None else [res.forward.f0, res.forward.f1, res.backward.f0, res.backward.f1]
        return mf_text(down) + mf_text(back) + res.status + "".join(matrix_text(m) for m in cert)

    def check(self, outputs):
        problems = {}
        for kind, (down, back, res) in outputs.items():
            M = self.objects[kind]
            found = factorisation_problems(MFData.of(down)) + factorisation_problems(MFData.of(back))
            found += _iso_problems(res, back, M, kind == "trivial")
            if kind in ("point", "point-e"):
                # O(-p) ⊗ k(q) ≅ k(q): the Picard action fixes skyscraper sheaves
                again = self.mk.is_stably_isomorphic(down, M, seed=self.iso_seeds[kind])
                found += [f"picard(-1) of a point: {m}" for m in _iso_problems(again, down, M, False)]
            problems[kind] = found
        return problems, []


WORKLOADS = {w.name: w for w in (Catalog, Modules, Hom, Picard)}
