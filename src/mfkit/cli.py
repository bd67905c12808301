"""Command-line front end: thin wrappers over the library with JSON
envelopes on stdout (or --out) and human-readable notes on stderr.

Exit codes: 0 success, 1 verification failure or isomorphism refutation,
2 input error, 3 inconclusive isomorphism search, 70 internal error (an
exception that is not an MFKitError: a fault of mfkit, reported in one line),
141 standard output closed before the envelope was written (the shell's code
for SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import (
    CATALOG_KINDS,
    POINT_KINDS,
    ar_middle,
    catalog_mf,
    curve_new,
    default_points,
    duality_image,
    picard_tensor,
    point_on,
    rational_points,
    size_bound_check,
)
from .errors import InputError, MFKitError, ParseError
from .homs import cone_mf, hom_space, reduce_mf, is_stably_isomorphic
from .io import (
    catalog_entry_dict,
    mf_from_dict,
    mf_to_dict,
    morphism_from_dict,
    morphism_to_dict,
    parse_field_token,
    presentation_from_dict,
    presentation_to_dict,
)
from .mf import (
    assert_valid_mf,
    cokernel_module,
    detect_periodicity,
    extract_mf,
    shift_mf,
    transpose_mf,
    twist_mf,
    verify_mf,
)
from .resolutions import Presentation, hilbert_function, minimal_resolution
from .poly import GradedMatrix, format_poly

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 70  # EX_SOFTWARE of sysexits.h
EXIT_PIPE = 141

# `ar` compares Hilbert functions in every degree up to --max-degree: the
# work grows about as d^3 and the monomials of each degree stay cached for
# the life of the process, so larger degrees are refused.  Criterion 10 uses
# 10; on the GF(101) point object, 100 takes 2.7 s and 29 MB (Python 3.11).
MAX_AR_DEGREE = 100

# `catalog --all-points` tabulates the squares mod p and enumerates every
# affine point when a point kind is asked for, so larger primes are refused
# first.  At GF(10007), `--kind point` writes 10,007 entries in 4.0 s and
# 101 MB, `--kind all` 40,034 in 19.4 s and 374 MB (Python 3.11).
MAX_POINT_PRIME = 10_007


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(payload, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        print(text)
        sys.stdout.flush()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_mf(path: str):
    """The factorisation in the envelope at path, checked: one that fails
    the factorisation axioms raises ValidationError (exit 2)."""
    M = mf_from_dict(_load_json(path))
    assert_valid_mf(M, f"factorisation in {path}")
    return M


def _seed_from(args) -> int:
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    else:
        env = os.environ.get("MFKIT_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError as exc:
            raise ParseError(f"MFKIT_SEED must be an integer, not {env!r}") from exc
    _say(f"seed: {seed}")
    return seed


def _curve_from_args(args):
    field = parse_field_token(getattr(args, "field", None) or "QQ")
    a, b = getattr(args, "curve", None) or ("0", "1")
    return curve_new(field, a, b)


def _module_from_args(args) -> Presentation:
    spec = args.module
    if len(spec) == 1 and spec[0].upper() == "K":
        curve = _curve_from_args(args)
        ring = curve.ring
        X, Y, Z = ring.gens()
        rel = GradedMatrix(ring, [0], [1, 1, 1], [[X, Y, Z]])
        return Presentation(ring, curve.f, [0], rel)
    if spec[0].lower() == "point":
        if len(spec) != 3:
            raise ParseError("--module point needs two coordinates: point λ μ")
        curve = _curve_from_args(args)
        pt = point_on(curve, spec[1], spec[2])
        ring = curve.ring
        X, Y, Z = ring.gens()
        rel = GradedMatrix(
            ring, [0], [1, 1], [[Y - Z.scale(pt.mu), X - Z.scale(pt.lam)]]
        )
        return Presentation(ring, curve.f, [0], rel)
    path = spec[1] if spec[0].lower() == "file" and len(spec) > 1 else spec[0]
    return presentation_from_dict(_load_json(path))


def _matrix_dict(mat) -> dict:
    return {
        "target_twists": list(mat.target_twists),
        "source_twists": list(mat.source_twists),
        "entries": [[format_poly(e) for e in row] for row in mat.entries],
    }


def cmd_verify(args) -> int:
    M = mf_from_dict(_load_json(args.file))
    problems = verify_mf(M)
    _emit({"valid": not problems, "violations": problems}, args.out)
    if problems:
        for p in problems:
            _say(p)
        return EXIT_FAIL
    _say("factorisation verified")
    return EXIT_OK


def cmd_resolve(args) -> int:
    P = _module_from_args(args)
    res = minimal_resolution(P, args.length)
    period = detect_periodicity(res)
    payload = {
        "length": res.length,
        "twists": [list(t) for t in res.twists],
        "differentials": [_matrix_dict(d) for d in res.diffs],
        "periodicity": None if period is None else period[0],
    }
    if period is not None:
        payload["periodic_pair"] = mf_to_dict(period[1])
    _emit(payload, args.out)
    _say(f"resolved to length {res.length}; twists {payload['twists']}")
    return EXIT_OK


def cmd_extract(args) -> int:
    P = _module_from_args(args)
    M = extract_mf(P, args.mode, args.step)
    _emit(mf_to_dict(M), args.out)
    _say(f"extracted a rank-{M.rank} factorisation (mode {args.mode})")
    return EXIT_OK


def cmd_catalog(args) -> int:
    curve = _curve_from_args(args)
    kinds = list(CATALOG_KINDS) if args.kind == "all" else [args.kind.replace("_", "-")]
    for kind in kinds:
        if kind not in CATALOG_KINDS:
            raise ParseError(f"unknown catalog kind {kind!r}")
    points = None
    if args.all_points:
        if any(kind in POINT_KINDS for kind in kinds):
            if curve.field.char > MAX_POINT_PRIME:
                raise InputError(f"--all-points needs a prime of at most {MAX_POINT_PRIME}, got {curve.field.char}")
            points = rational_points(curve)
    elif getattr(args, "lam", None) is not None or getattr(args, "mu", None) is not None:
        if args.lam is None or args.mu is None:
            raise ParseError("--lambda and --mu must be given together")
        points = [point_on(curve, args.lam, args.mu)]
    tasks = []
    for kind in kinds:
        if kind in POINT_KINDS:
            if points is None:
                raise ParseError(f"catalog kind {kind!r} needs --lambda/--mu or --all-points")
            tasks.extend((kind, pt) for pt in points)
        else:
            tasks.append((kind, None))
    entries = [catalog_entry_dict(kind, curve, pt, catalog_mf(curve, kind, pt)) for kind, pt in tasks]
    _emit(entries, args.out)
    bad = sum(1 for e in entries if not e["verified"])
    _say(f"catalog: {len(entries)} entries, {bad} failed verification")
    return EXIT_FAIL if bad else EXIT_OK


def cmd_cone(args) -> int:
    phi = morphism_from_dict(_load_json(args.file))
    # cone_mf's alpha-square check holds only between factorisations of one f
    assert_valid_mf(phi.source, f"source factorisation in {args.file}")
    assert_valid_mf(phi.target, f"target factorisation in {args.file}")
    C = cone_mf(phi)
    if args.reduce:
        C = reduce_mf(C)
    _emit(mf_to_dict(C), args.out)
    _say(f"cone has rank {C.rank}")
    return EXIT_OK


def cmd_hom(args) -> int:
    M = _load_mf(args.source)
    N = _load_mf(args.target)
    space = hom_space(shift_mf(M, args.shift), N)
    payload = {
        "shift": args.shift,
        "strict_dim": space.strict_dim,
        "boundary_rank": space.boundary_rank,
        "stable_dim": space.stable_dim,
    }
    _emit(payload, args.out)
    _say(
        f"Hom(M[{args.shift}], N): strict {space.strict_dim}, "
        f"null-homotopic {space.boundary_rank}, stable {space.stable_dim}"
    )
    return EXIT_OK


def _non_negative(flag: str, value: int) -> None:
    if value < 0:
        raise InputError(f"{flag} must be >= 0, got {value}")


def cmd_iso(args) -> int:
    _non_negative("--samples", args.samples)
    M = _load_mf(args.left)
    N = _load_mf(args.right)
    seed = _seed_from(args)
    res = is_stably_isomorphic(M, N, seed=seed, samples=args.samples)
    payload = {"status": res.status, "reason": res.reason}
    if res.status == "yes":
        payload["forward"] = morphism_to_dict(res.forward)
        payload["backward"] = morphism_to_dict(res.backward)
    _emit(payload, args.out)
    _say(f"{res.status}: {res.reason}")
    if res.status == "yes":
        return EXIT_OK
    if res.status == "no":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def cmd_ar(args) -> int:
    _non_negative("--max-degree", args.max_degree)
    if args.max_degree > MAX_AR_DEGREE:
        raise InputError(f"--max-degree must be <= {MAX_AR_DEGREE}, got {args.max_degree}")
    M = _load_mf(args.file)
    middle = ar_middle(M)
    cok = cokernel_module(reduce_mf(M))
    degrees = list(range(args.max_degree + 1))
    hf_mid = [hilbert_function(middle, i) for i in degrees]
    hf_cok = [hilbert_function(cok, i) for i in degrees]
    ok = all(m == 2 * c for m, c in zip(hf_mid, hf_cok))
    payload = {
        "middle": presentation_to_dict(middle),
        "degrees": degrees,
        "hilbert_middle": hf_mid,
        "hilbert_coker": hf_cok,
        "doubling_ok": ok,
    }
    _emit(payload, args.out)
    _say(f"almost-split middle Hilbert doubling: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_FAIL


# Commands that apply one function to one envelope: name, help, the
# function's int option and its choices (or None), and the function.
_ENVELOPE_MAPS = (
    ("transpose", "transpose of a factorisation envelope", None, None, transpose_mf),
    ("duality", "duality of a factorisation envelope", None, None, duality_image),
    ("twist", "grading twist (n)", "n", None, twist_mf),
    ("shift", "suspension [k]", "k", None, shift_mf),
    ("picard", "Picard action by ±1", "sign", [1, -1], picard_tensor),
)


def cmd_envelope_map(args) -> int:
    M = _load_mf(args.file)
    extra = () if args.option is None else (getattr(args, args.option),)
    _emit(mf_to_dict(args.map(M, *extra)), args.out)
    return EXIT_OK


def cmd_size_bound(args) -> int:
    curve = _curve_from_args(args)
    pt = point_on(curve, args.lam, args.mu)
    report = size_bound_check(curve, pt)
    payload = {
        "hom_dim": report.hom_dim,
        "cone_rank": report.cone_rank,
        "within_bounds": report.within_bounds,
        "cone": mf_to_dict(report.cone),
    }
    _emit(payload, args.out)
    _say(
        f"stable hom dim {report.hom_dim}, reduced cone rank {report.cone_rank}: "
        f"{'ok' if report.within_bounds else 'OUT OF BOUNDS'}"
    )
    return EXIT_OK if report.within_bounds else EXIT_FAIL


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON payload to this path instead of stdout")


def _add_curve_field(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field", default="QQ", help="ground field: QQ, GF(101), Fp:101, ...")
    p.add_argument("--curve", nargs=2, metavar=("A", "B"), help="Weierstrass coefficients a b")


def _add_module(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--module",
        nargs="+",
        required=True,
        metavar="SPEC",
        help="K | point λ μ | [file] path.json",
    )
    _add_curve_field(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfkit",
        description="Graded matrix factorisations of Weierstrass cone potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the factorisation axioms of an envelope")
    p.add_argument("file")
    _add_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("resolve", help="minimal free resolution of a module")
    _add_module(p)
    p.add_argument("--length", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("extract", help="stabilise a module into a factorisation")
    _add_module(p)
    p.add_argument(
        "--mode", required=True, choices=["point", "structure-sheaf", "structure_sheaf", "raw"]
    )
    p.add_argument("--step", type=int, help="periodic step (raw mode only)")
    _add_out(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("catalog", help="export verified catalog factorisations")
    _add_curve_field(p)
    p.add_argument("--kind", required=True, help="catalog kind or 'all'")
    p.add_argument("--lambda", dest="lam", help="point x-coordinate")
    p.add_argument("--mu", dest="mu", help="point y-coordinate")
    p.add_argument("--all-points", action="store_true", help="enumerate all affine points (finite fields)")
    _add_out(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("cone", help="mapping cone of a strict morphism envelope")
    p.add_argument("file")
    p.add_argument("--reduce", action="store_true", help="also split off trivial summands")
    _add_out(p)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("hom", help="stable Hom dimensions between two factorisations")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--shift", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("iso", help="decide stable isomorphism with a certificate")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--seed", type=int, help="search seed (default MFKIT_SEED or 0)")
    p.add_argument("--samples", type=int, default=1000)
    _add_out(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("ar", help="almost-split middle term and Hilbert doubling")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=10)
    _add_out(p)
    p.set_defaults(func=cmd_ar)

    for name, help_text, option, choices, fn in _ENVELOPE_MAPS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        if option is not None:
            p.add_argument(f"--{option}", type=int, required=True, choices=choices)
        _add_out(p)
        p.set_defaults(func=cmd_envelope_map, map=fn, option=option)

    p = sub.add_parser("size-bound", help="reduced cone size window at a point")
    _add_curve_field(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", dest="mu", required=True)
    _add_out(p)
    p.set_defaults(func=cmd_size_bound)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MFKitError as exc:
        _say(f"error: {exc}")
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # interpreter's final flush of what is left in the buffer is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except Exception as exc:
        # never 1 ("refuted") and never a traceback
        _say(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
