"""Command-line front end.

Every library operation is exposed as a subcommand emitting JSON (or CSV
for growth tables).  Exit codes: 0 success, 1 a verification suite found
violations, 2 usage or parse errors, an unwritable output file or a
recursion deeper than Python allows, 3 a growth table or a verification
suite did not complete (a ball hit the element budget, or an element had
more minimal words than a suite keeps).
Reports carry a header block (tool version, canonical sequence, budget,
seed) and reruns with equal headers are byte-identical.

``main`` checks the shared options once into a ``RunConfig``.  A
subcommand that reports on one word or sequence returns only its fields,
and ``main`` adds the header and writes the report; ``growth`` and
``verify`` write their own output and return their exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from hashlib import sha256
from typing import Optional

from . import __version__
from .omega import (
    OmegaKind,
    OmegaParseError,
    OmegaSpec,
    classify,
    first_third_symbol_index,
    parse_omega,
    symbol_at,
)
from .words import (
    _LETTER_TEXT,
    REFERENCE_PRODUCTS,
    WordParseError,
    parse_letters,
    reduce,
    render_letters,
)
from .elements import (
    IDENTITY_TABLE,
    TABLE_DEPTH_MAX,
    Element,
    all_generators,
    act,
    decompose,
    equal,
    generator,
    is_identity,
    level_table,
    order_bounded,
    portrait,
    sections,
)
from . import growth as gr

EQ2_LEFT_COORDINATES = {
    # letter index 1..7 -> swap side per symbol ("a") or trivial side ("1")
    0: {1: "a", 2: "a", 3: "1", 4: "a", 5: "1", 6: "1", 7: "a"},
    1: {1: "a", 2: "1", 3: "a", 4: "a", 5: "1", 6: "a", 7: "1"},
    2: {1: "1", 2: "a", 3: "a", 4: "a", 5: "a", 6: "1", 7: "1"},
}


@dataclass
class RunConfig:
    omega: Optional[OmegaSpec]
    budget: int
    seed: int
    epsilon: Optional[Fraction] = None
    delta: Optional[Fraction] = None

    def header(self) -> dict:
        return {
            "tool": f"overgrowth {__version__}",
            "omega": str(self.omega) if self.omega else None,
            "budget": self.budget,
            "seed": self.seed,
        }


def _json_text(payload: dict) -> str:
    # NaN and Infinity are not JSON: a report holding one fails loudly.
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(payload: dict, path: Optional[str]) -> None:
    text = _json_text(payload)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _fmt_exp(log_value: float) -> str:
    """``_fmt(math.exp(log_value))``, taken in ``decimal`` past float range."""
    try:
        return _fmt(math.exp(log_value))
    except OverflowError:
        return f"{Context(prec=12).exp(Decimal(log_value)).normalize():g}"


def _fraction(text: Optional[str], name: str) -> Optional[Fraction]:
    """The exact value of a fraction option, None when it is not given."""
    if not text:
        return None
    try:
        value = Fraction(text)
        float(value)  # the reports print it as a float
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{name} must be a fraction a float can hold, got {text!r}") from None
    return value


def _config(args) -> RunConfig:
    omega = parse_omega(args.omega) if getattr(args, "omega", None) else None
    if args.budget < 1:
        raise ValueError("budget must be at least 1")
    eps = _fraction(getattr(args, "epsilon", None), "epsilon")
    if eps is not None and not 0 < eps < Fraction(1, 2):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    delta = _fraction(getattr(args, "delta", None), "delta")
    if delta is not None and not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    return RunConfig(omega, args.budget, getattr(args, "seed", 0) or 0, eps, delta)


def _element(args, cfg: RunConfig, text: str) -> Element:
    return Element.from_text(text, cfg.omega, args.shift)


def cmd_classify(args, cfg: RunConfig) -> dict:
    cls = classify(cfg.omega)
    return {
        "class": cls.kind.value,
        "star_window": cls.star_window,
        "two_symbol": cls.two_symbol,
    }


def cmd_reduce(args, cfg: RunConfig) -> dict:
    receipt = reduce(parse_letters(args.word))
    return {"word": render_letters(receipt.word), "alpha": receipt.contractions}


def cmd_equal(args, cfg: RunConfig) -> dict:
    return {"equal": equal(_element(args, cfg, args.w1), _element(args, cfg, args.w2))}


def cmd_identity(args, cfg: RunConfig) -> dict:
    return {"identity": is_identity(_element(args, cfg, args.word))}


def cmd_act(args, cfg: RunConfig) -> dict:
    return {"image": act(_element(args, cfg, args.word), args.vertex)}


def cmd_sections(args, cfg: RunConfig) -> dict:
    left, right = sections(_element(args, cfg, args.word))
    return {
        "left": render_letters(left.word),
        "right": render_letters(right.word),
        "shift": left.shift,
    }


def cmd_portrait(args, cfg: RunConfig) -> dict:
    # Its 2^depth - 1 labels fit the budget while 2^depth <= budget + 1.
    if args.depth >= (cfg.budget + 1).bit_length():
        raise ValueError(
            f"a portrait to depth {args.depth} has 2^{args.depth} - 1 labels, "
            f"more than the budget of {cfg.budget}"
        )
    pic = portrait(_element(args, cfg, args.word), args.depth)
    return {"depth": pic.depth, "labels": pic.labels}


def cmd_order(args, cfg: RunConfig) -> dict:
    k = order_bounded(_element(args, cfg, args.word), args.max_order)
    return {"order": k, "max_order": args.max_order, "exceeded": k is None}


def _growth_rows(table: gr.BallTable, curve_eps: Fraction) -> list[dict]:
    gam = table.gamma()
    n_top = table.radius
    lo, up = {}, {}
    if n_top >= 3:
        lo, up = gr.bound_curves(range(2, n_top + 1), curve_eps)
    rows = []
    for n in range(n_top + 1):
        rows.append(
            {
                "n": n,
                "sphere": len(table.strata[n]),
                "gamma": gam[n],
                "gamma_root": _fmt(gam[n] ** (1.0 / n)) if n >= 1 else "",
                "lower_curve": _fmt_exp(lo[n]) if n in lo else "",
                "upper_curve": _fmt_exp(up[n]) if n in up else "",
            }
        )
    return rows


# Ids per bulk pass of ``_export_sphere``.
_EXPORT_CHUNK = 1024
_HASH_FIELD = b'"portrait_hash": "'
_WORD_FIELD = b'"word": "'


def _export_sphere(export, table: gr.BallTable, sphere: range, depth: int) -> None:
    """Write the ``--export-ball`` lines of one sphere of ``table`` to the
    binary file ``export``.

    They are the bytes of json.dumps(record, sort_keys=True): every field
    is an int or an ASCII string that needs no escaping.  A chunk of ids
    at a time, the table packs their portrait records, each record is
    hashed once, and 8 strided slices of the joined digests give their
    first 8 bytes for one ``hex``.  A sphere's words have one length, so
    ids of one number of digits make lines of one width: each such run is
    a template line repeated, with the id digits, hash digits and letter
    names written in a column at a time by strided slice assignment (the
    letters a line at a time when the run has fewer lines than letters),
    and goes out in one write.
    """
    if not sphere:
        return
    n = len(table.entries[sphere.start])
    for start in range(sphere.start, sphere.stop, _EXPORT_CHUNK):
        stop = min(start + _EXPORT_CHUNK, sphere.stop)
        records = table.portrait_records(table.keys[start:stop], depth)
        width = len(records) // (stop - start)
        digests = b"".join([
            sha256(records[i : i + width].lstrip(b"\0") or b"\0").digest()
            for i in range(0, len(records), width)
        ])
        prefixes = bytearray(8 * (stop - start))
        for j in range(8):
            prefixes[j::8] = digests[j::32]
        hashes = prefixes.hex().encode()
        letters = b"".join(table.entries[start:stop]).translate(_LETTER_TEXT)
        # Split the chunk into runs at powers of ten.
        lo = start
        while lo < stop:
            digits = len(str(lo))
            hi = min(stop, 10**digits)
            line = b'{"id": %s, "length": %d, %s%s", %s%s"}\n' % (
                b"0" * digits, n, _HASH_FIELD, b"0" * 16, _WORD_FIELD, b" ".join([b"a"] * n)
            )
            size = len(line)
            hash_at = line.index(_HASH_FIELD) + len(_HASH_FIELD)
            word_at = line.index(_WORD_FIELD) + len(_WORD_FIELD)
            lines = bytearray(line) * (hi - lo)
            ids = "".join(map(str, range(lo, hi))).encode()
            for k in range(digits):
                lines[len(b'{"id": ') + k :: size] = ids[k::digits]
            i, j = lo - start, hi - start
            for k in range(16):
                lines[hash_at + k :: size] = hashes[16 * i + k : 16 * j : 16]
            if n <= j - i:
                for k in range(n):
                    lines[word_at + 2 * k :: size] = letters[n * i + k : n * j : n]
            else:
                # Fewer lines than letters: a line at a time.
                for row, at in enumerate(range(word_at, len(lines), size), start=i):
                    lines[at : at + 2 * n : 2] = letters[n * row : n * row + n]
            export.write(lines)
            lo = hi


def cmd_growth(args, cfg: RunConfig) -> int:
    # Bad input fails before the output files are created (the table checks
    # the radius and the shift), and the files are opened before the ball
    # is built, so a bad path fails at once.  Opening one file twice would
    # truncate it twice, and the report would overwrite the export.
    paths = (args.output, args.export_ball)
    if all(paths) and (os.path.samefile(*paths) if all(map(os.path.exists, paths))
                       else len(set(map(os.path.realpath, paths))) == 1):
        raise ValueError("--output and --export-ball name one file")
    table = gr.BallTable(cfg.omega, args.shift, args.radius)
    curve_eps = _fraction(args.curve_epsilon, "curve epsilon")
    # bound_curves takes its float, which an exact tiny value underflows.
    if curve_eps is None or float(curve_eps) <= 0:
        raise ValueError("curve epsilon must be positive")
    with ExitStack() as files:
        export = (
            files.enter_context(open(args.export_ball, "wb"))
            if args.export_ball
            else None
        )
        out = (
            files.enter_context(open(args.output, "w", encoding="utf-8"))
            if args.output
            else sys.stdout
        )
        # Once sphere n is complete, sphere n - 1 goes (the loop reads it
        # no more) and sphere n's export lines go out.  A budget stop drops
        # the unfinished sphere unexported.
        depth = gr.export_portrait_depth(args.radius)
        for n, sphere in enumerate(gr.grow_ball(table, cfg.budget)):
            if n:
                table.drop_sphere(n - 1)
            if export:
                _export_sphere(export, table, sphere, depth)
        rows = _growth_rows(table, curve_eps)
        header = cfg.header()
        header["radius"] = table.radius
        header["complete"] = table.complete
        if args.format == "json":
            out.write(_json_text({"header": header, "rows": rows}))
        else:
            lines = [f"# {k}: {v}" for k, v in sorted(header.items())]
            lines.append("n,sphere,gamma,gamma_root,lower_curve,upper_curve")
            for r in rows:
                lines.append(
                    f"{r['n']},{r['sphere']},{r['gamma']},{r['gamma_root']},"
                    f"{r['lower_curve']},{r['upper_curve']}"
                )
            out.write("\n".join(lines) + "\n")
    return 0 if table.complete else 3


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_eq1(omega: OmegaSpec) -> dict:
    violations = []
    seen_pairs = set()
    for n1, n2, prod in REFERENCE_PRODUCTS:
        (k1,), (k2,), (kp,) = map(parse_letters, (n1, n2, prod))
        seen_pairs.add(frozenset((k1, k2)))
        # Through reduce, which every parsed word and every product goes through.
        if {reduce(bytes(pair)).word for pair in ((k1, k2), (k2, k1))} != {bytes((kp,))}:
            violations.append({"pair": f"{n1}{n2}", "expected": prod})
    if len(seen_pairs) != 21:
        violations.append({"pair": "coverage", "expected": "21 distinct pairs"})
    for k in range(1, 8):
        if reduce(bytes((k, k))).word:
            violations.append({"pair": f"{k}{k}", "expected": "identity"})
    # On the action: the word g g reduces to the empty word before any
    # section is looked at.
    for g in all_generators(omega):
        t = level_table(g, TABLE_DEPTH_MAX)
        if t.translate(t) != IDENTITY_TABLE:
            violations.append({"pair": render_letters(g.word) * 2, "expected": "identity"})
    return {"checks": 21 + 7 + 8, "violations": violations}


def _suite_eq2(cfg: RunConfig) -> dict:
    matrix = (
        [cfg.omega]
        if cfg.omega
        else [parse_omega(s) for s in ("(012)", "(01)", "(0)", "(2)", "01(2)")]
    )
    violations = []
    checks = 0
    for omega in matrix:
        syms = [symbol_at(omega, n) for n in range(1, 6)]  # levels 1 to 5
        for k in range(8):
            g = generator(k, omega)
            d = decompose(g)
            checks += 1
            if k == 0:
                structural = d.top_swap and d.left.length == 0 and d.right.length == 0
            else:
                want_left = b"\0" if EQ2_LEFT_COORDINATES[syms[0]][k] == "a" else b""
                structural = (
                    not d.top_swap
                    and d.left.word == want_left
                    and d.right.word == bytes((k,))
                )
            if not structural:
                violations.append({"omega": str(omega), "letter": k, "kind": "structure"})
                continue
            # Equation (2) to level 6: a flips the first bit, and a spine letter
            # flips the first bit of u on 1^j 0 u when its level-(j + 1) left
            # coordinate is a (j < 5, so u is nonempty); it fixes 1^6.
            for i, got in enumerate(level_table(g, 6)[:64]):
                v = format(i, "06b")
                j = (v + "0").index("0")
                swap = k > 0 and j < 5 and EQ2_LEFT_COORDINATES[syms[j]][k] == "a"
                flip = 32 if k == 0 else (16 >> j if swap else 0)
                if got != i ^ flip:
                    violations.append(
                        {"omega": str(omega), "letter": k, "vertex": v, "kind": "action"}
                    )
    return {"checks": checks, "violations": violations}


def _suite_lemma4() -> dict:
    violations = []

    def expect(omega_text: str, left: str, right: str, same: bool = True):
        omega = parse_omega(omega_text)
        g = Element.from_text(left, omega)
        h = Element.from_text(right, omega)
        if equal(g, h) != same:
            violations.append({"omega": omega_text, "pair": f"{left} vs {right}"})

    expect("(01)", "b", "x")
    expect("(0)", "d", "")
    expect("(0)", "b", "c")
    expect("(0)", "b", "x")
    expect("(0)", "B", "")
    expect("(0)", "C", "")
    expect("(0)", "D", "x")
    return {"checks": 7, "violations": violations}


def _suite_prop6(cfg: RunConfig, radius: int) -> dict:
    targets = (
        [cfg.omega]
        if cfg.omega
        else [parse_omega(s) for s in ("(0)", "(1)", "(2)", "01(2)")]
    )
    reps = {}
    for omega in targets:
        deg_radius = radius if len(omega.preperiod) == 0 else min(radius, 10)
        reps[str(omega)] = gr.prop6_check(omega, radius, cfg.budget, degree_radius=deg_radius)
    return {
        "checks": len(targets),
        "violations": [v for rep in reps.values() for v in rep["violations"]],
        "radius": min(rep["radius"] for rep in reps.values()),
        "complete": all(rep["complete"] for rep in reps.values()),
        "detail": {
            text: {"collapsed_set": rep["collapsed_set"], "degree_estimate": rep["degree_estimate"]}
            for text, rep in reps.items()
        },
    }


# The ball suites share one ball and run last, so it is not alive while
# prop6 builds its balls; reports sort their keys, so run order never shows.
_BALL_SUITES = ("lemma3", "lemma8", "lemma11")
_SUITES = ("eq1", "eq2", "lemma4", "lemma9", "prop6") + _BALL_SUITES


def _inapplicable(name: str, cfg: RunConfig, omega: OmegaSpec) -> Optional[str]:
    """Why a suite cannot run on the requested sequence, or None."""
    if name == "lemma11" and first_third_symbol_index(omega) is None:
        return "sequence never shows all three symbols"
    if name == "prop6" and cfg.omega and classify(cfg.omega).kind is not OmegaKind.OMEGA2:
        return "sequence must be eventually constant"
    return None


def cmd_verify(args, cfg: RunConfig) -> int:
    names = _SUITES if args.suite == "all" else (args.suite,)
    radius = 8 if args.radius is None else args.radius
    k_max = 14 if args.kmax is None else args.kmax
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if k_max < 1:
        raise ValueError("kmax must be at least 1")
    # One spec, and so one identity memo, for every suite on the default
    # sequence.
    omega = cfg.omega or parse_omega("(012)")
    reasons = {name: _inapplicable(name, cfg, omega) for name in names}
    if args.suite != "all" and reasons[args.suite]:
        # A suite named alone that cannot run is bad input.
        raise ValueError(reasons[args.suite])
    table = None  # the (omega, shift 0, radius) ball of the ball suites
    runners = {
        "eq1": lambda: _suite_eq1(omega),
        "eq2": lambda: _suite_eq2(cfg),
        "lemma3": lambda: gr.lemma3_check(table, cfg.budget),
        "lemma4": _suite_lemma4,
        "lemma8": lambda: gr.lemma8_check(table, cfg.epsilon or Fraction(1, 10)),
        "lemma9": lambda: gr.lemma9_report(cfg.delta or Fraction(3, 10), k_max),
        "lemma11": lambda: gr.lemma11_check(table, cfg.epsilon or Fraction(8, 25)),
        "prop6": lambda: _suite_prop6(cfg, 20 if args.radius is None else radius),
    }
    suites = {}
    total_violations = 0
    incomplete = 0
    # The arguments are checked, so a bad path fails before any suite runs.
    with ExitStack() as files:
        out = (
            files.enter_context(open(args.output, "w", encoding="utf-8"))
            if args.output
            else sys.stdout
        )
        for name in names:
            if reasons[name]:
                rep, status = {"checks": 0, "violations": [], "detail": reasons[name]}, "skipped"
            else:
                if name in _BALL_SUITES and table is None:
                    table = gr.enumerate_ball(omega, 0, radius, cfg.budget)
                rep = runners[name]()
                if rep["violations"]:
                    status = "failed"
                else:
                    status = "passed" if rep.get("complete", True) else "incomplete"
            result = {k: rep[k] for k in ("checks", "violations", "radius", "detail") if k in rep}
            result["status"] = status
            result["passed"] = status == "passed"
            total_violations += len(result["violations"])
            incomplete += status == "incomplete"
            suites[name] = result
        passed = total_violations == 0 and not incomplete
        out.write(_json_text({"header": cfg.header(), "suites": suites, "passed": passed}))
    if total_violations:
        return 1
    return 3 if incomplete else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overgrowth",
        description="Sequence-driven tree automorphism groups: word problem, "
        "growth, and verification suites.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, omega_required=True, shift=True):
        p.add_argument("--omega", required=omega_required, help="sequence text, e.g. '(012)' or '01(2)'")
        if shift:
            p.add_argument("--shift", type=int, default=0)
        p.add_argument("--budget", type=int, default=gr.DEFAULT_BUDGET)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None, help="write the report to a file")

    p = sub.add_parser("classify", help="classify a defining sequence")
    common(p, shift=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="reduce a word to alternating form")
    common(p, omega_required=False, shift=False)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("equal", help="decide equality of two words")
    common(p)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("identity", help="decide triviality of a word")
    common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("act", help="image of a vertex under a word")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--vertex", required=True)
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("sections", help="the two child sections of a word")
    common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("portrait", help="swap/fix labels to a given depth")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("order", help="bounded order search")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--max-order", dest="max_order", type=int, default=4096)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("growth", help="Cayley ball growth table")
    common(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--curve-epsilon", dest="curve_epsilon", default="1")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--export-ball", dest="export_ball", default=None)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, omega_required=False, shift=False)
    p.add_argument("--suite", choices=_SUITES + ("all",), required=True)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        result = args.func(args, cfg)
        # growth and verify write their own output and pick their exit code.
        if isinstance(result, int):
            return result
        _emit({"header": cfg.header(), **result}, args.output)
        return 0
    except (OmegaParseError, WordParseError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
