"""Command-line front end.

Every library operation is exposed as a subcommand emitting JSON (or CSV
for growth tables).  Exit codes: 0 success, 1 a verification suite found
violations, 2 usage or parse errors, an unwritable output file or a
recursion deeper than Python allows, 3 a growth table or a verification
suite did not complete (a ball hit the element budget, or an element had
more minimal words than a suite keeps).
Reports carry a header block (tool version, canonical sequence, budget,
seed) and reruns with equal headers are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass
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
)
from .words import WordParseError, parse_letters, reduce, render_letters, render_words
from .elements import (
    _PORTRAIT_CHUNK,
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
    portrait_bytes,
    sections,
)
from . import growth as gr

_BUDGET_ENV = "OVERGROWTH_BUDGET"

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


def _default_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    return int(raw) if raw else gr.DEFAULT_BUDGET


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(payload: dict, path: Optional[str]) -> None:
    text = _json_text(payload)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _config(args) -> RunConfig:
    omega = parse_omega(args.omega) if getattr(args, "omega", None) else None
    budget = getattr(args, "budget", None)
    if budget is None:
        budget = _default_budget()
    if budget < 1:
        raise ValueError("budget must be at least 1")
    eps = Fraction(args.epsilon) if getattr(args, "epsilon", None) else None
    if eps is not None and not 0 < eps < Fraction(1, 2):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    delta = Fraction(args.delta) if getattr(args, "delta", None) else None
    return RunConfig(
        omega,
        budget,
        getattr(args, "seed", 0) or 0,
        eps,
        delta,
    )


def cmd_classify(args) -> int:
    cfg = _config(args)
    cls = classify(cfg.omega)
    _emit(
        {
            "header": cfg.header(),
            "class": cls.kind.value,
            "star_window": cls.star_window,
            "two_symbol": cls.two_symbol,
        },
        args.output,
    )
    return 0


def cmd_reduce(args) -> int:
    cfg = _config(args)
    receipt = reduce(parse_letters(args.word))
    _emit(
        {
            "header": cfg.header(),
            "word": render_letters(receipt.word),
            "alpha": receipt.contractions,
        },
        args.output,
    )
    return 0


def cmd_equal(args) -> int:
    cfg = _config(args)
    g = Element.from_text(args.w1, cfg.omega, args.shift)
    h = Element.from_text(args.w2, cfg.omega, args.shift)
    _emit({"header": cfg.header(), "equal": equal(g, h)}, args.output)
    return 0


def cmd_identity(args) -> int:
    cfg = _config(args)
    g = Element.from_text(args.word, cfg.omega, args.shift)
    _emit({"header": cfg.header(), "identity": is_identity(g)}, args.output)
    return 0


def cmd_act(args) -> int:
    cfg = _config(args)
    g = Element.from_text(args.word, cfg.omega, args.shift)
    _emit({"header": cfg.header(), "image": act(g, args.vertex)}, args.output)
    return 0


def cmd_sections(args) -> int:
    cfg = _config(args)
    g = Element.from_text(args.word, cfg.omega, args.shift)
    left, right = sections(g)
    _emit(
        {
            "header": cfg.header(),
            "left": render_letters(left.word),
            "right": render_letters(right.word),
            "shift": left.shift,
        },
        args.output,
    )
    return 0


def cmd_portrait(args) -> int:
    cfg = _config(args)
    g = Element.from_text(args.word, cfg.omega, args.shift)
    pic = portrait(g, args.depth)
    _emit(
        {"header": cfg.header(), "depth": pic.depth, "labels": pic.labels},
        args.output,
    )
    return 0


def cmd_order(args) -> int:
    cfg = _config(args)
    g = Element.from_text(args.word, cfg.omega, args.shift)
    k = order_bounded(g, args.max_order)
    _emit(
        {
            "header": cfg.header(),
            "order": k,
            "max_order": args.max_order,
            "exceeded": k is None,
        },
        args.output,
    )
    return 0


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
                "lower_curve": _fmt(math.exp(lo[n])) if n in lo else "",
                "upper_curve": _fmt(math.exp(up[n])) if n in up else "",
            }
        )
    return rows


def cmd_growth(args) -> int:
    cfg = _config(args)
    # Bad input fails before the output files are created, and the files
    # are opened before the ball is built, so a bad path fails at once.
    if args.radius < 0:
        raise ValueError("radius must be nonnegative")
    if args.shift < 0:
        raise ValueError("shift must be nonnegative")
    curve_eps = Fraction(args.curve_epsilon)
    if curve_eps <= 0:
        raise ValueError("curve epsilon must be positive")
    with ExitStack() as files:
        export = (
            files.enter_context(open(args.export_ball, "w", encoding="utf-8"))
            if args.export_ball
            else None
        )
        out = (
            files.enter_context(open(args.output, "w", encoding="utf-8"))
            if args.output
            else sys.stdout
        )
        table = gr.enumerate_ball(cfg.omega, args.shift, args.radius, cfg.budget)
        rows = _growth_rows(table, curve_eps)
        header = cfg.header()
        header["radius"] = table.radius
        header["complete"] = table.complete
        if export:
            portraits = portrait_bytes(table.keys, gr.export_portrait_depth(args.radius))
            # The bytes of json.dumps(record, sort_keys=True): every field
            # is an int or an ASCII string that needs no escaping.  Words
            # are rendered a chunk of ids at a time; ``portraits`` comes
            # last in the zip, so it is not drawn past the chunk.  The lines
            # go out by ``writelines``: one joined write per chunk raises
            # the peak RSS.
            for start in range(0, len(table.entries), _PORTRAIT_CHUNK):
                chunk = table.entries[start : start + _PORTRAIT_CHUNK]
                export.writelines(
                    f'{{"id": {eid}, "length": {len(word)}, '
                    f'"portrait_hash": "{sha256(sig).hexdigest()[:16]}", '
                    f'"word": "{text}"}}\n'
                    for eid, word, text, sig in zip(
                        range(start, start + len(chunk)),
                        chunk,
                        render_words(chunk),
                        portraits,
                    )
                )
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
    from .words import REFERENCE_PRODUCTS, parse_letters as pl, spine_mul

    violations = []
    seen_pairs = set()
    for n1, n2, prod in REFERENCE_PRODUCTS:
        (k1,), (k2,), (kp,) = pl(n1), pl(n2), pl(prod)
        seen_pairs.add(frozenset((k1, k2)))
        if spine_mul(k1, k2) != kp or spine_mul(k2, k1) != kp:
            violations.append({"pair": f"{n1}{n2}", "expected": prod})
    if len(seen_pairs) != 21:
        violations.append({"pair": "coverage", "expected": "21 distinct pairs"})
    for k in range(1, 8):
        if spine_mul(k, k) != 0:
            violations.append({"pair": f"{k}{k}", "expected": "identity"})
    # On the action: the word g g reduces to the empty word before any
    # section is looked at.
    for g in all_generators(omega):
        t = level_table(g, TABLE_DEPTH_MAX)
        if t.translate(t) != IDENTITY_TABLE:
            violations.append({"pair": render_letters(g.word) * 2, "expected": "identity"})
    return {"checks": 21 + 7 + 8, "violations": violations}


def _suite_eq2(cfg: RunConfig) -> dict:
    from .omega import symbol_at

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


def _suite_lemma3(cfg: RunConfig, table: gr.BallTable) -> dict:
    try:
        rep = gr.lemma3_check(table, cfg.budget)
    except gr.BudgetExceeded as exc:
        # The shifted ball completed no sphere, so no check was made.
        return {
            "checks": 0,
            "violations": [],
            "radius": None,
            "complete": False,
            "detail": str(exc),
        }
    return {
        "checks": rep["gamma"][-1],
        "radius": rep["radius"],
        "complete": rep["complete"],
        "violations": rep["violations"]
        + ([] if rep["numeric_inequality"]["passed"] else [rep["numeric_inequality"]]),
        "detail": rep["numeric_inequality"],
    }


def _suite_lemma4(cfg: RunConfig) -> dict:
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


def _suite_lemma8(cfg: RunConfig, table: gr.BallTable) -> dict:
    eps = cfg.epsilon or Fraction(1, 10)
    rep = gr.lemma8_check(table, eps)
    result = {
        "checks": rep["checked_words"],
        "violations": rep["violations"],
        "radius": rep["radius"],
        "complete": rep["complete"],
    }
    if "cap_exceeded" in rep:
        result["detail"] = rep["cap_exceeded"]
    return result


def _suite_lemma9(cfg: RunConfig, k_max: int) -> dict:
    delta = Fraction(3, 10) if cfg.delta is None else cfg.delta
    rep = gr.lemma9_report(delta, k_max)
    violations = []
    for k in range(1, min(4, k_max) + 1):
        dp = gr.count_ftilde(delta, k)
        ex = gr.count_ftilde_exhaustive(delta, k)
        if dp != ex:
            violations.append({"k": k, "dp": dp, "exhaustive": ex})
    trend = [r["trend"] for r in rep["rows"]]
    for i in range(1, len(trend)):
        if trend[i] > trend[i - 1] + 1e-12:
            violations.append({"k": i + 1, "detail": "trend not monotone"})
    late_flags = [k for k in rep["flagged_k"] if k > 4]
    if late_flags:
        violations.append({"flags_beyond_small_k": late_flags})
    return {"checks": len(rep["rows"]), "violations": violations, "detail": rep}


def _suite_lemma11(cfg: RunConfig, table: gr.BallTable) -> dict:
    eps = cfg.epsilon or Fraction(8, 25)
    rep = gr.lemma11_check(table, eps)
    violations = list(rep["part_a_violations"])
    if isinstance(rep["part_b"], dict):
        violations.extend(rep["part_b"]["violations"])
    return {
        "checks": rep["checked_words"],
        "violations": violations,
        "radius": rep["radius"],
        "complete": rep["complete"],
        "detail": rep.get("cap_exceeded", {"s": rep["s"], "part_b": rep["part_b"]}),
    }


def _suite_prop6(cfg: RunConfig, radius: int) -> dict:
    targets = (
        [cfg.omega]
        if cfg.omega
        else [parse_omega(s) for s in ("(0)", "(1)", "(2)", "01(2)")]
    )
    violations = []
    details = {}
    reps = []
    for omega in targets:
        deg_radius = radius if len(omega.preperiod) == 0 else min(radius, 10)
        rep = gr.prop6_check(omega, radius, cfg.budget, degree_radius=deg_radius)
        reps.append(rep)
        details[str(omega)] = {
            "collapsed_set": rep["collapsed_set"],
            "degree_estimate": rep["degree_estimate"],
        }
        if not rep["dihedral_exact"] or rep["collapsed_set"] != ["a", "x"]:
            violations.append({"omega": str(omega), "detail": rep["collapse"]})
    return {
        "checks": len(targets),
        "violations": violations,
        "radius": min(rep["radius"] for rep in reps),
        "complete": all(rep["complete"] for rep in reps),
        "detail": details,
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


def cmd_verify(args) -> int:
    cfg = _config(args)
    names = _SUITES if args.suite == "all" else (args.suite,)
    radius = 8 if args.radius is None else args.radius
    k_max = 14 if args.kmax is None else args.kmax
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if k_max < 1:
        raise ValueError("kmax must be at least 1")
    # One spec for every suite on the default sequence.  Its memos hold
    # little beyond the generators' sections: lemma3 splits each word once
    # with split_sections, lemma11's traces with split_reduce, and neither
    # writes to them.
    omega = cfg.omega or parse_omega("(012)")
    table = None  # the (omega, shift 0, radius) ball of the ball suites
    suites = {}
    total_violations = 0
    incomplete = 0
    for name in names:
        reason = _inapplicable(name, cfg, omega) if args.suite == "all" else None
        if reason:
            suites[name] = {
                "checks": 0,
                "violations": [],
                "detail": reason,
                "status": "skipped",
                "passed": False,
            }
            continue
        if name in _BALL_SUITES and table is None:
            table = gr.enumerate_ball(omega, 0, radius, cfg.budget)
        if name == "eq1":
            result = _suite_eq1(omega)
        elif name == "eq2":
            result = _suite_eq2(cfg)
        elif name == "lemma3":
            result = _suite_lemma3(cfg, table)
        elif name == "lemma4":
            result = _suite_lemma4(cfg)
        elif name == "lemma8":
            result = _suite_lemma8(cfg, table)
        elif name == "lemma9":
            result = _suite_lemma9(cfg, k_max)
        elif name == "lemma11":
            result = _suite_lemma11(cfg, table)
        else:
            result = _suite_prop6(cfg, 20 if args.radius is None else radius)
        complete = result.pop("complete", True)
        if result["violations"]:
            status = "failed"
        else:
            status = "passed" if complete else "incomplete"
        result["status"] = status
        result["passed"] = status == "passed"
        total_violations += len(result["violations"])
        incomplete += status == "incomplete"
        suites[name] = result
    _emit(
        {
            "header": cfg.header(),
            "suites": suites,
            "passed": total_violations == 0 and not incomplete,
        },
        args.output,
    )
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
        p.add_argument("--budget", type=int, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OmegaParseError, WordParseError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
