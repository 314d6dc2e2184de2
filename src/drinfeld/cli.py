"""Command-line surface: bases, action matrices, decomposition tables, and
oracle verification reports as JSON, CSV, or text.

The command name selects its builder once, through the subparser's
set_defaults.  The builder is the one place that decides the command's
output: it returns the exit status and the renderer of the document it
built.  A JSON-shaped document renders as json.dumps and through its own
text lines and csv rows; ``decompose`` hands over those of the document it
built (B, G, or B with the oracle's diff).  ``action`` keeps its matrices
packed (FqMatrix) and writes each row by indexing one per-call table of the
q cell strings and joining the strings.

Exit codes: 0 = success / all checks passed, 1 = a verification mismatch,
2 = invalid input (an unwritable --out path included).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys

import numpy as np

from . import closedform, modrep
from .curve import BasisSet, GroupElement, action_matrix, check_action_dim, degree, dim_h0
from .ff import FqMatrix, _capped_power, _check_field, _decimal, make_field
from .modrep import GuardError

DEFAULT_SWEEP_P = (3, 5, 7)
DEFAULT_SWEEP_M = (2, 3)
TABLE_MAX_CELLS = 10**6  # basis, decompose and factors refuse a larger table


def _parse_entry(token, ctx):
    if "," in token:
        return ctx.element([int(c) for c in token.split(",")])
    return ctx.element(int(token))


def _element_from_tokens(tokens, ctx):
    a, b, c, d = (_parse_entry(tok, ctx) for tok in tokens)
    return GroupElement(a, b, c, d)


def _check_cells(args, cells):
    """Refuse a table of more than TABLE_MAX_CELLS cells before it is built:
    its size is a closed form, and building it takes time linear in it.  A
    count too long for str leaves q written as p^r."""
    if cells > TABLE_MAX_CELLS:
        count = _decimal(cells)
        q = args.p**args.r if count.isdigit() else f"{args.p}^{args.r}"
        raise ValueError(
            f"the {args.command} table at q={q}, m={args.m} has {count} cells, "
            f"above the limit {TABLE_MAX_CELLS}"
        )


# -- builders ----------------------------------------------------------------
# Each reads the argparse namespace of its command, which selects it through
# set_defaults(build=...), and returns its exit status and the renderer of
# the document it built: render(fmt) -> str for fmt in json, csv and text.


def _renderer(doc, text, rows):
    """The renderer of a JSON-shaped document: json.dumps for json, the lines
    of text for text and the rows of rows for csv.  text and rows are
    iterables made from doc, generators where they are long, so a format that
    is not asked for is not built; render consumes them, so it runs once."""

    def render(fmt):
        if fmt == "json":
            return json.dumps(doc, separators=(",", ":")) + "\n"
        if fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            return buf.getvalue()
        return "\n".join(text) + "\n"

    return render


def _columns(recs, *keys):
    """csv rows: a header of the keys, then each record's values under them."""
    yield keys
    for rec in recs:
        yield tuple(rec[k] for k in keys)


def _doc_basis(args):
    _check_field(args.p, args.r)  # refuses a bad p or r, as action does
    q = _capped_power(args.p, args.r)
    _check_cells(args, dim_h0(q, args.m))
    basis = BasisSet(q, args.m)
    rows = [{"i": ix.i, "j": ix.j, "degree": degree(ix, q)} for ix in basis]
    doc = {"q": q, "m": args.m, "dim": len(basis), "basis": rows}
    return 0, _renderer(doc, _basis_text(doc), _columns(rows, "i", "j", "degree"))


def _basis_text(doc):
    yield f"q={doc['q']} m={doc['m']} dim={doc['dim']}"
    for rec in doc["basis"]:
        yield f"w({rec['i']},{rec['j']})  degree {rec['degree']}"


def _doc_action(args):
    _check_field(args.p, args.r)
    q = _capped_power(args.p, args.r)
    check_action_dim(dim_h0(q, args.m))  # closed form: refuse before the field and any basis
    ctx = make_field(args.p, args.r)
    sigma = _element_from_tokens(args.element, ctx)
    mat = action_matrix(sigma, BasisSet(q, args.m))
    element = FqMatrix.from_elems(ctx, [[sigma.alpha, sigma.beta], [sigma.gamma, sigma.delta]])
    doc = {"q": q, "p": args.p, "r": args.r, "m": args.m, "element": element, "matrix": mat}
    return 0, functools.partial(_render_action, doc)


def _render_action(doc, fmt):
    """Write the action document from the packed matrices: rows index one table
    of cell strings, 5 (r = 1) or [0,1] / [0, 1] / 0;1 (json / text / csv)."""
    ctx, sep = doc["matrix"].ctx, {"json": ",", "text": ", ", "csv": ";"}[fmt]
    values = range(ctx.q) if ctx.r == 1 else ctx.unpack_array(range(ctx.q)).tolist()
    cells = [str(v).replace(", ", sep) for v in values]
    cells = np.array([c.strip("[]") for c in cells] if fmt == "csv" else cells, dtype=object)
    rows = (cells[row].tolist() for row in doc["matrix"].data)
    if fmt == "csv":
        cols = [f"{j}," for j in range(doc["matrix"].cols)]
        lines = (f"{i}," + f"\n{i},".join(map(str.__add__, cols, row)) for i, row in enumerate(rows))
        return "row,col,value\n" + "\n".join(lines) + "\n"
    element = "[" + sep.join("[" + sep.join(cells[row]) + "]" for row in doc["element"].data) + "]"
    q, p, r, m = (doc[k] for k in ("q", "p", "r", "m"))
    if fmt == "json":
        body = ",".join("[" + ",".join(row) + "]" for row in rows)
        return f'{{"q":{q},"p":{p},"r":{r},"m":{m},"element":{element},"matrix":[{body}]}}\n'
    text = "\n".join("  " + " ".join(row) for row in rows)
    return f"q={q} r={r} m={m} element={element}\n{text}\n"


def _summand_list(mult):
    return [
        {"a": lab.a, "b": lab.b, "mult": n}
        for lab, n in sorted(mult.items(), key=lambda kv: (kv[0].b, kv[0].a))
    ]


def _doc_decompose(args):
    if args.oracle and args.group != "B":
        raise ValueError("--oracle applies only to --group B")
    # (m, p), the oracle's size guard and the table's size first, before the
    # slower closed form; the oracle's blocks are built, split and dropped one
    # at a time
    closedform._check_pm(args.m, args.p)
    if args.oracle:
        blocks = modrep.iter_h0_blocks(args.p, args.m, force=args.force, group="B")
    _check_cells(args, (args.p - 1) * args.p)
    if args.group == "G":
        gdec = closedform.g_decomposition(args.m, args.p)
        doc = {
            "summands": _summand_list(gdec.nonproj),
            "projectives": [{"t": t, "n": n} for t, n in sorted(gdec.proj.items()) if n],
            "factors": [{"t": t, "d": gdec.factors[t]} for t in sorted(gdec.factors)],
        }
        return 0, _renderer(doc, _g_text(doc), _g_rows(doc))
    bdec = closedform.b_decomposition(args.m, args.p)
    doc = {"summands": _summand_list(bdec.mult)}
    if not args.oracle:
        text = _summand_lines("summands:", doc["summands"])
        return 0, _renderer(doc, text, _columns(doc["summands"], "a", "b", "mult"))
    oracle = modrep.b_labels_by_block(blocks)
    doc["oracle"] = _summand_list(oracle)
    doc["diff"] = [
        {"a": lab.a, "b": lab.b, "closed": want, "oracle": got}
        for lab, got, want in modrep.table_divergences(oracle, bdec.mult)
    ]
    return (1 if doc["diff"] else 0), _renderer(doc, _oracle_text(doc), _oracle_rows(doc))


def _summand_lines(title, recs):
    yield title
    for rec in recs:
        yield f"  U({rec['a']},{rec['b']}) x {rec['mult']}"


def _g_text(doc):
    yield from _summand_lines("summands:", doc["summands"])
    yield "projective covers:"
    for rec in doc["projectives"]:
        yield f"  P(V_{rec['t']}) x {rec['n']}"
    yield "factors: d = " + _dlist(doc["factors"])


def _g_rows(doc):
    yield ("kind", "a", "b", "t", "value")
    for rec in doc["summands"]:
        yield ("summand", rec["a"], rec["b"], "", rec["mult"])
    for rec in doc["projectives"]:
        yield ("projective", "", "", rec["t"], rec["n"])
    for rec in doc["factors"]:
        yield ("factor", "", "", rec["t"], rec["d"])


def _oracle_text(doc):
    yield from _summand_lines("summands:", doc["summands"])
    yield from _summand_lines("oracle:", doc["oracle"])
    if not doc["diff"]:
        yield "diff: none (oracle agrees)"
        return
    yield "diff:"
    for rec in doc["diff"]:
        yield f"  ({rec['a']},{rec['b']}): closed {rec['closed']} != oracle {rec['oracle']}"


def _oracle_rows(doc):
    closed = {(r["a"], r["b"]): r["mult"] for r in doc["summands"]}
    oracle = {(r["a"], r["b"]): r["mult"] for r in doc["oracle"]}
    yield ("a", "b", "closed", "oracle")
    for a, b in sorted(set(closed) | set(oracle), key=lambda k: (k[1], k[0])):
        yield (a, b, closed.get((a, b), 0), oracle.get((a, b), 0))


def _dlist(factor_recs):
    return "[" + ",".join(str(rec["d"]) for rec in factor_recs) + "]"


def _doc_factors(args):
    closedform._check_pm(args.m, args.p)
    _check_cells(args, args.p)
    d = closedform.comp_factors_h0(args.m, args.p)
    doc = {"factors": [{"t": t, "d": d[t]} for t in sorted(d)]}
    return 0, _renderer(doc, ["d = " + _dlist(doc["factors"])], _columns(doc["factors"], "t", "d"))


def _report_dict(report):
    return {**dataclasses.asdict(report), "all_passed": report.all_passed}


def _doc_verify(args):
    report = modrep.verify_full(args.p, args.m, force=args.force)
    doc = _report_dict(report)
    return (0 if report.all_passed else 1), _renderer(doc, [_verify_text(doc)], _check_rows([doc]))


def _verify_text(rec):
    lines = [f"verify p={rec['p']} m={rec['m']}"]
    for c in rec["checks"]:
        lines.append(f"  [{'pass' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
    lines.append("result: " + ("all checks passed" if rec["all_passed"] else "FAILED"))
    return "\n".join(lines)


def _check_rows(recs):
    yield ("p", "m", "check", "passed", "detail")
    for rec in recs:
        for c in rec["checks"]:
            yield (rec["p"], rec["m"], c["name"], c["passed"], c["detail"])


def _doc_sweep(args):
    p_values = _int_list("--p-values", args.p_values)
    m_values = _int_list("--m-values", args.m_values)
    grid = [
        _report_dict(modrep.verify_full(p, m, force=args.force)) for p in p_values for m in m_values
    ]
    ok = all(rec["all_passed"] for rec in grid)
    doc = {"grid": grid, "all_passed": ok}
    return (0 if ok else 1), _renderer(doc, _sweep_text(doc), _check_rows(grid))


def _sweep_text(doc):
    for rec in doc["grid"]:
        yield _verify_text(rec)
    yield "sweep: " + ("all passed" if doc["all_passed"] else "FAILED")


def run(args, stream=None):
    """Execute one parsed command (the namespace of build_parser); emits the
    rendered document, returns exit status."""
    try:
        if args.command in ("decompose", "factors", "verify") and args.r != 1:
            raise ValueError(f"{args.command} requires r = 1 (tables exist only for q = p)")
        status, render = args.build(args)
    except (ValueError, GuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = render(args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        (stream or sys.stdout).write(rendered)
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        description=(
            "Exact holomorphic m-differentials on the Drinfeld curve: bases, "
            "SL2(F_q) action matrices, Borel and full-group decomposition "
            "tables, and an independent matrix oracle that re-derives them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, build):
        sp.set_defaults(build=build)
        sp.add_argument("--p", type=int, required=True, help="odd prime p")
        sp.add_argument("--r", type=int, default=1, help="extension degree (q = p^r)")
        sp.add_argument("--m", type=int, required=True, help="tensor power m")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
        sp.add_argument("--out", help="write output to this path instead of stdout")

    common(sub.add_parser("basis", help="ordered monomial basis with degrees"), _doc_basis)

    sp = sub.add_parser("action", help="action matrix of one group element")
    common(sp, _doc_action)
    sp.add_argument(
        "--element",
        nargs=4,
        required=True,
        metavar=("A", "B", "C", "D"),
        help="entries of [[A,B],[C,D]]; ints mod p, or comma-separated "
        "coefficient vectors when r > 1",
    )

    sp = sub.add_parser("decompose", help="B or G decomposition table (q = p)")
    common(sp, _doc_decompose)
    sp.add_argument("--group", choices=("B", "G"), default="B")
    sp.add_argument(
        "--oracle",
        action="store_true",
        help="also run the matrix oracle and report a cellwise diff (group B)",
    )
    sp.add_argument("--force", action="store_true", help="override size guards")

    common(sub.add_parser("factors", help="composition factor multiplicities d_t"), _doc_factors)

    sp = sub.add_parser("verify", help="run the four oracle checks for one (p, m)")
    common(sp, _doc_verify)
    sp.add_argument("--force", action="store_true", help="override size guards")

    sp = sub.add_parser("sweep", help="verify over a grid of (p, m) points")
    sp.set_defaults(build=_doc_sweep)
    sp.add_argument(
        "--p-values", default=",".join(map(str, DEFAULT_SWEEP_P)), help="comma list of primes"
    )
    sp.add_argument(
        "--m-values", default=",".join(map(str, DEFAULT_SWEEP_M)), help="comma list of tensor powers"
    )
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sp.add_argument("--out", help="write output to this path instead of stdout")
    sp.add_argument("--force", action="store_true", help="override size guards")
    return parser


def _int_list(option, text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{option} must be a comma list of integers, got {text!r}") from None


def main(argv=None):
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
