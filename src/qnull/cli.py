"""Command-line front end: `qnull <subcommand>`.

Parameters are checked where they are used: the fields, constructors, file
readers and searches raise ValueError on what they cannot serve.  The checks
here cover only what the library would take without complaint, such as
`enumerate --k` outside [0, n], which would list nothing.  A search's budget
is `--budget`, else QNULL_BUDGET, else the library default, default_budget(p)
for `minweight` and default_budget(2) for `minsupport`.  `wilson`,
`construct`, `verify`, `strength` and `enumerate --json` count their
nonzeros or listed subspaces first (`enumerate` streams its text form), and
`rank`, `minweight` and `minsupport` the 64-bit words of the matrix they
build, at _lane_width(p) bits per entry packed over GF(p) and at 64 bits in
the dense form over Q; each refuses more than QNULL_BUDGET, else
default_budget(2), whatever `--budget` says.

Exit codes: 0 on success, 1 when a verification or reproduction check fails,
2 on usage errors (bad parameters, unreadable, unwritable or malformed files,
exceeded budget; any ValueError or RuntimeError, printed as one `error: ...`
line), 3 when a self-check on a computed result fails (an internal error: a
bug, printed as `internal error: ...`), and 141 (128 + SIGPIPE) when the
reader of stdout goes away early (`qnull ... | head`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Optional

from .designs import (
    NullDesign,
    as_modulus,
    construct_lb_design,
    construct_uniform_design,
    read_design,
    strength_of,
    verify_strength,
    write_design,
)
from .fields import Field, field
from .grassmann import (
    _DIGITS,
    enumerate_subspaces,
    from_index,
    gaussian_binomial,
    subspace_to_text,
)
from .incidence import read_matrix, wilson_matrix, write_matrix
from .linalg import (
    GfpMatrix,
    InvariantError,
    SearchReport,
    _lane_width,
    default_budget,
    min_support_kernel_rational,
    min_weight_kernel_gfp,
    rank_gfp,
    rank_rational,
)
from .reproduce import format_rows, rows_to_records, run_grid

__all__ = ["main"]

EXIT_INTERNAL = 3
EXIT_PIPE_CLOSED = 141


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human, end="" if human.endswith("\n") else "\n")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read {path}: {e}") from None


def _emit_file(args, text: str, payload: dict, key: str, what: str) -> None:
    """Write a matrix or design file to --out and say so, or else print it
    (in the --json payload under key)."""
    if args.out is None:
        payload[key] = text
        _emit(args, payload, text)
        return
    try:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {args.out}: {e}") from None
    _emit(args, payload, f"wrote {what} to {args.out}")


def _at_least_one(name: str, value: Optional[int]) -> Optional[int]:
    if value is not None and value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _budget_from(budget: Optional[int] = None) -> Optional[int]:
    env = os.environ.get("QNULL_BUDGET")
    if budget is None and env is not None:
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"QNULL_BUDGET must be an integer, got {env!r}") from None
    return _at_least_one("budget", budget)


def _within_budget(count: int, what: str) -> None:
    """Refuse count units of work, `what` with {} for the count, above budget."""
    budget = _budget_from() or default_budget(2)
    if count > budget:
        raise ValueError(f"{what.format(count)}, budget is {budget}")


def _scatter_count(design: NullDesign, ts) -> int:
    """The t-subspaces verify_strength lists, summed over its support and ts."""
    dims, q = Counter(x.k for x in design.support), design.field.q
    return sum(m * gaussian_binomial(k, t, q) for k, m in dims.items() for t in ts)


# -- subcommands --------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    f = field(args.q)
    # enumerate_subspaces yields nothing outside this range
    if not 0 <= args.k <= args.n:
        raise ValueError(f"need 0 <= k <= n, got k={args.k}, n={args.n}")
    texts = map(subspace_to_text, enumerate_subspaces(f, args.n, args.k))
    if args.json:
        if args.n <= Field.MAX_DIMENSION:  # else list() below refuses it
            want = gaussian_binomial(args.n, args.k, args.q)
            _within_budget(want, "enumerate would list {} subspaces")
        texts = list(texts)
        record = {"q": args.q, "n": args.n, "k": args.k, "count": len(texts)}
        _emit(args, {**record, "gaussian_binomial": want, "subspaces": texts}, "")
        return 0 if len(texts) == want else 1
    count = 0  # streamed, so `qnull enumerate ... | head` ends at once
    for count, text in enumerate(texts, 1):
        print(text)
    want = gaussian_binomial(args.n, args.k, args.q)  # the stream refused a huge n
    print(f"count={count} gaussian_binomial={want}")
    return 0 if count == want else 1


def _cmd_wilson(args) -> int:
    q, n, t, k = args.q, args.n, args.t, args.k
    field(q)  # a bad q is refused before it is counted
    if 0 <= t <= k <= n <= Field.MAX_DIMENSION:  # else wilson_matrix refuses
        nnz = gaussian_binomial(n, k, q) * gaussian_binomial(k, t, q)
        _within_budget(nnz, "wilson matrix would have {} nonzeros")
    m = wilson_matrix(q, n, t, k)
    nnz = sum(len(col) for col in m.col_rows)
    payload = {"q": q, "n": n, "t": t, "k": k, "rows": m.rows, "cols": m.cols,
               "nonzeros": nnz, "out": args.out}
    what = f"{m.rows}x{m.cols} matrix ({nnz} nonzeros)"
    _emit_file(args, write_matrix(m), payload, "matrix", what)
    return 0


def _cmd_construct(args) -> int:
    q, n, t, k = args.q, args.n, args.t, args.k
    field(q)  # a bad q is refused before it is counted
    what = f"{args.kind} design would have {{}} nonzeros"
    if args.kind == "lb":
        # the lb design has no k, but a k that is given must still fit
        if k is not None and not 0 <= t <= k <= n:
            raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
        if 0 <= t < n <= Field.MAX_DIMENSION:  # else the constructor refuses
            _within_budget(1 + gaussian_binomial(t + 1, t, q), what)
        design = construct_lb_design(q, n, t, r=args.r)
    else:
        if k is None:
            raise ValueError("--k is required for --kind uniform")
        if 0 <= t < k < n <= Field.MAX_DIMENSION:
            _within_budget(q ** (t + 1), what)
        design = construct_uniform_design(q, n, k, t)
        if args.r is not None and args.r != design.r:
            design = as_modulus(design, args.r)
    payload = {
        "kind": args.kind,
        "q": args.q,
        "n": args.n,
        "t": args.t,
        "k": args.k,
        "r": design.r,
        "support_size": len(design.support),
        "out": args.out,
    }
    what = f"{args.kind} design ({len(design.support)} nonzeros)"
    _emit_file(args, write_design(design), payload, "design", what)
    return 0


def _load_design(path: str) -> NullDesign:
    text = _read_file(path)
    try:
        return read_design(text)
    except ValueError as e:
        raise ValueError(f"bad design file {path}: {e}") from None


def _cmd_verify(args) -> int:
    design = _load_design(args.design)
    t = args.t if args.t is not None else design.t_claimed
    if args.r is not None and args.r != design.r:
        design = as_modulus(design, args.r)
    count = _scatter_count(design, [t])
    _within_budget(count, f"verifying strength {t} would list {{}} subspaces")
    verdict = verify_strength(design, t)
    f, n = design.field, design.n
    violations = [
        {"dim": t, "subspace": subspace_to_text(from_index(f, n, t, i)), "sum": s}
        for i, s in verdict.violations
    ]
    payload = {
        "design": args.design,
        "t": t,
        "r": design.r,
        "ok": verdict.ok,
        "violations": violations,
    }
    if verdict.ok:
        human = f"ok: strength {t} holds mod {design.r}"
    else:
        lines = [f"FAIL: strength {t} violated mod {design.r}"]
        lines += [
            f"  dim {v['dim']} [{v['subspace']}] sum={v['sum']}"
            for v in violations[:20]
        ]
        if len(violations) > 20:
            lines.append(f"  ... {len(violations) - 20} more")
        human = "\n".join(lines)
    _emit(args, payload, human)
    return 0 if verdict.ok else 1


def _cmd_strength(args) -> int:
    design = _load_design(args.design)
    t_max = args.t_max if args.t_max is not None else design.n
    # strength_of tries t <= top from both ends; the count over all of them bounds it
    top = min([t_max, *(x.k for x in design.support)])
    count = _scatter_count(design, range(top + 1))
    _within_budget(count, "the strength scan would list {} subspaces")
    s = strength_of(design, t_max)
    payload = {
        "design": args.design,
        "t_max": t_max,
        "strength": s,
    }
    human = f"strength: {s if s is not None else 'none (fails at t=0)'}"
    _emit(args, payload, human)
    return 0


def _load_matrix(path: str, p: Optional[int], dense: bool = False):
    text = _read_file(path)
    try:
        m = read_matrix(text)
    except ValueError as e:
        raise ValueError(f"bad matrix file {path}: {e}") from None
    # every command that reads a matrix builds it whole, dense over Q at one
    # 64-bit slot per entry or packed over GF(p) (p defaults to the field's)
    # at _lane_width(p) bits: count its words before that allocates them.
    # Staging the packed rows takes as many bytes again at lane widths of 1
    # and 8 bits or more, twice the count at 4 (one hex digit per lane)
    bits = 64 if dense else _lane_width(p if p is not None else field(m.q).p)
    per = "one bit" if bits == 1 else f"{bits} bits"
    what = f"a {m.rows}x{m.cols} matrix takes {{}} 64-bit words at {per} per entry"
    _within_budget(m.rows * -(-m.cols * bits // 64), what)
    return m


def _cmd_rank(args) -> int:
    if args.over == "q" and args.p is not None:
        raise ValueError(f"--p {args.p} applies only to --over gf, not over Q")
    m = _load_matrix(args.matrix, args.p, dense=args.over == "q")
    if args.over == "q":
        rank = rank_rational(m.dense())
        p = None
    else:
        p = args.p if args.p is not None else field(m.q).p
        rank = rank_gfp(GfpMatrix.from_incidence(m, p))
    payload = {
        "matrix": args.matrix,
        "over": args.over,
        "p": p,
        "rows": m.rows,
        "cols": m.cols,
        "rank": rank,
    }
    ring = "Q" if args.over == "q" else f"GF({p})"
    _emit(args, payload, f"rank over {ring}: {rank}  ({m.rows}x{m.cols})")
    return 0


def _witness_design_text(m, p: int, rep: SearchReport) -> Optional[str]:
    """The witness as a design file over the matrix's column subspaces."""
    if not rep.found or m.q > len(_DIGITS):  # GF(q) has no text form
        return None
    f = field(m.q)
    support = {
        from_index(f, m.n, m.k, j): v
        for j, v in zip(rep.witness_support, rep.witness_values)
    }
    try:
        design = NullDesign(f, m.n, p, m.t, support)
    except ValueError:
        return None  # p is not a valid coefficient modulus for this field
    return write_design(design)


def _report_payload(rep: SearchReport) -> dict:
    return {
        "weight": rep.weight if rep.found else "none found",
        "exhaustive": rep.exhaustive,
        "mode": rep.mode,
        "cap": rep.cap,
        "witness": None
        if not rep.found
        else {
            "support": list(rep.witness_support),
            "values": list(rep.witness_values),
        },
    }


def _report_human(rep: SearchReport, witness_design: Optional[str]) -> str:
    lines = [
        f"weight:     {rep.weight_text()}",
        f"mode:       {rep.mode}",
        f"exhaustive: {rep.exhaustive}",
        f"cap:        {rep.cap}",
    ]
    if rep.found:
        pairs = " ".join(
            f"{j}:{v}" for j, v in zip(rep.witness_support, rep.witness_values)
        )
        lines.append(f"witness:    {pairs}")
        if witness_design is not None:
            lines.append("witness design file:")
            lines += ["  " + ln for ln in witness_design.splitlines()]
    return "\n".join(lines)


def _is_wilson(m) -> bool:
    """Whether a matrix file holds W_{t,k} of its header, whose columns
    GL(n, q) permutes in one orbit, so that a support search may root at
    column 0.  The matrix is built only for a file of its shape and nonzero
    count, so the build costs no more than reading the file did."""
    q, n, t, k = m.q, m.n, m.t, m.k
    per = gaussian_binomial(k, t, q)
    return (
        (m.rows, m.cols) == (gaussian_binomial(n, t, q), gaussian_binomial(n, k, q))
        and all(len(col) == per for col in m.col_rows)
        and m.col_rows == wilson_matrix(q, n, t, k).col_rows
    )


def _cmd_minweight(args) -> int:
    m = _load_matrix(args.matrix, args.p)
    _at_least_one("cap", args.cap)
    budget = _budget_from(args.budget)
    g = GfpMatrix.from_incidence(m, args.p)
    rooted = args.mode == "support" and _is_wilson(m)
    rep = min_weight_kernel_gfp(
        g, cap=args.cap, mode=args.mode, budget=budget, transitive=rooted
    )
    design_text = _witness_design_text(m, args.p, rep)
    payload = _report_payload(rep)
    payload["p"] = args.p
    payload["matrix"] = args.matrix
    if design_text is not None:
        payload["witness"]["design"] = design_text
    _emit(args, payload, _report_human(rep, design_text))
    return 0


def _cmd_minsupport(args) -> int:
    m = _load_matrix(args.matrix, 2)
    _at_least_one("cap", args.cap)
    budget = _budget_from(args.budget)
    g = GfpMatrix.from_incidence(m, 2)
    rep = min_support_kernel_rational(g, args.cap, budget, transitive=_is_wilson(m))
    payload = _report_payload(rep)
    payload["matrix"] = args.matrix
    human = _report_human(rep, None)
    if rep.found and m.q <= len(_DIGITS):
        f = field(m.q)
        lines = ["witness subspaces:"]
        for j, v in zip(rep.witness_support, rep.witness_values):
            x = from_index(f, m.n, m.k, j)
            lines.append(f"  {x.k}|{subspace_to_text(x)}|{v}")
        human = human + "\n" + "\n".join(lines)
    _emit(args, payload, human)
    return 0


def _cmd_reproduce(args) -> int:
    rows = run_grid(args.only, args.inject_corruption, _budget_from(args.budget))
    failures = sum(1 for r in rows if not r.ok)
    payload = {
        "checks": len(rows),
        "failures": failures,
        "rows": rows_to_records(rows),
    }
    _emit(args, payload, format_rows(rows))
    return 0 if failures == 0 else 1


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qnull",
        description="Exact subspace null designs over GF(q): construct, "
        "verify, and search.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument(
            "--json", action="store_true", help="emit a machine-readable record"
        )

    p = sub.add_parser("enumerate", help="list subspaces in canonical order")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("wilson", help="write a containment matrix file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    add_json(p)
    p.set_defaults(func=_cmd_wilson)

    p = sub.add_parser("construct", help="build a null design file")
    p.add_argument("--kind", choices=["lb", "uniform"], required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--out", default=None)
    add_json(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a design file at strength t")
    p.add_argument("--design", required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("strength", help="largest verified strength of a design")
    p.add_argument("--design", required=True)
    p.add_argument("--t-max", type=int, default=None, dest="t_max")
    add_json(p)
    p.set_defaults(func=_cmd_strength)

    p = sub.add_parser("rank", help="exact rank of a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--over", choices=["gf", "q"], required=True)
    p.add_argument("--p", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("minweight", help="minimum kernel weight over GF(p)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--mode", choices=["kernel", "support"], default="kernel")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    add_json(p)
    p.set_defaults(func=_cmd_minweight)

    p = sub.add_parser(
        "minsupport", help="minimum rational kernel support of a 0/1 matrix"
    )
    p.add_argument("--matrix", required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    add_json(p)
    p.set_defaults(func=_cmd_minsupport)

    p = sub.add_parser("reproduce", help="run the full reproduction grid")
    p.add_argument("--only", default=None, help="label substring filter")
    p.add_argument(
        "--inject-corruption",
        action="store_true",
        help="negative control: corrupt one matrix entry before the rank rows",
    )
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    add_json(p)
    p.set_defaults(func=_cmd_reproduce)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _at_least_one("threads", getattr(args, "threads", None))
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout stays broken; point it at devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    except InvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, RuntimeError) as e:  # bad input, or a refused budget
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
