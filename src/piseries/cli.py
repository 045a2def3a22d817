"""Command-line interface for the registry workbench.

Subcommands
-----------
verify series      certify series identities (PASS/CONSISTENT/FAIL/DIVERGENT)
verify congruence  check truncated-sum congruences prime by prime
verify exact       run exact finite-identity families
run, report        verify a filtered slice of the whole registry
discover           integer-relation search for a closed form of a series
quadform           binary-quadratic-form representation helpers

Exit codes: 0 when everything passed or is supported, 1 when a proven
claim failed, 2 on usage or registry-parse errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence

from . import congruence as cg
from . import corpus, exactid, quadform, relation, sereval

_SQUAREFREE_D = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 30)


class CliError(Exception):
    """Usage-level error: reported on stderr, exit code 2."""


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _load(paths: Optional[Sequence[str]]) -> List[corpus.RegistryEntry]:
    if not paths:
        return corpus.load_default()
    entries: List[corpus.RegistryEntry] = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            entries.extend(corpus.parse_registry(fh.read()))
    return entries


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _select(entries, id_glob, kind=None):
    import fnmatch
    picked = [e for e in entries
              if (id_glob is None or fnmatch.fnmatch(e.ident, id_glob))
              and (kind is None or e.kind == kind)]
    if not picked:
        raise CliError(f"no registry entry matches {id_glob!r}")
    return picked


def _fmt_weight(weight: Sequence[Fraction]) -> str:
    parts = []
    for j in range(len(weight) - 1, -1, -1):
        c = weight[j]
        if c == 0 and len(weight) > 1:
            continue
        mono = "" if j == 0 else ("k" if j == 1 else f"k^{j}")
        if mono and c == 1:
            parts.append(mono)
        else:
            parts.append(f"{c}*{mono}" if mono else f"{c}")
    return "+".join(parts) or "0"


def _fmt_rhs(rhs: sereval.RHSForm) -> str:
    parts = []
    for q, d, name in rhs.addends:
        bits = [str(q)]
        if d != 1:
            bits.append(f"sqrt({d})")
        if name != "ONE" or len(bits) == 1:
            bits.append(name)
        parts.append("*".join(bits))
    return " + ".join(parts) if parts else "0"


def _seq_text(spec: sereval.TermSpec) -> str:
    parts = []
    for kind, e in spec.seq:
        name = kind.tag
        if kind.params:
            name += "(" + ",".join(str(p) for p in kind.params) + ")"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "-"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_run(args) -> int:
    entries = _load(args.registry)
    report = corpus.run(entries, id_glob=args.filter, kind=args.kind,
                        status=args.status, digits=args.digits,
                        p_max=args.pmax, n_max=args.nmax,
                        workers=args.workers)
    _emit(report.render(args.format), args.out)
    return report.exit_code


def _cmd_verify_series(args) -> int:
    entries = _select(_load(args.registry), args.id, kind="SERIES")
    worst = 0
    for entry in entries:
        start = time.monotonic()
        if entry.check == "evaluate":
            row = corpus._run_entry(entry, args.digits, 0, 0)
            print(f"{entry.ident}\t{row.outcome}\t{row.detail}"
                  f"\t{row.seconds:.2f}s")
            continue
        try:
            rep = sereval.verify_series_identity(entry.series, args.digits)
            status, gap, terms = rep.status, rep.gap_upper, rep.terms_used
        except sereval.DivergentError as exc:
            if entry.status == "proven":
                worst = 1
            print(f"{entry.ident}\tDIVERGENT\t{exc}\t-\t-")
            continue
        secs = time.monotonic() - start
        gap_s = corpus._sci(gap) if gap is not None else "-"
        print(f"{entry.ident}\t{status}\tgap<{gap_s}\tterms={terms}"
              f"\t{secs:.2f}s")
        if status == "FAIL" and entry.status == "proven":
            worst = 1
    return worst


def _cmd_verify_congruence(args) -> int:
    entries = _load(args.registry)
    kind = "INTEGRALITY" if args.integrality else "CONGRUENCE"
    picked = [e for e in _select(entries, args.id) if e.kind == kind]
    if args.pn:
        picked = [e for e in picked if e.check == "refinement"]
    if not picked:
        raise CliError(f"no matching {kind.lower()} entry for {args.id!r}")
    worst = 0
    for entry in picked:
        claim = entry.claim   # set only on truncated-sum congruences
        if claim is not None and entry.check != "refinement":
            for p, lhs, rhs in cg.claim_rows(claim, args.pmax):
                if lhs != rhs and entry.status == "proven":
                    worst = 1
                status = "ok" if lhs == rhs else "FAIL"
                print(f"{entry.ident}\t{p}\t{status}\t{lhs}\t{rhs}")
        else:
            row = corpus._run_entry(entry, 40, args.pmax, args.nmax or 128)
            print(f"{entry.ident}\t-\t{row.outcome}\t{row.detail}\t-")
            if row.outcome == "FAIL" and entry.status == "proven":
                worst = 1
    return worst


def _cmd_verify_exact(args) -> int:
    if args.family:
        name = args.family.upper()
        if name in corpus._FINITE_RUNNERS:
            fam_args = (-10, 10)
        elif name in exactid.FAMILIES:
            fam_args = (args.m,)
        else:
            raise CliError(f"unknown family {args.family!r}")
        try:
            outcome, detail = corpus._run_finite(name, fam_args, args.nmax)
        except ValueError as exc:   # e.g. a family that needs a nonzero m
            raise CliError(str(exc)) from exc
        print(f"{name}\t{outcome}\t{detail}")
        return int(outcome == "FAIL")
    report = corpus.run(_load(args.registry), id_glob=args.id,
                        kind="FINITE_IDENTITY", n_max=args.nmax)
    _emit(report.render("text"), None)
    return report.exit_code


def _parse_basis(text: str):
    fixed = []
    scan_names = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "*" in token:
            d_s, name = token.split("*", 1)
            fixed.append((int(d_s), name.strip().upper()))
        else:
            scan_names.append(token.upper())
    return fixed, scan_names


def _cmd_discover(args) -> int:
    term_text = f"1 ; - ; {args.seq} ; m={args.m} ; k0={args.k0}"
    try:
        spec = corpus._term_spec(term_text, 0)
    except corpus.CorpusError as exc:
        raise CliError(f"bad --seq/--m: {exc}") from exc
    fixed, scan_names = _parse_basis(args.basis)
    if fixed and scan_names:
        raise CliError("mix of explicit d*name and bare basis names"
                       " is not supported")
    attempts = [fixed] if fixed else \
        [[(d, name) for name in scan_names] for d in _SQUAREFREE_D]
    candidate = None
    for basis in attempts:
        try:
            candidate = relation.rediscover(spec, basis, digits=args.digits,
                                            max_norm=args.max_norm,
                                            degree=args.degree)
        except sereval.DivergentError as exc:
            raise CliError(f"cannot evaluate the series: {exc}") from exc
        if candidate is not None and candidate.confirmed:
            break
        candidate = None
    if candidate is None:
        print("NOT FOUND: no integer relation within the norm bound")
        return 0
    ident = candidate.identity
    block = "\n".join([
        f"entry discovered-{int(time.time())}",
        "kind: SERIES",
        "status: conjectural",
        "covers: discovered",
        f"term: {_fmt_weight(ident.spec.weight)} ; - ;"
        f" {_seq_text(ident.spec)} ; m={ident.spec.m} ; k0={ident.spec.k0}",
        f"rhs: {_fmt_rhs(ident.rhs)}",
        f'anchor: "found by integer-relation search at {args.digits} digits,'
        f' re-verified at {args.digits + args.digits // 2} digits"',
        "end",
    ])
    corpus.parse_registry(block)  # round-trip sanity before publishing
    print(block)
    return 0


def _cmd_quadform(args) -> int:
    sols = quadform.represent(args.mu, args.a, args.d, args.p)
    if not sols:
        print(f"{args.mu}*p = {args.a}*x^2 + {args.d}*y^2 has no solution"
              f" for p={args.p}")
        return 0
    for x, y in sols:
        print(f"{args.mu}*{args.p} = {args.a}*{x}^2 + {args.d}*{y}^2")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piseries",
        description="verification and discovery workbench for"
                    " central-binomial series and their congruences")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_registry(p):
        p.add_argument("--registry", action="append", metavar="PATH",
                       help="registry file (default: bundled registry)")

    verify = sub.add_parser("verify", help="verify one class of claims")
    vsub = verify.add_subparsers(dest="what", required=True)

    vs = vsub.add_parser("series", help="certify series identities")
    vs.add_argument("--id", default="*", help="registry id glob")
    vs.add_argument("--digits", type=int, default=40)
    add_registry(vs)
    vs.set_defaults(func=_cmd_verify_series)

    vc = vsub.add_parser("congruence", help="check congruences per prime")
    vc.add_argument("--id", default="*", help="registry id glob")
    vc.add_argument("--pmax", type=int, default=300)
    vc.add_argument("--pn", action="store_true",
                    help="restrict to prime-power refinement checks")
    vc.add_argument("--integrality", action="store_true",
                    help="run integrality/parity checks instead")
    vc.add_argument("--nmax", type=int, default=None)
    add_registry(vc)
    vc.set_defaults(func=_cmd_verify_congruence)

    ve = vsub.add_parser("exact", help="run exact finite-identity families")
    ve.add_argument("--family", help="family name, e.g. L21_1 or GLAISHER")
    ve.add_argument("--m", type=int, default=None)
    ve.add_argument("--nmax", type=int, default=300)
    ve.add_argument("--id", default="*", help="registry id glob")
    add_registry(ve)
    ve.set_defaults(func=_cmd_verify_exact)

    run_p = sub.add_parser("run", aliases=["report"],
                           help="verify a slice of the registry")
    run_p.add_argument("--filter", default=None, metavar="GLOB")
    run_p.add_argument("--digits", type=int, default=40)
    run_p.add_argument("--pmax", type=int, default=300)
    run_p.add_argument("--nmax", type=int, default=128)
    run_p.add_argument("--kind", default=None)
    run_p.add_argument("--status", default=None)
    run_p.add_argument("--workers", type=int, default=0)
    run_p.add_argument("--format", choices=("text", "tsv"), default="text")
    run_p.add_argument("--out", default=None, metavar="PATH")
    add_registry(run_p)
    run_p.set_defaults(func=_cmd_run)

    disc = sub.add_parser("discover",
                          help="integer-relation search for a closed form")
    disc.add_argument("--seq", required=True,
                      help='sequence factor(s), e.g. "S(1,25)" or CB2^3')
    disc.add_argument("--m", required=True, help="base of the power m^k")
    disc.add_argument("--k0", type=int, default=0)
    disc.add_argument("--basis", default="inv_pi",
                      help="comma list of constants; bare names scan"
                           " square-free sqrt multipliers, d*name pins one")
    disc.add_argument("--digits", type=int, default=80)
    disc.add_argument("--max-norm", type=int, default=10 ** 6)
    disc.add_argument("--degree", type=int, default=1)
    disc.set_defaults(func=_cmd_discover)

    qf = sub.add_parser("quadform", help="quadratic form helpers")
    qsub = qf.add_subparsers(dest="what", required=True)
    qr = qsub.add_parser("represent",
                         help="solve mu*p = a*x^2 + d*y^2 over nonnegative"
                              " integers")
    qr.add_argument("--mu", type=int, default=1)
    qr.add_argument("--a", type=int, default=1)
    qr.add_argument("--d", type=int, required=True)
    qr.add_argument("--p", type=int, required=True)
    qr.set_defaults(func=_cmd_quadform)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except corpus.CorpusError as exc:
        print(f"registry error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
