"""Command-line interface for the registry workbench.

Subcommands
-----------
run, report        verify a filtered slice of the whole registry
verify series      ``run``'s rows of the SERIES entries that --id picks
verify exact       ``run``'s rows of the FINITE_IDENTITY entries that --id
                   picks, or the one row of a family named by --family
verify congruence  check truncated-sum congruences prime by prime
discover           integer-relation search for a closed form of a series
quadform           binary-quadratic-form representation helpers

``run``, ``verify series``, ``verify exact`` and ``verify congruence``
print the rows of one ``corpus.run`` report, which alone decides each
outcome (PASS, CONSISTENT, SUPPORTED, EVALUATED, FAIL or SKIPPED) and
the exit code.  ``verify congruence`` prints them tab-separated, in the
report's id order: a row of the ``sum`` check that tested a prime as one
line per tested prime, ``id  p  ok|FAIL  lhs  rhs``, and every other row
as ``id  -  OUTCOME  detail  -``.

Exit codes: 0 when everything passed or is supported, 1 when a proven
claim failed, 2 on usage or registry-parse errors and on a --registry or
--out path that cannot be read or written, and 141 (128 + SIGPIPE)
when stdout's reader closed before the output was written, as in
``piseries verify series | head``; that case prints nothing more.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import corpus, exactid, quadform, relation, sereval

_SQUAREFREE_D = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 30)
#: the exit code when stdout's reader has gone, as a shell reports SIGPIPE
_CLOSED_PIPE = 141


class CliError(Exception):
    """Usage-level error: reported on stderr, exit code 2."""


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _int_from(text: str, least: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be a {what} integer,"
                                         f" got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of every --digits, --pmax, --nmax and --max-norm, and
    of quadform's --mu, --a and --d."""
    return _int_from(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    """argparse type of --degree and --k0."""
    return _int_from(text, 0, "non-negative")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: not UTF-8 text ({exc})") from None


def _load(paths: Optional[Sequence[str]]) -> List[corpus.RegistryEntry]:
    if not paths:
        return corpus.load_default()
    return corpus.load((path, _read(path)) for path in paths)


def _emit(report: corpus.VerificationReport, fmt: str = "text",
          out: Optional[str] = None) -> int:
    """Write the rendered report to the file ``out``, or else to stdout,
    the same bytes either way, and return its exit code."""
    text = report.render(fmt)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return report.exit_code


def _select(entries, id_glob, kind):
    picked = corpus.select(entries, id_glob, kind)
    if not picked:
        raise CliError(f"no {kind.lower()} entry matches {id_glob!r}")
    return picked


def _fmt_weight(weight: Sequence[Fraction]) -> str:
    """The weight as the registry writes it, highest power first, each
    monomial after its own sign: ``22742*k-307``."""
    out = ""
    for j in range(len(weight) - 1, -1, -1):
        c = weight[j]
        if c == 0 and len(weight) > 1:
            continue
        mono = "" if j == 0 else ("k" if j == 1 else f"k^{j}")
        if mono and abs(c) == 1:
            text = mono
        else:
            text = f"{abs(c)}*{mono}" if mono else f"{abs(c)}"
        out += ("-" if c < 0 else "+" if out else "") + text
    return out or "0"


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


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_run(args) -> int:
    entries = _load(args.registry)
    report = corpus.run(entries, id_glob=args.filter, kind=args.kind,
                        status=args.status, digits=args.digits,
                        p_max=args.pmax, n_max=args.nmax)
    return _emit(report, args.format, args.out)


def _cmd_verify_series(args) -> int:
    picked = _select(_load(args.registry), args.id, "SERIES")
    return _emit(corpus.run(picked, digits=args.digits))


def _cmd_verify_congruence(args) -> int:
    kind = "INTEGRALITY" if args.integrality else "CONGRUENCE"
    picked = _select(_load(args.registry), args.id, kind)
    if args.pn:
        picked = [e for e in picked if e.check == "refinement"]
    if not picked:
        raise CliError(f"no refinement entry matches {args.id!r}")
    check = {e.ident: e.check for e in picked}
    report = corpus.run(picked, p_max=args.pmax, n_max=args.nmax)
    for row in report.rows:
        if check[row.ident] == "sum" and row.report and row.report.tested:
            failed = {p for p, _, _ in row.report.failures}
            for p, lhs, rhs in row.report.rows:
                status = "FAIL" if p in failed else "ok"
                print(f"{row.ident}\t{p}\t{status}\t{lhs}\t{rhs}")
        else:
            print(f"{row.ident}\t-\t{row.outcome}\t{row.detail}\t-")
    return report.exit_code


def _cmd_verify_exact(args) -> int:
    if not args.family:
        picked = _select(_load(args.registry), args.id, "FINITE_IDENTITY")
        return _emit(corpus.run(picked, n_max=args.nmax))
    # the family line of a registry entry, read by the registry's reader;
    # SN_EXPANSION's c range is -10..10
    name = args.family.upper()
    text = name if args.m is None else f"{name} ; m={args.m}"
    family = exactid.FAMILIES.get(name)
    if family is not None and family.params == exactid.TWO_INTS:
        text += " ; args=-10,10"
    try:
        parsed = corpus._family(text, None)
    except corpus.CorpusError as exc:
        raise CliError(str(exc)) from exc
    entry = corpus.RegistryEntry(name, "FINITE_IDENTITY", "proven", "",
                                 "finite", family=parsed)
    return _emit(corpus.run([entry], n_max=args.nmax))


def _parse_basis(text: str):
    """``--basis`` as explicit (d, name) pairs and bare names to scan."""
    fixed = []
    scan_names = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "*" in token:
            d_s, name = token.split("*", 1)
            try:
                fixed.append((int(d_s), name.strip().upper()))
            except ValueError:
                raise CliError(f"bad --basis entry {token!r}: expected"
                               " d*NAME with an integer d") from None
        else:
            scan_names.append(token.upper())
    if not fixed and not scan_names:
        raise CliError(f"--basis {text!r} names no constant")
    return fixed, scan_names


#: the NOT FOUND reason of each basis that gave no candidate
_UNFOUND = {
    relation.NOT_SEARCHED: "no search ran: every moment sum equals its"
                           " first term at the search precision",
    relation.NONE: "no integer relation within the norm bound",
    relation.PRECISION_EXHAUSTED: "the search ran out of precision before"
                                  " it could exclude a relation within the"
                                  " norm bound",
}


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
    reasons = []    # why each basis gave no confirmed relation
    try:
        # one set of search moments serves every basis
        for found in relation.rediscover_each(spec, attempts,
                                              digits=args.digits,
                                              max_norm=args.max_norm,
                                              degree=args.degree):
            if not isinstance(found, relation.Candidate):
                reasons.append(_UNFOUND[found])
            elif found.confirmed:
                break
            else:
                reasons.append("a found relation failed re-verification at"
                               f" {args.digits + args.digits // 2} digits")
        else:
            print("NOT FOUND: " + "; ".join(dict.fromkeys(reasons)))
            return 0
    except sereval.DivergentError as exc:
        raise CliError(f"cannot evaluate the series: {exc}") from exc
    except ValueError as exc:   # e.g. too few digits for a search
        raise CliError(str(exc)) from exc
    ident = found.identity
    # the sequences and m as given: str() refuses an int of more than 4300
    # digits, as a kind's parameter or m may be
    relation_lines = [
        f"term: {_fmt_weight(ident.spec.weight)} ; - ; {args.seq} ;"
        f" m={args.m} ; k0={ident.spec.k0}",
        f"rhs: {_fmt_rhs(ident.rhs)}",
    ]
    # the id names the relation: one search prints the same block each
    # time, and blocks of different relations concatenate into a registry
    digest = hashlib.sha256("\n".join(relation_lines).encode()).hexdigest()
    block = "\n".join([
        f"entry discovered-{digest[:12]}",
        "kind: SERIES",
        "status: conjectural",
        "covers: discovered",
        *relation_lines,
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
    vs.add_argument("--digits", type=_positive_int, default=40)
    add_registry(vs)
    vs.set_defaults(func=_cmd_verify_series)

    vc = vsub.add_parser("congruence", help="check congruences per prime")
    vc.add_argument("--id", default="*", help="registry id glob")
    vc.add_argument("--pmax", type=_positive_int, default=300,
                    help="largest prime tested; dual stops at 200,"
                         " dual-term at 97, refinement at 50, and a case"
                         " table's partition runs to max(1000, PMAX)")
    vc.add_argument("--pn", action="store_true",
                    help="restrict to prime-power refinement checks")
    vc.add_argument("--integrality", action="store_true",
                    help="run integrality/parity checks instead")
    vc.add_argument("--nmax", type=_positive_int, default=128)
    add_registry(vc)
    vc.set_defaults(func=_cmd_verify_congruence)

    ve = vsub.add_parser("exact", help="run exact finite-identity families")
    ve.add_argument("--family", help="family name, e.g. L21_1 or GLAISHER")
    ve.add_argument("--m", type=int, default=None)
    ve.add_argument("--nmax", type=_positive_int, default=300)
    ve.add_argument("--id", default="*", help="registry id glob")
    add_registry(ve)
    ve.set_defaults(func=_cmd_verify_exact)

    run_p = sub.add_parser("run", aliases=["report"],
                           help="verify a slice of the registry")
    run_p.add_argument("--filter", default=None, metavar="GLOB")
    run_p.add_argument("--digits", type=_positive_int, default=40)
    run_p.add_argument("--pmax", type=_positive_int, default=300)
    run_p.add_argument("--nmax", type=_positive_int, default=128)
    run_p.add_argument("--kind", choices=corpus.KINDS, default=None)
    run_p.add_argument("--status", choices=corpus.STATUSES, default=None)
    run_p.add_argument("--format", choices=("text", "tsv"), default="text")
    run_p.add_argument("--out", default=None, metavar="PATH")
    add_registry(run_p)
    run_p.set_defaults(func=_cmd_run)

    disc = sub.add_parser("discover",
                          help="integer-relation search for a closed form")
    disc.add_argument("--seq", required=True,
                      help='sequence factor(s), e.g. "S(1,25)" or CB2^3')
    disc.add_argument("--m", required=True, help="base of the power m^k")
    disc.add_argument("--k0", type=_nonnegative_int, default=0)
    disc.add_argument("--basis", default="inv_pi",
                      help="comma list of constants; bare names scan"
                           " square-free sqrt multipliers, d*name pins one")
    disc.add_argument("--digits", type=_positive_int, default=80)
    disc.add_argument("--max-norm", type=_positive_int, default=10 ** 6)
    disc.add_argument("--degree", type=_nonnegative_int, default=1)
    disc.set_defaults(func=_cmd_discover)

    qf = sub.add_parser("quadform", help="quadratic form helpers")
    qsub = qf.add_subparsers(dest="what", required=True)
    qr = qsub.add_parser("represent",
                         help="solve mu*p = a*x^2 + d*y^2 over nonnegative"
                              " integers")
    qr.add_argument("--mu", type=_positive_int, default=1)
    qr.add_argument("--a", type=_positive_int, default=1)
    qr.add_argument("--d", type=_positive_int, required=True)
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
        code = args.func(args)
        # a reader that went away shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader closed early (``| head``): stop quietly, and
        # point stdout at devnull so the exit-time flush raises no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _CLOSED_PIPE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except corpus.CorpusError as exc:
        print(f"registry error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # after BrokenPipeError, which is an OSError: a --registry or --out
        # path that is missing, a directory or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
