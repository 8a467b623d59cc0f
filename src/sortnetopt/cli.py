"""Command-line interface.

Exit codes: 0 = conclusive, 2 = usage error, 10 = SAT found, 20 = UNSAT
proven, 30 = inconclusive.  A usage error that breaks a rule of the
library carries the library's message: the instance rule
(networks.check_instance) for encode's --n, --depth and --pad,
report.Campaign for find's and prove's spec (which hands --n, --depth
and each --pads entry to the instance rule), solver.SolverConfig for
--timeout.  The CLI states only its own rules: gen's set limits, --jobs
at least 1, and that --cnf and --out open.  The solving subcommands
(solve, find, prove) run the binary named by --solver; without --solver
they run the one solver.find_solver picks, which is $SAT_SOLVER when
that is set and the package's own reference solver when no other is
found.  No solver, or a name that is no executable, is a usage error.
solve hands the --cnf file itself to the solver (solver.solve_file): it reads,
copies and removes nothing, and a --cnf that does not open is a usage
error.  So is an --out that does not open, found before any work: prove
never runs a campaign whose report it could not write.  The prefix and
the solver are checked before --out, so a usage error leaves no new
--out file behind, and an existing one as it was.  audit loads a report
(report.campaign_from_json, which re-verifies its witnesses and audits
its claim) and prints the claim.  find, prove and audit exit by the
claim alone: 10 for T(n) <= d, 20 for T(n) > d, 30 for inconclusive.  A
report that does not open or does not load is a usage error, found
before any work, that carries the loader's message and its $ path.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import shutil
import sys
from pathlib import Path
from typing import Iterable

from . import campaign as campaign_mod
from . import report as report_mod
from . import saturation as saturation_mod
from . import words as words_mod
from .encoding import RULES, EncodeOptions
from .networks import Network, check_instance, two_layer_json
from .solver import DEFAULT_TIMEOUT, SolverConfig, default_config, dimacs_chunks, solve_file

EXIT_OK = 0
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_INCONCLUSIVE = 30

GN_STREAM_LIMIT = 16  # beyond this, gn/sn report counts only

SOLVER_HELP = ("DIMACS solver binary (default: $SAT_SOLVER, else the first known solver "
               "on PATH or in a user bin dir, else the reference solver refsat, built "
               "with cc on first use)")


def _write(path: str, texts: Iterable[str]) -> None:
    """Write the texts one by one as they come, to stdout when path is "-"."""
    with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w") as out:
        for text in texts:
            out.write(text)


def _cmd_gen(args) -> int:
    n, kind = args.n, args.set
    if kind in ("gn", "sn") and n > GN_STREAM_LIMIT:
        count = words_mod.telephone if kind == "gn" else saturation_mod.saturated_layer_count
        lines = [str(count(n))]
    elif kind in ("gn", "sn"):
        # the generated layers are already valid and sorted: no Network is needed
        layers = words_mod.matchings(n) if kind == "gn" else saturation_mod.saturated_layers(n)
        lines = two_layer_json(n, layers)
    else:
        lines = (words_mod.render_sentence(s) for s in words_mod.sentences(n, kind))
    # each line is written as the walk yields it, so the output never sits in memory
    _write(args.out, (line + "\n" for line in lines))
    return EXIT_OK


def _instance(args) -> report_mod.Instance:
    """The spec that encode builds from --n, --depth, --pad and --prefix or
    --prefix-index; ValueError says why a prefix does not fit them."""
    if args.prefix is not None:
        try:
            prefix = Network.from_json(Path(args.prefix).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"--prefix {args.prefix}: {exc}")
    elif args.prefix_index is not None:
        try:
            prefix = report_mod.rn_prefix(args.n, args.prefix_index)
        except ValueError as exc:
            raise ValueError(f"--prefix-index {exc}")
    else:
        prefix = None
    return report_mod.Instance(args.n, args.depth, args.pad, prefix)


def _cmd_encode(args) -> int:
    inst = args.instance
    opts = EncodeOptions(**{rule: getattr(args, rule) for rule in RULES})
    vm, cnf = campaign_mod.instance_formula(inst, opts)
    _write(args.out, itertools.chain([f"c sortnetopt n={args.n} d={args.depth} "
                                      f"inputs={len(vm.inputs)} pad={args.pad}\n"],
                                     dimacs_chunks(cnf)))
    return EXIT_OK


def _solver_config(args) -> SolverConfig:
    """The solver that solve, find and prove run: RuntimeError when none is
    found, ValueError for a name that is no executable."""
    config = default_config(timeout=args.timeout, executable=args.solver)
    if shutil.which(config.executable) is None:
        raise ValueError(f"failed to launch solver {config.executable!r}: no executable "
                         f"by that name")
    return config


def _claim_exit(camp: report_mod.CampaignResult) -> int:
    """The exit code of a campaign's claim, which it makes at its spec's depth."""
    relation = (report_mod.parse_claim(camp.claim) or (None, None))[1]
    return {">": EXIT_UNSAT, "<=": EXIT_SAT}.get(relation, EXIT_INCONCLUSIVE)


def _cmd_solve(args) -> int:
    # the solver reads the user's file itself: no copy, and its log names that file
    res = solve_file(args.cnf, args.config)
    print(f"s {res.verdict}")
    if res.verdict == "TIMEOUT":
        print(res.log, file=sys.stderr)
    if res.verdict == "SAT":
        print("v " + " ".join(str(v) for v in sorted(res.true_vars)) + " 0")
        return EXIT_SAT
    return EXIT_UNSAT if res.verdict == "UNSAT" else EXIT_INCONCLUSIVE


def _cmd_find(args) -> int:
    witness, camp = campaign_mod.find_network_campaign(
        args.n, args.depth, args.mode, args.config, jobs=args.jobs)
    print(witness.to_json() if witness is not None else json.dumps({"claim": camp.claim}))
    return _claim_exit(camp)


def _cmd_prove(args) -> int:
    camp = campaign_mod.prove_lower_bound(args.n, args.depth, args.pads, args.config,
                                          jobs=args.jobs)
    _write(args.out or "-", [report_mod.campaign_to_json(camp) + "\n"])
    return _claim_exit(camp)


def _cmd_audit(args) -> int:
    print(args.campaign.claim)
    return _claim_exit(args.campaign)


def _cmd_tables(args) -> int:
    csv_text, diff = campaign_mod.reproduce_tables(args.max_n)
    _write(args.out, [csv_text])
    if diff:
        sys.stderr.write("differences against the published tables:\n" + diff)
    return EXIT_OK


def _pad_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _usage_error(args) -> str | None:
    """What makes a parsed command line unusable, before any work starts."""
    if args.command == "gen":
        # gn and sn are second layers over the first layer F_n, which needs two channels
        least = 2 if args.set in ("gn", "sn") else 1
        if args.n < least:
            return f"--set {args.set} needs --n >= {least}"
        most = words_mod._LIMITS["s"]
        if args.set == "sn" and args.n > most:
            # past the stream limit sn prints |S_n|, up to the table's last S row
            return f"--set sn needs --n <= {most}, got {args.n}"
    if args.command in ("find", "prove") and args.jobs < 1:
        return f"--jobs must be at least 1, got {args.jobs}"
    # the library states the other rules: the instance rule takes encode's
    # n, depth and pad before --prefix-index walks R_n, find's and prove's
    # Campaign their spec, and SolverConfig the timeout.  The prefix and
    # the solver are read before any file is opened, so a command line
    # that they make unusable leaves no --out file behind
    try:
        if args.command == "encode":
            check_instance(args.n, args.depth, args.pad)
        if args.command in ("find", "prove"):
            report_mod.Campaign(args.n, args.depth, args.mode, args.pads or ())
        args.instance = _instance(args) if args.command == "encode" else None
        args.config = _solver_config(args) if args.command in ("solve", "find", "prove") else None
    except (RuntimeError, ValueError) as exc:
        return str(exc)
    if args.command == "audit":
        try:
            args.campaign = report_mod.campaign_from_json(Path(args.report).read_text())
        except (OSError, ValueError) as exc:
            return str(exc)
    # a file that does not open is found before any work.  --out is opened
    # to append, so a run that fails keeps an older report, and "-" is stdout
    for flag, mode in (("cnf", "rb"), ("out", "a")):
        path = getattr(args, flag, None)
        if path is not None and (flag, path) != ("out", "-"):
            try:
                open(path, mode).close()
            except OSError as exc:
                return f"--{flag} {path}: {exc}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sortnetopt",
                                     description="depth-optimal sorting network toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that several commands share, each declared once
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--n", type=int, required=True)
    size.add_argument("--depth", type=int, required=True)
    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument("--solver", help=SOLVER_HELP)
    solving.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1)

    parsers = {}

    parsers["gen"] = p = sub.add_parser("gen", help="emit prefix sentences or networks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", choices=("gn", "rgn", "sn", "rsn", "rn"), required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    parsers["encode"] = p = sub.add_parser("encode", parents=[size],
                                           help="emit a DIMACS CNF instance")
    fixed = p.add_mutually_exclusive_group()
    fixed.add_argument("--prefix", help="network JSON file fixing the first layers")
    fixed.add_argument("--prefix-index", type=int, help="index into the canonical R_n ordering")
    p.add_argument("--pad", type=int, default=0, help="window padding (0 = off)")
    for rule, off in RULES.items():
        p.add_argument("--no-" + rule.replace("_", "-"), dest=rule, action="store_false",
                       help=off)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    parsers["solve"] = p = sub.add_parser("solve", parents=[solving],
                                          help="run the SAT solver on a DIMACS file")
    p.add_argument("--cnf", required=True)
    p.set_defaults(func=_cmd_solve)

    parsers["find"] = p = sub.add_parser("find", parents=[size, solving, jobs],
                                         help="search for a depth-d sorting network")
    p.add_argument("--mode", choices=report_mod.TASKS, default=report_mod.TASKS[0])
    p.set_defaults(func=_cmd_find, pads=None)

    parsers["prove"] = p = sub.add_parser("prove", parents=[size, solving, jobs],
                                          help="lower-bound campaign over R_n")
    p.add_argument("--pads", type=_pad_list,
                   help="comma-separated pad schedule, largest first "
                        "(default: n-d-1, then 0; 0 alone when n-d-1 < 2)")
    p.add_argument("--out", help="write the JSON campaign report here")
    p.set_defaults(func=_cmd_prove, mode=report_mod.TASKS[0])

    parsers["audit"] = p = sub.add_parser("audit", help="load a report and audit its claim")
    p.add_argument("report", help="JSON campaign report, as prove --out writes it")
    p.set_defaults(func=_cmd_audit)

    parsers["tables"] = p = sub.add_parser("tables", help="emit the count table as CSV")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_tables)

    args = parser.parse_args(argv)
    error = _usage_error(args)
    if error:
        parsers[args.command].error(error)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
