"""Command-line front end.

Subcommands expose the library operations one-to-one with deterministic
machine-readable output: identical inputs produce byte-identical
text/json/csv (data goes to stdout, diagnostics to stderr).  Exit
codes: 0 success, 1 a failed ``verify`` suite or a failed internal
check (two routes disagreed: :class:`InternalInconsistency`), 2 usage
error, 3 unsupported parameter regime.

``verify`` is the only command that may start worker processes; set the
environment variable TRICIRC_WORKERS to a positive integer to enable
that.  ``verify.run_suite`` forks at most min(TRICIRC_WORKERS, cases,
CPUs) - 1 children, counting the CPUs this process may run on (its
affinity set where the platform has one, else ``os.cpu_count()``); a
larger value is not an error, only capped.  It runs in order in-process
where ``os.fork`` does not exist, and merges results in case order, so
output bytes do not depend on the worker count.

``enumerate`` checks the size of the class it prints against |a(r, s)|
of the determinant polynomial: it admits p = 10, one past the largest p
at which the ``cycle`` suite compares the class search with brute force.
``witness`` checks the member it prints against the structure it
reports: the member has ``k`` cycles, each takes the class's numbers of
1-steps and q-steps and no other step, and its sign is ``sign``.

Each command imports only the modules it uses.  Every command loads
this module, :mod:`tricirc.phi` (the spec, Newton's identities, the
class key and the coefficient report), :mod:`tricirc.bipoly` and
:mod:`tricirc.errors`; ``--help`` and text-format ``phi`` and ``coeff``
load nothing more, and :mod:`json` only when ``--format json`` is
given.  Beyond those:

* ``phi`` and ``coeff`` with a ``--backend`` other than ``newton`` load
  :mod:`tricirc.circulant`, the home of the cross-check routes;
* ``witness`` and ``enumerate`` load :mod:`tricirc.permclass`;
* ``permanent`` and ``growth`` load :mod:`tricirc.permanent` and,
  through it, :mod:`tricirc.circulant`;
* ``verify`` loads :mod:`tricirc.verify` and the routes of its suite:
  ``support`` and ``sign`` add :mod:`tricirc.circulant`, ``cycle`` adds
  it and :mod:`tricirc.permclass`, ``permanent`` adds
  :mod:`tricirc.permanent` (and through it :mod:`tricirc.circulant`),
  ``witness`` and ``lemmas`` add :mod:`tricirc.permclass` alone, and
  ``prime`` adds nothing.

No command loads :mod:`dataclasses` (the value classes are
``phi.Record`` subclasses) or :mod:`cmath` (only the advisory float
check uses it), and only those that load :mod:`tricirc.permanent`
load :mod:`fractions`, for its lower bound.

``verify`` owns its suite names and default sizes, and refuses an
unknown ``--suite`` or a flag that the suite does not read (exit 2).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import phi as phimod
from .errors import (
    InternalInconsistency, IrreducibleSpec, StateSpaceTooLarge, TooLarge,
)
from .phi import CirculantSpec, PermClassKey, reduce_theta

WORKERS_ENV = "TRICIRC_WORKERS"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


def _emit_json(payload: dict) -> None:
    import json
    print(json.dumps(payload, sort_keys=True))


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError(f"{WORKERS_ENV} must be positive, got {n}")
    return n


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_phi(args) -> int:
    spec = CirculantSpec(args.p, args.q, args.t)
    reduced = reduce_theta(spec)
    canon = reduced.spec
    if canon != spec:
        note = f"note: reduced to q' = {canon.q}"
        if reduced.swapped:
            note += " with x and y exchanged"
        print(note, file=sys.stderr)
    poly = phimod.phi_polynomial(canon.p, canon.q, args.backend)
    if reduced.swapped:
        poly = poly.swap_xy()
    if args.format == "json":
        _emit_json(
            {
                "command": "phi",
                "p": spec.p,
                "q": spec.q,
                "t": spec.t,
                "canonical_q": canon.q,
                "swapped": reduced.swapped,
                "backend": args.backend or phimod.default_backend(canon.p, canon.q),
                "polynomial": poly.to_json_dict(),
            }
        )
    else:
        print(poly.render())
    return EXIT_OK


def _cmd_coeff(args) -> int:
    rep = phimod.coefficient(args.p, args.q, args.r, args.s, args.backend)
    if args.format == "json":
        payload = rep.to_json_dict()
        payload["command"] = "coeff"
        _emit_json(payload)
    elif rep.present:
        print(
            f"a({rep.r},{rep.s}) = {rep.value} "
            f"[ell={rep.ell} k={rep.k} sign={rep.sign:+d} magnitude={rep.magnitude}]"
        )
    else:
        print(f"a({rep.r},{rep.s}) = 0 [absent]")
    return EXIT_OK


def _cmd_witness(args) -> int:
    from . import permclass
    key = PermClassKey(args.p, args.q, args.r, args.s)
    sigma = permclass.construct_witness(key)
    rep = permclass.predict_structure(key)
    cycles = sigma.cycles()
    if not rep.fits(cycles, args.p, args.q):
        ones, qs = rep.cycles_each
        raise InternalInconsistency(
            f"the witness for {key} has {len(cycles)} cycles and sign "
            f"{sigma.sign():+d}, but its class has k = {rep.k} cycles of "
            f"{ones} 1-steps and {qs} q-steps and sign {rep.sign:+d}"
        )
    if args.format == "json":
        _emit_json(
            {
                "command": "witness",
                "p": args.p,
                "q": args.q,
                "r": args.r,
                "s": args.s,
                "k": rep.k,
                "sign": rep.sign,
                "one_line": list(sigma.images),
                "cycles": [list(c) for c in cycles],
            }
        )
    else:
        print(sigma.one_line())
        print(permclass.cycle_notation(cycles))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from . import permclass
    key = PermClassKey(args.p, args.q, args.r, args.s)
    members = permclass.enumerate_class(key)
    size = abs(phimod.phi_polynomial(args.p, args.q).coefficient(args.r, args.s))
    if len(members) != size:
        raise InternalInconsistency(
            f"{len(members)} members enumerated for {key}, but |a(r, s)| = {size}"
        )
    if args.format == "json":
        _emit_json(
            {
                "command": "enumerate",
                "p": args.p,
                "q": args.q,
                "r": args.r,
                "s": args.s,
                "count": len(members),
                "members": [list(m.images) for m in members],
            }
        )
    else:
        for m in members:
            print(m.one_line())
    return EXIT_OK


def _cmd_permanent(args) -> int:
    from . import permanent as permmod
    rep = permmod.bounds_report(args.p, args.q, args.backend)
    if args.format == "json":
        payload = rep.to_json_dict()
        payload["command"] = "permanent"
        _emit_json(payload)
    else:
        print(f"d11 = {rep.d11}")
        print(f"abs_sum = {rep.abs_sum}")
        print(f"max_coeff = {rep.max_coeff}")
        print(f"n_monomials = {rep.n_monomials}")
        print(f"lower_bound = {rep.lower_bound}")
        print(f"upper_bound = {rep.upper_bound}")
        print(f"lower_ok = {str(rep.lower_ok).lower()}")
        print(f"upper_ok = {str(rep.upper_ok).lower()}")
        print(f"sandwich_ok = {str(rep.sandwich_ok).lower()}")
    return EXIT_OK


def _cmd_growth(args) -> int:
    from . import permanent as permmod
    rows = permmod.growth_table(args.q, args.pmax)
    if args.format == "json":
        _emit_json(
            {"command": "growth", "rows": [r.to_json_dict() for r in rows]}
        )
    else:
        sys.stdout.write(permmod.growth_table_csv(rows))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify as verifymod
    res = verifymod.run_suite(
        args.suite,
        args.pmax,
        args.q_policy,
        args.cases,
        args.seed,
        workers=_worker_count(),
    )
    if args.format == "json":
        payload = res.to_json_dict()
        payload["command"] = "verify"
        _emit_json(payload)
    else:
        shown = " ".join(f"{k}={v}" for k, v in sorted(res.parameters.items()))
        print(f"suite={res.suite} {shown} cases={res.cases} failures={res.failures}")
        if res.first_counterexample:
            print(f"first_counterexample: {res.first_counterexample}")
    return EXIT_OK if res.passed else EXIT_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_format(sub, choices=("text", "json"), default="text"):
    sub.add_argument("--format", choices=choices, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricirc",
        description=(
            "Exact determinant and permanent combinatorics of the p x p "
            "circulant with bands 1, -x, -y at offsets 0, t, q."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    backend_choices = tuple(sorted(phimod.BACKENDS))

    sp = subs.add_parser("phi", help="print the determinant polynomial")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--backend", choices=backend_choices, default=None)
    _add_format(sp)
    sp.set_defaults(func=_cmd_phi)

    sp = subs.add_parser("coeff", help="report one coefficient a(r, s)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--backend", choices=backend_choices, default=None)
    _add_format(sp)
    sp.set_defaults(func=_cmd_coeff)

    sp = subs.add_parser("witness", help="construct one class member")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    _add_format(sp)
    sp.set_defaults(func=_cmd_witness)

    sp = subs.add_parser("enumerate", help="list a whole class (p <= 10)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    _add_format(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = subs.add_parser("permanent", help="permanent value and bounds")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--backend", choices=backend_choices, default=None)
    _add_format(sp)
    sp.set_defaults(func=_cmd_permanent)

    sp = subs.add_parser("growth", help="max-coefficient growth table")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--pmax", type=int, required=True)
    _add_format(sp, choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_growth)

    sp = subs.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--pmax", type=int, default=None)
    sp.add_argument(
        "--q-policy", dest="q_policy", choices=("all", "coprime"), default="all"
    )
    sp.add_argument("--cases", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    _add_format(sp)
    sp.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (IrreducibleSpec, StateSpaceTooLarge, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
