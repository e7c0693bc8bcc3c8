"""Command-line front end.

Subcommands expose the library operations one-to-one with deterministic
machine-readable output: identical inputs produce byte-identical
text/json/csv (data goes to stdout, diagnostics to stderr).  Exit
codes: 0 success, 1 a failed ``verify`` suite or a failed internal
check (two routes disagreed: :class:`InternalInconsistency`), 2 usage
error (:class:`ValueError`), 3 unsupported parameter regime
(:class:`TooLarge`, :class:`IrreducibleSpec`), 141 stdout closed by its
reader (the code a shell reports for a tool ended by SIGPIPE).  A failed
internal check prints one ``error:`` line to stderr, as a refusal does,
and no traceback.

Every command has one grammar, its entry in ``_COMMANDS``: its help and
each flag's type (an int, a string or one of a set of choices) and its
default, a flag without one being required; :func:`run` looks its
handler, ``_cmd_<command>``, up on this module by name.  Two parsers
read it.  :func:`run` first tries a strict one: ``argv[0]`` a command,
the rest ``--flag value`` pairs, each flag the command's own, spelled in
full and given once, no value starting with ``-``, each int read by
``int()`` and each choice checked by membership, and every required flag
present.  What it accepts it returns as the namespace that argparse
would return (the same attributes, ``command`` included), so every
well-formed job runs without loading :mod:`argparse` (nor :mod:`gettext`
and :mod:`locale`, which argparse's messages bring in).  Every other
argv goes, unchanged, to the argparse tree that :func:`build_parser`
makes from the same table: help and usage, every error, and the
spellings only argparse reads (``--p=5``, an abbreviated flag, a
repeated flag, a negative value).  So argparse stays the one source of
help, usage and error text, and a job parses to the same values on
either path.

Every command has one output path.  Its handler computes and checks,
then returns its JSON payload and its text or CSV lines; only then does
:func:`run` print, so a check that raises leaves stdout empty.  The
payload follows the JSON rule of ``phi.Record``'s docstring: the fields
of the report printed (one object per row for ``growth``), or of the
input spec or key plus what ``phi``, ``witness`` or ``enumerate`` finds.
``--format json`` prints it with ``"command"`` added as one sorted-key
object, and only that branch imports :mod:`json`; any other format
prints the lines, one ``print`` each.  A payload with ``"passed":
false`` (a failed ``verify`` suite) exits 1.

``verify`` is the only command that may start worker processes; set the
environment variable TRICIRC_WORKERS to a positive integer to enable
that.  ``verify.run_suite`` forks at most min(TRICIRC_WORKERS, cases,
CPUs) - 1 children, counting the CPUs this process may run on (its
affinity set where the platform has one, else ``os.cpu_count()``); a
larger value is not an error, only capped.  It runs in order in-process
where ``os.fork`` does not exist, and merges results in case order, so
output bytes do not depend on the worker count.

``enumerate`` checks the size of the class it prints against |a(r, s)|
of the determinant polynomial: it admits p up to ``phi.SEARCH_LIMIT``,
past ``verify.EXHAUSTIVE_PMAX``, the largest p at which the ``cycle``
suite compares the class search with brute force.
Its members must be strictly increasing in one-line notation, as the
search sorts them, so none is listed twice, and each must fit the
class's structure, the check that ``witness`` runs on its member.
``phi`` checks the reduction it prints, ``canonical_q`` and
``swapped``, against the rule of ``phi.reduce_theta``'s docstring.
``witness`` checks the member it prints against the structure it
reports: the member has ``k`` cycles, each takes the class's numbers of
1-steps and q-steps and no other step, and its sign is ``sign``.

Each command imports only the modules it uses.  Every command loads
this module, :mod:`tricirc.phi` (the spec, Newton's identities, the
class key and the coefficient report), :mod:`tricirc.bipoly` and
:mod:`tricirc.errors`; text-format ``phi`` and ``coeff`` load nothing
more, and ``--help`` adds only :mod:`argparse` and what it imports.
Beyond those:

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
``phi.Record`` subclasses), :mod:`cmath` or :mod:`fractions` (only the
advisory float check uses them; the permanent's lower bound is a
``permanent.Ratio`` of two integers).

``verify`` owns its suite names and default sizes, and refuses an
unknown ``--suite`` or a flag that the suite does not read (exit 2).

Exit rule: a CLI process ends in :func:`main`.  Once the command has
returned and stdout is flushed (or pointed at the null device after a
closed pipe), it calls :func:`gc.freeze`, then ``sys.exit``, so the full
collections of interpreter finalization skip the heap, which the
operating system reclaims anyway; atexit handlers, the final stdio
flush and module teardown still run.  :func:`run` never freezes and
never loads :mod:`gc`, so a caller in process (the tests, the
benchmark's in-process passes) keeps a normal collector.  Only
``verify``'s forked children skip finalization, through ``os._exit`` in
``verify._child_share``.
"""

import os
import sys
from math import gcd
from types import SimpleNamespace

from . import phi as phimod
from .errors import InternalInconsistency, IrreducibleSpec, TooLarge
from .phi import SEARCH_LIMIT, CirculantSpec, PermClassKey

WORKERS_ENV = "TRICIRC_WORKERS"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_PIPE = 141


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
# subcommands: each returns (JSON payload without "command", text lines)
# ---------------------------------------------------------------------------

def _cmd_phi(args) -> tuple[dict, list[str]]:
    spec = CirculantSpec(args.p, args.q, args.t)
    reduced = phimod.reduce_theta(spec)
    canon = reduced.spec
    p, q, t = spec.p, spec.q, spec.t
    swapped = gcd(t, p) > 1  # then q' = t/q, else q' = q/t
    unit, image = (q, t) if swapped else (t, q)
    if (canon.p, canon.t, canon.q * unit % p, reduced.swapped) != (p, 1, image, swapped):
        raise InternalInconsistency(
            f"{spec} reduced to {canon} with swapped = {reduced.swapped}, but "
            f"the rule needs q' * {unit} = {image} mod {p} with swapped = {swapped}"
        )
    poly = phimod.phi_polynomial(canon.p, canon.q, args.backend)
    if canon != spec:  # only once computed, so a failure prints one line
        way = phimod.canonical_images(spec.p, spec.q, spec.t)[canon.q]
        poly = phimod.from_image(poly.terms, spec.p, way)
        note = f"note: reduced to q' = {canon.q}"
        if reduced.swapped:
            note += " with x and y exchanged"
        print(note, file=sys.stderr)
    payload = {
        **spec.to_json_dict(),
        "canonical_q": canon.q,
        "swapped": reduced.swapped,
        "backend": args.backend or phimod.default_backend(canon.p, canon.q),
        "polynomial": poly.to_json_dict(),
    }
    return payload, [poly.render()]


def _cmd_coeff(args) -> tuple[dict, list[str]]:
    rep = phimod.coefficient(args.p, args.q, args.r, args.s, args.backend)
    if rep.present:
        line = (
            f"a({rep.r},{rep.s}) = {rep.value} "
            f"[ell={rep.ell} k={rep.k} sign={rep.sign:+d} magnitude={rep.magnitude}]"
        )
    else:
        line = f"a({rep.r},{rep.s}) = 0 [absent]"
    return rep.to_json_dict(), [line]


def _cmd_witness(args) -> tuple[dict, list[str]]:
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
    payload = {
        **key.to_json_dict(), "k": rep.k, "sign": rep.sign,
        "one_line": sigma.images, "cycles": cycles,
    }
    return payload, [sigma.one_line(), permclass.cycle_notation(cycles)]


def _cmd_enumerate(args) -> tuple[dict, list[str]]:
    from . import permclass
    key = PermClassKey(args.p, args.q, args.r, args.s)
    members = permclass.enumerate_class(key)
    size = abs(phimod.phi_polynomial(args.p, args.q).coefficient(args.r, args.s))
    if len(members) != size:
        raise InternalInconsistency(
            f"{len(members)} members enumerated for {key}, but |a(r, s)| = {size}"
        )
    for before, m in zip(members, members[1:]):
        if before.images >= m.images:
            raise InternalInconsistency(
                f"member {m.one_line()} of {key} follows {before.one_line()}: "
                "the members are not strictly increasing"
            )
    if members:
        rep = permclass.predict_structure(key)
        for m in members:
            if not rep.fits(m.cycles(), args.p, args.q):
                raise InternalInconsistency(
                    f"member {m.one_line()} of {key} does not fit {rep}"
                )
    payload = {
        **key.to_json_dict(), "count": len(members),
        "members": [m.images for m in members],
    }
    return payload, [m.one_line() for m in members]


def _cmd_permanent(args) -> tuple[dict, list[str]]:
    from . import permanent as permmod
    rep = permmod.bounds_report(args.p, args.q, args.backend)
    lines = []
    for name in rep.__slots__[2:]:  # every field after p and q
        value = getattr(rep, name)
        lines.append(f"{name} = {str(value).lower() if isinstance(value, bool) else value}")
    return rep.to_json_dict(), lines


def _cmd_growth(args) -> tuple[dict, list[str]]:
    from . import permanent as permmod
    rows = permmod.growth_table(args.q, args.pmax)
    payload = {"rows": [r.to_json_dict() for r in rows]}
    return payload, permmod.growth_table_csv(rows).splitlines()


def _cmd_verify(args) -> tuple[dict, list[str]]:
    from . import verify as verifymod
    res = verifymod.run_suite(
        args.suite,
        args.pmax,
        args.q_policy,
        args.cases,
        workers=_worker_count(),
    )
    shown = " ".join(f"{k}={v}" for k, v in sorted(res.parameters.items()))
    lines = [f"suite={res.suite} {shown} cases={res.cases} failures={res.failures}"]
    if res.first_counterexample:
        lines.append(f"first_counterexample: {res.first_counterexample}")
    return res.to_json_dict(), lines


# ---------------------------------------------------------------------------
# parser: one command table, read by the fast parse and by build_parser
# ---------------------------------------------------------------------------

_FORMAT = ("text", "json")

#: command -> (help, flags); each flag -> (type,) if it is required,
#: else (type, default), where the type is int, str or a tuple of the
#: flag's choices; the command's handler is ``_cmd_<command>``
_COMMANDS = {
    "phi": ("print the determinant polynomial", {
        "--p": (int,), "--q": (int,), "--t": (int, 1),
        "--backend": (phimod.BACKENDS, None), "--format": (_FORMAT, "text"),
    }),
    "coeff": ("report one coefficient a(r, s)", {
        "--p": (int,), "--q": (int,), "--r": (int,), "--s": (int,),
        "--backend": (phimod.BACKENDS, None), "--format": (_FORMAT, "text"),
    }),
    "witness": ("construct one class member", {
        "--p": (int,), "--q": (int,), "--r": (int,), "--s": (int,),
        "--format": (_FORMAT, "text"),
    }),
    "enumerate": (f"list a whole class (p <= {SEARCH_LIMIT})", {
        "--p": (int,), "--q": (int,), "--r": (int,), "--s": (int,),
        "--format": (_FORMAT, "text"),
    }),
    "permanent": ("permanent value and bounds", {
        "--p": (int,), "--q": (int,),
        "--backend": (phimod.BACKENDS, None), "--format": (_FORMAT, "text"),
    }),
    "growth": ("max-coefficient growth table", {
        "--q": (int,), "--pmax": (int,), "--format": (("csv", "json"), "csv"),
    }),
    "verify": ("run a named verification suite", {
        "--suite": (str,), "--pmax": (int, None),
        "--q-policy": (("all", "coprime"), "all"), "--cases": (int, None),
        "--format": (_FORMAT, "text"),
    }),
}


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that argparse returns for a well-formed argv (see the
    module docstring), else None, which leaves the argv to argparse."""
    entry = _COMMANDS.get(argv[0]) if len(argv) % 2 else None
    if entry is None:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) + 1 != len(argv):  # a flag given twice
        return None
    args = SimpleNamespace(command=argv[0])
    for flag, (kind, *default) in entry[1].items():
        value = given.pop(flag, None)
        if value is None:
            if not default:
                return None
            value = default[0]
        elif value.startswith("-"):
            return None
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        setattr(args, flag[2:].replace("-", "_"), value)
    return None if given else args  # a flag left over is not the command's


def build_parser() -> "argparse.ArgumentParser":
    """The argparse tree of the command table: help, usage and error text."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="tricirc",
        description=(
            "Exact determinant and permanent combinatorics of the p x p "
            "circulant with bands 1, -x, -y at offsets 0, t, q."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        for flag, (kind, *default) in flags.items():
            kwargs = {"default": default[0]} if default else {"required": True}
            if kind is int:
                kwargs["type"] = int
            elif kind is not str:
                kwargs["choices"] = kind
            sp.add_argument(flag, **kwargs)
    return parser


def run(argv=None) -> int:
    """Parse, compute, then print the command's JSON or its lines; returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast_parse(argv)
    if args is None:  # help, usage and every error are argparse's
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else EXIT_USAGE
    try:
        payload, lines = globals()[f"_cmd_{args.command}"](args)
    except (ValueError, InternalInconsistency) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (IrreducibleSpec, TooLarge)):
            return EXIT_UNSUPPORTED
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_FAILED
    if args.format == "json":
        import json
        print(json.dumps({**payload, "command": args.command}, sort_keys=True))
    else:
        for line in lines:  # one print each, so a reader that closed stdout
            print(line)  # early is seen at the next line's write
    return EXIT_OK if payload.get("passed", True) else EXIT_FAILED


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at the null device so that
        # the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    import gc  # the exit rule (module docstring): only here, only now
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
