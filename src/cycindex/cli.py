"""Command-line front end.

Exit codes: 0 success/verified, 1 verification mismatch, 2 usage error,
3 work cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

from .caps import DEFAULT_CAPS, CapExceeded, Caps, caps_from_env
from .catalog import default_catalog, load_catalog
from .characters import (LinearCharacter, enumerate_linear_characters, product_character,
                         wreath_character)
from .grammar import GroupSpec, SpecError, parse_character, parse_group
from .orbits import census_json, census_tsv, full_census, weighted_sum_g
from .perms import cycle_string, direct_product_embed, wreath_embed
from .polys import cycle_index, plethysm_insert, psum_mul, specialize
from .projector import MonomialModule, verify_basis_prop

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3


@dataclass
class JobSpec:
    command: str
    group_expr: str = ""
    char_sel: str = "unit"
    n: int | None = None
    group2_expr: str | None = None
    char2_sel: str | None = None
    fmt: str = "text"
    caps: Caps = DEFAULT_CAPS
    tamper: bool = False

    def describe(self) -> str:
        bits = [self.command, f"group={self.group_expr}", f"char={self.char_sel}"]
        if self.group2_expr is not None:
            bits.append(f"group2={self.group2_expr}")
        if self.char2_sel is not None:
            bits.append(f"char2={self.char2_sel}")
        if self.n is not None:
            bits.append(f"n={self.n}")
        return " ".join(bits)


def _tampered(chi: LinearCharacter) -> LinearCharacter:
    """A deliberately corrupted copy of the value table (fault injection)."""
    if chi.group.order < 2:
        raise SpecError("cannot tamper with the character of a trivial group")
    m = max(chi.order_m, 2)
    scale = m // chi.order_m
    exponents = [e * scale for e in chi.exponents]
    exponents[1] = (exponents[1] + 1) % m
    return LinearCharacter(chi.group, m, tuple(exponents), name="tampered")


def run(spec: JobSpec) -> tuple[int, str]:
    """Execute one job; returns (exit code, rendered output).

    Fails closed: any exception ends as one output line, so one bad job
    cannot stop a suite.  Running out of memory counts as a cap hit; any
    other unexpected exception is an internal error with exit code 1.
    """
    try:
        return _dispatch(spec)
    except CapExceeded as exc:
        return EXIT_CAP, f"cap exceeded: {exc}\n"
    except SpecError as exc:
        return EXIT_USAGE, f"usage error: {exc}\n"
    except MemoryError:
        return EXIT_CAP, "cap exceeded: out of memory\n"
    except Exception as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        return EXIT_MISMATCH, f"internal error: {detail}\n"


def _dispatch(spec: JobSpec) -> tuple[int, str]:
    group_spec = parse_group(spec.group_expr, caps=spec.caps)
    if spec.command == "characters":
        return _run_characters(spec, group_spec)
    chi = parse_character(spec.char_sel, group_spec, caps=spec.caps)
    if spec.command == "cycle-index":
        Z = cycle_index(group_spec.group, chi)
        body = json.dumps(Z.to_json(), indent=2) if spec.fmt == "json" else Z.render_text()
        return EXIT_OK, body + "\n"
    if spec.command == "gn":
        g = weighted_sum_g(group_spec.group, chi, _need_n(spec), caps=spec.caps)
        body = json.dumps(g.to_json(), indent=2) if spec.fmt == "json" else g.render_text()
        return EXIT_OK, body + "\n"
    if spec.command == "orbits":
        table = full_census(group_spec.group, chi, _need_n(spec), caps=spec.caps)
        return EXIT_OK, census_json(table) if spec.fmt == "json" else census_tsv(table)
    if spec.command == "verify":
        return _run_verify(spec, group_spec, chi)
    if spec.command == "verify-basis":
        module = MonomialModule(group_spec.group, _need_n(spec), caps=spec.caps)
        report = verify_basis_prop(module, chi)
        body = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        return (EXIT_OK if report.ok else EXIT_MISMATCH), body
    if spec.command == "verify-product":
        return _run_product(spec, group_spec, chi)
    if spec.command == "verify-plethysm":
        return _run_plethysm(spec, group_spec, chi)
    raise SpecError(f"unknown command {spec.command!r}")


def _need_n(spec: JobSpec) -> int:
    if spec.n is None:
        raise SpecError(f"{spec.command} requires --n")
    if spec.n < 0:
        raise SpecError("--n must be nonnegative")
    return spec.n


def _second_pair(spec: JobSpec) -> tuple[GroupSpec, LinearCharacter]:
    if spec.group2_expr is None:
        raise SpecError(f"{spec.command} requires --group2")
    second = parse_group(spec.group2_expr, caps=spec.caps)
    theta = parse_character(spec.char2_sel or "unit", second, caps=spec.caps)
    return second, theta


def _run_characters(spec: JobSpec, group_spec: GroupSpec) -> tuple[int, str]:
    chars = enumerate_linear_characters(group_spec.group, caps=spec.caps)
    G = group_spec.group
    if spec.fmt == "json":
        payload = {
            "group": group_spec.text,
            "order": G.order,
            "character_order_m": chars[0].order_m,
            "characters": [
                {"selector": f"index:{k}",
                 "image_order": chi.image_order(),
                 "generator_exponents": {cycle_string(g): chi.exponent(g)
                                         for g in G.generators}}
                for k, chi in enumerate(chars)
            ],
        }
        return EXIT_OK, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"group {group_spec.text}: order {G.order}, "
             f"{len(chars)} linear character(s), values in Q(zeta_{chars[0].order_m})"]
    for k, chi in enumerate(chars):
        gen_vals = ", ".join(f"{cycle_string(g)} -> zeta^{chi.exponent(g)}"
                             for g in G.generators) or "trivial group"
        lines.append(f"  index:{k}  image order {chi.image_order()}  {gen_vals}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _run_verify(spec: JobSpec, group_spec: GroupSpec,
                chi: LinearCharacter) -> tuple[int, str]:
    n = _need_n(spec)
    lhs = weighted_sum_g(group_spec.group, chi, n, caps=spec.caps)
    chi_alg = _tampered(chi) if spec.tamper else chi
    rhs = specialize(cycle_index(group_spec.group, chi_alg), n, caps=spec.caps)
    equal = lhs == rhs
    if spec.fmt == "json":
        payload = {"group": group_spec.text, "char": spec.char_sel, "n": n,
                   "equal": equal, "lhs": lhs.to_json(), "rhs": rhs.to_json()}
        return (EXIT_OK if equal else EXIT_MISMATCH,
                json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if equal:
        return EXIT_OK, (lhs.render_text() or "0") + "\n"
    return EXIT_MISMATCH, (f"MISMATCH for group={group_spec.text} char={spec.char_sel} n={n}\n"
                           f"  orbit side:       {lhs.render_text() or '0'}\n"
                           f"  cycle-index side: {rhs.render_text() or '0'}\n")


def _run_product(spec: JobSpec, group_spec: GroupSpec,
                 chi: LinearCharacter) -> tuple[int, str]:
    n = None if spec.n is None else _need_n(spec)
    second, theta = _second_pair(spec)
    embedded = direct_product_embed(group_spec.group, second.group, spec.caps)
    lam = product_character(chi, theta, embedded)
    lhs = cycle_index(embedded, lam)
    rhs = psum_mul(cycle_index(group_spec.group, chi),
                   cycle_index(second.group, theta), spec.caps)
    equal = lhs == rhs
    lines = [f"product rule {spec.group_expr}[{spec.char_sel}] x "
             f"{spec.group2_expr}[{spec.char2_sel or 'unit'}]: "
             f"{'ok' if equal else 'MISMATCH'}"]
    if not equal:
        lines += [f"  embedded cycle index: {lhs.render_text()}",
                  f"  product of indices:   {rhs.render_text()}"]
    if equal and n is not None:
        g_brute = weighted_sum_g(embedded, lam, n, caps=spec.caps)
        g_alg = specialize(lhs, n, caps=spec.caps)
        equal = g_brute == g_alg
        lines.append(f"  specialization at n={n}: {'ok' if equal else 'MISMATCH'}")
    return (EXIT_OK if equal else EXIT_MISMATCH), "\n".join(lines) + "\n"


def _run_plethysm(spec: JobSpec, group_spec: GroupSpec,
                  chi: LinearCharacter) -> tuple[int, str]:
    second, theta = _second_pair(spec)
    wreath = wreath_embed(second.group, group_spec.group, caps=spec.caps)
    mu = wreath_character(theta, chi, wreath)
    lhs = cycle_index(wreath, mu)
    rhs = plethysm_insert(cycle_index(group_spec.group, chi),
                          cycle_index(second.group, theta), spec.caps)
    equal = lhs == rhs
    lines = [f"insertion rule {spec.group_expr}[{spec.char_sel}] o "
             f"{spec.group2_expr}[{spec.char2_sel or 'unit'}]: "
             f"{'ok' if equal else 'MISMATCH'}"]
    if not equal:
        lines += [f"  wreath cycle index: {lhs.render_text()}",
                  f"  plethysm insert:    {rhs.render_text()}"]
    return (EXIT_OK if equal else EXIT_MISMATCH), "\n".join(lines) + "\n"


def job_spec(job: dict, caps: Caps = DEFAULT_CAPS) -> JobSpec:
    """The JobSpec of one catalog job; SpecError names a malformed field."""
    def refuse(problem: str) -> SpecError:
        return SpecError(f"catalog job {problem}: {job!r}")
    if not isinstance(job.get("command"), str):
        raise refuse("without a command")
    if "n" in job and (type(job["n"]) is not int or job["n"] < 0):
        raise refuse("with n not a nonnegative integer")
    for key in ("group", "char", "group2", "char2"):
        if key in job and not isinstance(job[key], str):
            raise refuse(f"with {key} not a string")
    tamper = job.get("tamper_character", False)
    if type(tamper) is not bool:
        raise refuse("with tamper_character not a boolean")
    if tamper and job["command"] != "verify":
        raise refuse("with tamper_character on a command other than verify")
    return JobSpec(command=job["command"], group_expr=job.get("group", ""),
                   char_sel=job.get("char", "unit"), n=job.get("n"),
                   group2_expr=job.get("group2"), char2_sel=job.get("char2"),
                   caps=caps, tamper=tamper)


def run_suite(jobs: list[dict], caps: Caps, fmt: str = "text") -> tuple[int, str]:
    """Run every catalog job; aggregate failures, outputs in catalog order."""
    if not jobs:
        return EXIT_USAGE, "usage error: the catalog is empty\n"
    try:
        specs = [job_spec(job, caps) for job in jobs]
    except SpecError as exc:
        return EXIT_USAGE, f"usage error: {exc}\n"
    lines = []
    summary = []
    worst = EXIT_OK
    for spec in specs:
        code, output = run(spec)
        status = {EXIT_OK: "ok", EXIT_MISMATCH: "FAIL",
                  EXIT_USAGE: "ERROR", EXIT_CAP: "CAP"}[code]
        lines.append(f"{status:5s} {spec.describe()}")
        if code == EXIT_MISMATCH:
            lines.extend("      " + line for line in output.rstrip("\n").splitlines())
        summary.append({"job": spec.describe(), "status": status})
        if code == EXIT_MISMATCH:
            worst = EXIT_MISMATCH if worst in (EXIT_OK, EXIT_CAP) else worst
        elif code != EXIT_OK and worst == EXIT_OK:
            worst = code
    passed = sum(1 for s in summary if s["status"] == "ok")
    lines.append(f"suite: {passed}/{len(summary)} jobs passed")
    if fmt == "json":
        body = json.dumps({"jobs": summary, "passed": passed,
                           "total": len(summary)}, indent=2) + "\n"
    else:
        body = "\n".join(lines) + "\n"
    return worst, body


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycindex",
        description="Exact generalized cycle indices and their brute-force verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=False, pair=False):
        p.add_argument("--group", required=True, help="group expression, e.g. S(3)")
        p.add_argument("--char", default="unit",
                       help="character selector: unit, sign, index:k, vals{...}")
        p.add_argument("--n", type=int, required=need_n,
                       help="number of figure values minus one (variables x0..xn)")
        if pair:
            p.add_argument("--group2", required=True)
            p.add_argument("--char2", default="unit")
        p.add_argument("--format", dest="fmt", choices=("text", "json", "tsv"),
                       default="text")
        p.add_argument("--cap", type=int, default=None,
                       help="override the work cap")

    common(sub.add_parser("characters", help="list the linear characters"))
    common(sub.add_parser("cycle-index", help="print the generalized cycle index"))
    common(sub.add_parser("orbits", help="orbit census on [0,n]^d"), need_n=True)
    common(sub.add_parser("gn", help="weighted orbit polynomial g_n"), need_n=True)
    common(sub.add_parser("verify", help="compare g_n with the specialized cycle index"),
           need_n=True)
    common(sub.add_parser("verify-product", help="product rule check"), pair=True)
    common(sub.add_parser("verify-plethysm", help="insertion rule check"), pair=True)
    common(sub.add_parser("verify-basis", help="projector/basis check"), need_n=True)

    suite = sub.add_parser("suite", help="run a verification catalog")
    suite.add_argument("--catalog", default=None, help="path to a JSON catalog")
    suite.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    suite.add_argument("--cap", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        caps = caps_from_env()
    except ValueError as exc:
        sys.stdout.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    if args.cap is not None:
        if args.cap < 0:
            sys.stdout.write(f"usage error: --cap must be a nonnegative integer, got {args.cap}\n")
            return EXIT_USAGE
        caps = replace(caps, orbit_work=args.cap)
    if args.command == "suite":
        try:
            jobs = default_catalog(caps=caps) if args.catalog is None \
                else load_catalog(args.catalog)
        except (OSError, ValueError) as exc:
            sys.stdout.write(f"usage error: {exc}\n")
            return EXIT_USAGE
        except CapExceeded as exc:
            sys.stdout.write(f"cap exceeded: {exc}\n")
            return EXIT_CAP
        code, output = run_suite(jobs, caps, fmt=args.fmt)
        sys.stdout.write(output)
        return code
    spec = JobSpec(
        command=args.command,
        group_expr=args.group,
        char_sel=args.char,
        n=getattr(args, "n", None),
        group2_expr=getattr(args, "group2", None),
        char2_sel=getattr(args, "char2", None),
        fmt=args.fmt,
        caps=caps,
    )
    code, output = run(spec)
    sys.stdout.write(output)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
