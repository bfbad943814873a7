"""Command-line interface: every computation as a subcommand with JSON
output (exit 0 success, 2 validation error, 3 ambiguous/non-convergent).

Each command imports what it uses, so that the exact commands (``cl-table``,
``spin-cover`` on exact input) start without loading numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .clifford import QuadraticForm, blade_name, blade_sign

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_AMBIGUOUS = 3


def _parse_signs(text: Optional[str], dim: int):
    if text is None:
        return (1,) * dim
    if isinstance(text, list):
        # argparse reads an option value of exactly "--" as the end-of-options
        # marker and passes what follows it, here nothing, as a list
        raise ValueError("signs must be a string of '+' and '-'; "
                         "write '--' as '-,-' (argparse reads '--' as end of options)")
    cleaned = text.replace(",", "").replace(" ", "")
    table = {"+": 1, "-": -1}
    try:
        signs = tuple(table[c] for c in cleaned)
    except KeyError:
        raise ValueError("signs must be a string of '+' and '-'")
    if len(signs) != dim:
        raise ValueError("signs length must equal the dimension")
    return signs


def _emit(args, payload, human_lines=None) -> None:
    if getattr(args, "format", "json") == "human" and human_lines is not None:
        text = "\n".join(human_lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_cl_table(args) -> int:
    if args.dim > 8:
        raise ValueError("multiplication table capped at dimension 8")
    form = QuadraticForm(args.dim, _parse_signs(args.signs, args.dim))
    size = 1 << form.dim
    blades = [blade_name(m) for m in range(size)]
    # e_A e_B = blade_sign(A, B) e_{A ^ B}
    table = [[("-" if blade_sign(a, b, form.positive_mask) < 0 else "") + blades[a ^ b]
              for b in range(size)] for a in range(size)]
    payload = {"dim": form.dim, "signs": list(form.signs),
               "blades": blades, "table": table}
    width = max(len(s) for row in table for s in row) + 1
    human = ["".rjust(width) + "".join(b.rjust(width) for b in blades)]
    for name, row in zip(blades, table):
        human.append(name.rjust(width) + "".join(s.rjust(width) for s in row))
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_cl_classify(args) -> int:
    from .clifford import classify_complex, classify_real
    if args.real:
        signs = _parse_signs(args.signs, args.dim)
        algebra = classify_real(signs.count(1), signs.count(-1))
    else:
        if args.signs:
            raise ValueError("--signs only applies to the real classification")
        algebra = classify_complex(args.dim, verify=not args.no_verify)
    _emit(args, algebra.to_json(), [str(algebra)])
    return EXIT_OK


def _cmd_spin_lift(args) -> int:
    from .spin_groups import lift_rotation
    form = QuadraticForm.euclidean(args.dim) if args.dim else None
    element = lift_rotation(args.i, args.j, args.theta, form)
    payload = element.to_json()
    _emit(args, payload, [repr(element.value)])
    return EXIT_OK


def _cmd_spin_cover(args) -> int:
    from .spin_groups import SpinElement, covering_map
    raw = args.element
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            raw = fh.read()
    element = SpinElement.from_json(json.loads(raw))
    rot = covering_map(element)
    payload = rot.to_json()
    human = [" ".join(str(e) for e in row) for row in rot.entries]
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_abs_group(args) -> int:
    from . import symbols
    group = symbols.abs_group(args.k)
    payload = {"k": group.k, "group": group.group,
               "generator_dim": group.generator.dim if group.generator else None}
    _emit(args, payload, [f"M_hat_{args.k} / i* M_hat_{args.k + 1} = {group.group}"])
    return EXIT_OK


_WINDING_MODULES = ("s2", "s2-flip", "s2+s2", "thom1")


def _winding_class(name: str):
    from . import spinors, symbols
    s2 = spinors.spinor_module(2)
    if name == "s2":
        return symbols.abs_class(s2)
    if name == "s2-flip":
        return symbols.abs_class(spinors.flip_grading(s2))
    if name == "s2+s2":
        return symbols.abs_class(spinors.direct_sum(s2, s2))
    if name == "thom1":
        return symbols.thom_class_complex(1)
    raise ValueError(f"unknown module {name!r}; choose from {_WINDING_MODULES}")


def _cmd_abs_winding(args) -> int:
    from . import symbols
    if args.k != 2:
        raise ValueError("winding is computed on the circle; use --k 2")
    sc = _winding_class(args.module)
    winding = symbols.winding_number(sc)
    payload = {"k": 2, "winding": winding, "samples": symbols.WINDING_GRID}
    _emit(args, payload, [f"winding({args.module}) = {winding}"])
    return EXIT_OK


def _cmd_symbol(args) -> int:
    from . import symbols
    if args.op == "laplacian":
        op = symbols.laplacian_operator(args.dim or 2)
    elif args.op == "dalembert":
        op = symbols.dalembertian_operator((args.dim or 2) - 1)
    elif args.op == "dirac":
        dim = args.dim or 2
        if dim % 2:
            raise ValueError("the Dirac symbol needs an even dimension")
        op = symbols.dirac_operator(dim)
    else:
        raise ValueError(f"unknown operator {args.op!r}")
    sym = symbols.principal_symbol(op)
    report = symbols.is_elliptic(sym)
    payload = {
        "op": args.op,
        "base_dim": sym.base_dim,
        "order": sym.order,
        "matrix_shape": list(sym.shape),
        "elliptic": report.elliptic,
        "min_singular_on_sphere": report.min_singular,
        "witness": list(report.witness) if report.witness else None,
        "witness_exact": list(report.witness_exact) if report.witness_exact else None,
    }
    human = [f"{args.op}: order {sym.order} on R^{sym.base_dim}",
             f"elliptic: {report.elliptic}"]
    if report.witness is not None:
        human.append(f"witness direction: {report.witness}")
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_index_torus(args) -> int:
    from . import torus_index
    spec = torus_index.FluxBundleSpec(args.N, args.d,
                                      wilson_r=args.r, wilson_mass=args.mass)
    result = torus_index.index(torus_index.build_torus_dirac(spec))
    _emit(args, result.to_json(),
          [f"N = {args.N}, flux d = {args.d}: index = {result.index} "
           f"(ker+ = {result.dim_ker_plus}, ker- = {result.dim_ker_minus}, "
           f"gap = {result.spectral_gap:.3f})"])
    return EXIT_OK


def _cmd_spectral_flow(args) -> int:
    import numpy as np

    from . import torus_index
    if args.family == "shift":
        fam = torus_index.shift_family(args.t0, args.t1, modes=args.modes)
    elif args.family == "constant":
        rng = np.random.default_rng(args.seed)
        h = rng.normal(size=(8, 8))
        fam = torus_index.constant_family(h + h.T + 10 * np.eye(8),
                                          t_end=args.t1 or 1.0)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    flow = torus_index.spectral_flow(fam)
    payload = {"family": args.family, "t0": args.t0, "t1": args.t1, "flow": flow}
    _emit(args, payload, [f"spectral flow = {flow}"])
    return EXIT_OK


def _cmd_acceptance(args) -> int:
    from . import acceptance
    results = acceptance.run_all(seed=args.seed)
    if args.format == "json":
        payload = [{"name": r.name, "passed": r.passed, "detail": r.detail,
                    "seconds": round(r.seconds, 3)} for r in results]
        _emit(args, payload)
    else:
        for r in results:
            sys.stdout.write(r.line() + "\n")
    return EXIT_OK if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindex",
        description="Clifford algebras, spin groups, symbol classes, and "
                    "torus Dirac indices")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "human"), default="json")
        p.add_argument("--out", help="write the JSON result to a file")

    p = sub.add_parser("cl-table", help="basis-blade multiplication table")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--signs", help="e.g. '++-' (defaults to all +)")
    common(p)
    p.set_defaults(func=_cmd_cl_table)

    p = sub.add_parser("cl-classify", help="matrix-algebra type of Cl_n")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--real", action="store_true")
    p.add_argument("--signs", help="real case only, e.g. '++-'")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the representation surjectivity check")
    common(p)
    p.set_defaults(func=_cmd_cl_classify)

    p = sub.add_parser("spin-lift", help="lift of a plane rotation to Spin")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--dim", type=int, help="ambient dimension (default max(i, j))")
    common(p)
    p.set_defaults(func=_cmd_spin_lift)

    p = sub.add_parser("spin-cover", help="rotation covered by a Spin element")
    p.add_argument("--element", required=True,
                   help="multivector JSON, or @path to a JSON file")
    common(p)
    p.set_defaults(func=_cmd_spin_cover)

    p = sub.add_parser("abs-group", help="graded-module periodicity quotient")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_abs_group)

    p = sub.add_parser("abs-winding", help="winding of a clutching determinant")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--module", choices=_WINDING_MODULES, default="s2")
    common(p)
    p.set_defaults(func=_cmd_abs_winding)

    p = sub.add_parser("symbol", help="principal symbol and ellipticity")
    p.add_argument("--op", choices=("laplacian", "dalembert", "dirac"),
                   required=True)
    p.add_argument("--dim", type=int, help="base dimension (default 2)")
    common(p)
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("index-torus", help="Dirac index on the flux torus")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0, help="Wilson coupling")
    p.add_argument("--mass", type=float, default=1.0,
                   help="Wilson mass in (0, 2), below 2r")
    common(p)
    p.set_defaults(func=_cmd_index_torus)

    p = sub.add_parser("spectral-flow", help="eigenvalue flow of a family")
    p.add_argument("--family", choices=("shift", "constant"), default="shift")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--modes", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_spectral_flow)

    p = sub.add_parser("acceptance", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_acceptance)

    return parser


_FLOAT_OPTIONS = ("--theta", "--r", "--mass", "--t0", "--t1")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_floats(argv):
    """``--theta -1e-3`` as ``--theta=-1e-3``: argparse reads a value that
    starts with '-' as an option unless it is a plain decimal such as -2 or
    -0.5, which exponent notation and -inf are not.  An abbreviation that
    argparse accepts (``--th``) is joined the same way."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (len(prev) > 2 and any(opt.startswith(prev) for opt in _FLOAT_OPTIONS)
                and arg.startswith("-") and _is_float(arg)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _ambiguous_errors() -> tuple:
    """The exit-3 error types of the modules loaded so far; a command that
    never imported a module cannot have raised its errors."""
    found = []
    for module, names in (("torus_index", ("AmbiguousKernelError", "NonConvergenceError")),
                          ("symbols", ("AmbiguousWindingError",))):
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            found += [getattr(loaded, name) for name in names]
    return tuple(found)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_floats(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except _ambiguous_errors() as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_AMBIGUOUS
    except (ValueError, ArithmeticError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
