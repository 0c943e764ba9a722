"""Command line front end: problem-file ingestion and deterministic output.

A problem file is JSON with a group and a fan:

    {
      "group": {"cyclic": {"order": 8, "weights": [1, 2, 5]}},
      "fan": {
        "rays": [["1","0","0"], ..., ["5/8","2/8","1/8"]],
        "cones": [[1, 2, 7], ...]
      }
    }

General abelian groups use {"abelian": {"orders": [...], "weight_matrix":
[[...], ...]}}. Rationals are exact strings or integers, never floats; ray
indices are 1-based.

Exit codes: 0 success, 1 invalid input (JSON diagnostics on stdout),
2 mathematical check failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections.abc import Iterator, Sequence
from operator import getitem

from .family import (
    NormalizedEnumeration,
    ReductorSet,
    bounds_check,
    canonical_family,
    check_reductor,
    count_normalized,
    enumerate_normalized,
    equivalence_witness,
    lambda_shift,
    maximal_shift_family,
    quiver,
    quiver_to_dot,
    reductor_piece,
    reductor_set_from_json,
    reductor_set_to_json,
    reflect,
)
from .gdivisor import (
    CongruenceViolationError,
    GWeilDivisor,
    monomial_string,
    parse_character,
    parse_rational,
    ray_coefficients,
    weil_to_cartier,
)
from .group import Character, GroupData
from .toric import (
    Fan,
    LatticeL,
    build_lattice,
    discrepancy,
    junior_simplex,
    make_fan,
    validate_fan,
    x_valuation_on_X,
)


class CommandError(Exception):
    """A command that cannot finish; main prints the class's error label and
    the JSON-serializable payload, and exits with the class's code."""

    def __init__(self, detail: str, **extra) -> None:
        super().__init__(detail)
        self.payload = {"detail": detail, **extra}


class InputError(CommandError):
    """Invalid input."""
    code, label = 1, "invalid input"


class MathCheckError(CommandError):
    """A mathematical precondition or check failed."""
    code, label = 2, "check failed"


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on bad arguments; route through InputError so
    # all invalid input exits 1 with JSON diagnostics
    def error(self, message: str):
        raise InputError(f"argument error: {message}")


def argv_int(raw: str) -> int:
    """ASCII digits with an optional leading '-'; int() also reads "1_0"."""
    if not (raw.isascii() and raw.removeprefix("-").isdecimal()):
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def non_negative_int(raw: str) -> int:
    value = argv_int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # ValueError: bad JSON, non-UTF-8 bytes or an int over the digit limit
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _json_list(value, what: str) -> list:
    # a JSON string is iterable too, and would pass as the list of its characters
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, not {value!r}")
    return value


def _json_int(value, what: str) -> int:
    # int() would truncate 3.7 and read true as 1
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, not {value!r}")
    return value


def _json_ints(value, what: str) -> list[int]:
    return [_json_int(x, f"{what} entry") for x in _json_list(value, what)]


def _parse_group(obj) -> tuple[GroupData, LatticeL]:
    """The group and its lattice; build_lattice rejects an action that is
    not faithful, since then |L / Z^n| < |G|."""
    if not isinstance(obj, dict):
        raise InputError("problem file needs a 'group' object")
    try:
        if "cyclic" in obj:
            spec = obj["cyclic"]
            group = GroupData.cyclic(_json_int(spec["order"], "order"),
                                     _json_ints(spec["weights"], "weights"))
        elif "abelian" in obj:
            spec = obj["abelian"]
            group = GroupData(
                tuple(_json_ints(spec["orders"], "orders")),
                tuple(tuple(_json_ints(row, "weight row"))
                      for row in _json_list(spec["weight_matrix"],
                                            "weight_matrix")),
            )
        else:
            raise InputError("group must be given as 'cyclic' or 'abelian'")
        return group, build_lattice(group)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid group: {exc}") from exc


def load_problem(path: str):
    """Parse and validate a problem file into (group, fan, report)."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError("problem file must be a JSON object")
    group, lattice = _parse_group(obj.get("group"))
    fan_spec = obj.get("fan")
    if not isinstance(fan_spec, dict):
        raise InputError("problem file needs a 'fan' object")
    try:
        rays = [
            [parse_rational(x, "ray entry") for x in _json_list(vec, "ray")]
            for vec in _json_list(fan_spec.get("rays", []), "rays")
        ]
        cones = [_json_ints(c, "cone")
                 for c in _json_list(fan_spec.get("cones", []), "cones")]
        fan = make_fan(lattice, rays, cones)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid fan: {exc}") from exc
    report = validate_fan(fan)
    if not report.passed:
        raise InputError("fan failed validation", report=report.to_json())
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return group, fan, report


def _load_set(path: str, fan: Fan, group: GroupData) -> ReductorSet:
    obj = _load_json(path)
    try:
        return reductor_set_from_json(obj, fan, group)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid reductor set in {path}: {exc}") from exc


def _parse_char_arg(raw: str, group: GroupData) -> Character:
    try:
        parts = [argv_int(p) for p in raw.split(",")]
    except ValueError as exc:
        raise InputError(f"cannot parse character {raw!r}") from exc
    try:
        return parse_character(parts, group)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _pick_cone(fan: Fan, index: int):
    if not 1 <= index <= len(fan.cones):
        raise InputError(
            f"cone index {index} out of range 1..{len(fan.cones)}"
        )
    return fan.cones[index - 1]


def _require_reductor(family: ReductorSet, fan: Fan, group: GroupData,
                      which: str = "set") -> None:
    report = check_reductor(family, fan, group)
    if not report.passed:
        raise MathCheckError(
            f"{which} is not a reductor set", report=report.to_json()
        )


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _write_runs(pieces) -> None:
    """Write the text pieces to stdout joined in runs of at least
    io.DEFAULT_BUFFER_SIZE characters, each run in one write, and the rest
    at the end. An unbuffered stdout (PYTHONUNBUFFERED) makes each write
    one write(2), so a run of pieces costs one, and no more than a run and
    its last piece is held."""
    write = sys.stdout.write
    run, size = [], 0
    for piece in pieces:
        run.append(piece)
        size += len(piece)
        if size >= io.DEFAULT_BUFFER_SIZE:
            write("".join(run))
            run, size = [], 0
    if run:
        write("".join(run))


def _emit_per_ray(enumeration: NormalizedEnumeration) -> None:
    """Write {"count": ..., "per_ray": [...]} byte for byte as _emit would,
    in runs, so no table's text is ever held whole."""
    _write_runs(_per_ray_pieces(enumeration))


def _per_ray_pieces(enumeration: NormalizedEnumeration) -> Iterator[str]:
    """_emit_per_ray's text, one piece per row and a few per table.
    json.dumps with an indent runs the pure-Python encoder; here each cell's
    text is made once per (character, position) and each row is one join.
    No list is empty: a valid fan has rays, and every table holds the row
    of the maximal-shift family."""
    yield f'{{\n  "count": {enumeration.count},\n  "per_ray": ['
    # a row sits at depth 4 of the payload and its cells at depth 5; its
    # text opens with the comma after the row before it
    head = ",\n" + " " * 8 + "[\n" + " " * 10
    sep, tail = ",\n" + " " * 10, "\n" + " " * 8 + "]"
    for n, table in enumerate(enumeration.tables):
        cells = [[json.dumps(str(q)) for q in v] for v in table.values]
        chars = json.dumps([c.to_json() for c in table.characters], indent=2)
        yield (("," if n else "")
               + '\n    {\n      "ray": ' + json.dumps(f"E{table.ray_label}")
               + ',\n      "characters": ' + chars.replace("\n", "\n      ")
               + ',\n      "rows": [')
        opener = head[1:]
        for p in table.positions:
            yield opener + sep.join(map(getitem, cells, p)) + tail
            opener = head
        yield "\n      ]\n    }"
    yield "\n  ]\n}\n"


def _vec_str(vec) -> str:
    return "(" + ", ".join(str(x) for x in vec) + ")"


def _set_table(family: ReductorSet, fan: Fan) -> str:
    header = ["chi"] + [ray.name for ray in fan.rays]
    rows = [header]
    for divisor in family.divisors:
        rows.append(
            [divisor.character.name]
            + [str(divisor.coefficient(r.label)) for r in fan.rays]
        )
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(w) for cell, w in zip(row[1:], widths[1:])
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def cmd_info(args, group: GroupData, fan: Fan, report) -> int:
    lattice = fan.lattice
    junior = junior_simplex(group)
    valuations = [
        x_valuation_on_X(lattice, axis)
        for axis in range(1, group.dim + 1)
    ]
    if args.json:
        _emit({
            "group": {
                "order": group.order,
                "dim": group.dim,
                "cyclic_orders": list(group.orders),
                "weights": [list(row) for row in group.weights],
                "special_linear": group.is_special_linear,
            },
            "lattice": {
                "index": lattice.index,
                "basis": [[str(x) for x in row] for row in lattice.basis],
            },
            "junior_simplex": [[str(x) for x in v] for v in junior],
            "fan": {
                "rays": {
                    ray.name: [str(x) for x in ray.vector]
                    for ray in fan.rays
                },
                "cones": [list(c.labels) for c in fan.cones],
                "discrepancies": {
                    ray.name: str(discrepancy(ray.vector))
                    for ray in fan.rays
                },
                "crepant": report.crepant,
            },
            "axis_valuations": [str(v) for v in valuations],
            "validation": report.to_json(),
        })
        return 0
    print(f"group: |G| = {group.order}, n = {group.dim}, "
          f"factor orders {_vec_str(group.orders)}, "
          f"weights {[list(r) for r in group.weights]}")
    print(f"lattice index: {lattice.index}")
    print(f"junior points: {len(junior)}")
    for v in junior:
        print(f"  {_vec_str(v)}")
    print(f"rays: {len(fan.rays)}, maximal cones: {len(fan.cones)}")
    for ray in fan.rays:
        print(f"  {ray.name} = {_vec_str(ray.vector)}  "
              f"discrepancy {discrepancy(ray.vector)}")
    print(f"crepant: {str(report.crepant).lower()}")
    print("axis valuations: " + ", ".join(
        f"x{i + 1} -> {v}" for i, v in enumerate(valuations)
    ))
    # load_problem has rejected every fan that fails validation
    print("fan validation: passed (coverage verified)")
    return 0


def cmd_family(args, group: GroupData, fan: Fan, _) -> int:
    family = args.builder(fan, group)
    if args.json:
        _emit(reductor_set_to_json(family))
    else:
        print(_set_table(family, fan))
    return 0


def cmd_enumerate(args, group: GroupData, fan: Fan, _) -> int:
    if args.count_only:
        print(count_normalized(fan, group))
        return 0
    enumeration: NormalizedEnumeration = enumerate_normalized(fan, group)
    if args.per_ray:
        _emit_per_ray(enumeration)
        return 0
    # each line is json.dumps(reductor_set_to_json(s)) for a set s, from a
    # head per character and cell texts '"E4": "1/8"' made once per position
    heads = [f'{{"char": {json.dumps(c.to_json())}, "coeffs": {{'
             for c in group.characters()]
    _write_runs('{"divisors": [' + ", ".join(
        head + ", ".join(filter(None, c)) + "}}"
        for head, c in zip(heads, cells)) + "]}\n"
        for cells in enumeration.cells(
            lambda label, q: f'"E{label}": "{q!s}"', args.limit))
    return 0


def cmd_check(args, group: GroupData, fan: Fan, _) -> int:
    family = _load_set(args.set, fan, group)
    reductor = check_reductor(family, fan, group)
    bounds = bounds_check(family, fan, group)
    payload = {
        "reductor": reductor.to_json(),
        "bounds": bounds.to_json(),
        "normalized": family.is_normalized,
    }
    # the reductor condition implies the shift envelope (family.py), so the
    # bounds report is diagnostic only
    payload["passed"] = reductor.passed
    _emit(payload)
    return 0 if reductor.passed else 2


def cmd_piece(args, group: GroupData, fan: Fan, _) -> int:
    family = _load_set(args.set, fan, group)
    _require_reductor(family, fan, group)
    cone = _pick_cone(fan, args.cone)
    _emit(reductor_piece(family, cone, fan, group).to_json())
    return 0


def cmd_quiver(args, group: GroupData, fan: Fan, _) -> int:
    family = _load_set(args.set, fan, group)
    _require_reductor(family, fan, group)
    cone = _pick_cone(fan, args.cone)
    rep = quiver(family, cone, fan, group)
    if args.dot:
        sys.stdout.write(quiver_to_dot(rep))
    else:
        _emit(rep.to_json())
    return 0


def cmd_cartier(args, group: GroupData, fan: Fan, _) -> int:
    character = _parse_char_arg(args.char, group)
    obj = _load_json(args.coeffs)
    try:
        divisor = GWeilDivisor.from_map(character, ray_coefficients(obj, fan))
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid coefficients: {exc}") from exc
    cartier = weil_to_cartier(divisor, fan, group)
    _emit({
        "char": character.to_json(),
        "per_cone": [
            {
                "cone": k,
                "rays": list(cone.labels),
                "exponent": list(m),
                "monomial": monomial_string(m),
            }
            for k, (cone, m) in enumerate(
                zip(fan.cones, cartier.exponents), start=1
            )
        ],
    })
    return 0


def cmd_shift(args, group: GroupData, fan: Fan, _) -> int:
    family = _load_set(args.set, fan, group)
    lam = _parse_char_arg(args.lam, group)
    _require_reductor(family, fan, group)
    if not family.is_normalized:
        raise MathCheckError("shift expects a normalized set")
    _emit(reductor_set_to_json(lambda_shift(family, lam)))
    return 0


def cmd_reflect(args, group: GroupData, fan: Fan, _) -> int:
    family = _load_set(args.set, fan, group)
    _require_reductor(family, fan, group)
    _emit(reductor_set_to_json(reflect(family)))
    return 0


def cmd_equiv(args, group: GroupData, fan: Fan, _) -> int:
    if len(args.set) != 2:
        raise InputError("equiv needs exactly two --set files")
    first = _load_set(args.set[0], fan, group)
    second = _load_set(args.set[1], fan, group)
    _require_reductor(first, fan, group, which=args.set[0])
    _require_reductor(second, fan, group, which=args.set[1])
    result = equivalence_witness(first, second, fan, group)
    _emit(result.to_json())
    return 0 if result.equivalent else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcon",
        description="Classify deformation families of the generic orbit on "
                    "a toric resolution of an abelian quotient singularity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--input", required=True,
                       help="problem file (JSON)")
        p.set_defaults(func=func)
        return p

    p = add("info", cmd_info, help="lattice, junior simplex, ramification")
    p.add_argument("--json", action="store_true")

    p = add("canonical", cmd_family, help="fractional-valuation family")
    p.add_argument("--json", action="store_true")
    p.set_defaults(builder=canonical_family)

    p = add("maxshift", cmd_family, help="maximal-shift family")
    p.add_argument("--json", action="store_true")
    p.set_defaults(builder=maximal_shift_family)

    p = add("enumerate", cmd_enumerate,
            help="stream all normalized reductor sets")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--per-ray", action="store_true", dest="per_ray")
    mode.add_argument("--count-only", action="store_true", dest="count_only")
    # --limit bounds the JSONL stream, the mode without either flag
    mode.add_argument("--limit", type=non_negative_int, default=None)

    p = add("check", cmd_check, help="reductor condition + shift bounds")
    p.add_argument("--set", required=True)

    p = add("piece", cmd_piece, help="chart monomial generators")
    p.add_argument("--cone", type=argv_int, required=True)
    p.add_argument("--set", required=True)

    p = add("quiver", cmd_quiver, help="labeled McKay quiver on a chart")
    p.add_argument("--cone", type=argv_int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--dot", action="store_true")

    p = add("cartier", cmd_cartier, help="per-cone Laurent exponents")
    p.add_argument("--char", required=True)
    p.add_argument("--coeffs", required=True)

    p = add("shift", cmd_shift, help="tensor a normalized set by a character")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--set", required=True)

    p = add("reflect", cmd_reflect, help="dual family -D_{chi^-1}")
    p.add_argument("--set", required=True)

    p = add("equiv", cmd_equiv,
            help="common-difference witness between two sets")
    p.add_argument("--set", action="append", required=True,
                   help="give twice: --set A --set B")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    command = "gcon"
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        command = f"gcon {args.command}"
        try:
            # a wrapper set on cli.load_problem must see this one load
            code = args.func(args, *load_problem(args.input))
        except CongruenceViolationError as exc:
            # a chart exponent that is not integral or not of its weight
            raise MathCheckError(str(exc)) from exc
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (e.g. `| head`); send the unflushed rest
        # to devnull so the interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except CommandError as exc:
        print(json.dumps({"error": exc.label, **exc.payload}, indent=2))
        return exc.code
    except (MemoryError, RecursionError) as exc:
        limit = "memory" if isinstance(exc, MemoryError) else "recursion depth"
    # reported past the handler, whose traceback holds what used the memory
    print(json.dumps({"error": "out of resources",
                      "detail": f"{command} ran out of {limit}"}, indent=2))
    return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
