"""Mutation check: each record breaks one spot of the library in a copy of
`src/`, and the test files it names must then fail.

    python tests/mutants.py            # every record
    python tests/mutants.py NAME ...   # only the named records

For each record the script copies `src/` into a temporary directory,
replaces the record's old text, which must occur in its file exactly once,
by the new text, and runs pytest with `-x` on the named test files with the
copy first on PYTHONPATH. The record is killed when pytest exits nonzero.
Before any mutant runs, every old text is looked up, so a record cannot go
stale in silence, and the named test files must pass on an unedited copy,
so a failure of their own is not read as a kill. The exit status is 0 only
when every old text is found exactly once and every mutant is killed.
Standard library only; it takes about two minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("gconstellations")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str                   # a module of the package
    old: str                    # exact text, found once in the file
    new: str
    killers: tuple[str, ...]    # test files that must fail, from the root


MUTANTS = (
    # the integer elimination and the integer fan checks
    Mutant("no sign flip on a row swap", "toric.py",
           "aug[k], aug[pivot], sign = aug[pivot], aug[k], -sign",
           "aug[k], aug[pivot] = aug[pivot], aug[k]",
           ("tests/test_det_adjugate.py",)),
    Mutant("no exact division by the previous pivot", "toric.py",
           "row[k] * b) // previous", "row[k] * b)",
           ("tests/test_det_adjugate.py",)),
    Mutant("no divisibility check in dual_basis", "toric.py",
           "if not any(x % d for column in columns for x in column):",
           "if True:",
           ("tests/test_det_adjugate.py",)),
    Mutant("facet side test blind to the sign of d", "toric.py",
           "for x, row in zip(ints, adj)) * d > 0:",
           "for x, row in zip(ints, adj)) > 0:",
           ("tests/test_det_adjugate.py",)),
    Mutant("no abs in the volume sum", "toric.py",
           "volumes = [(abs(cone.det_adjugate[0]),",
           "volumes = [(cone.det_adjugate[0],",
           ("tests/test_det_adjugate.py",)),
    Mutant("no lattice point check", "toric.py",
           "elif any(c % denominator for c in coords):", "elif False:",
           ("tests/test_toric.py",)),
    # three earlier fast paths
    Mutant("bytes rows for 256 candidates only below 256", "family.py",
           "pack = bytes if all(len(v) <= 256 for v in candidates)",
           "pack = bytes if all(len(v) < 256 for v in candidates)",
           ("tests/test_family.py",)),
    Mutant("bytes rows for 257 candidates", "family.py",
           "pack = bytes if all(len(v) <= 256 for v in candidates)",
           "pack = bytes if all(len(v) <= 257 for v in candidates)",
           ("tests/test_family.py",)),
    Mutant("no orders check in lambda_shift", "family.py",
           "        if c.orders != orders:\n            raise ValueError("
           "\"characters of different groups\")\n",
           "",
           ("tests/test_scaled.py",)),
    Mutant("no covolume check in chart_exponents", "gdivisor.py",
           "    if d * fan.lattice.index != cone.scale:",
           "    if False:",
           ("tests/test_chart_generated.py",)),
    # the one chart_exponents pass over many cones
    Mutant("no weight comparison in the one pass", "gdivisor.py",
           "            or any(c.orders != group.orders for c in chars) or list("
           "\n                zip(*weights)) != [c.residues for c in chars] "
           "* len(cones)):",
           "            or any(c.orders != group.orders for c in chars)):",
           ("tests/test_chart_generated.py",)),
    Mutant("each cone's rays summed on the next cone's dual columns",
           "gdivisor.py",
           "for dual in zip(*[cone.dual_columns for cone in cones])]",
           "for dual in zip(*[cone.dual_columns for cone in "
           "cones[1:] + cones[:1]])]",
           ("tests/test_chart_scaled.py",)),
    Mutant("pairs compared to the weights divisor by divisor",
           "gdivisor.py",
           "zip(*weights)) != [c.residues for c in chars] * len(cones)):",
           "zip(*weights)) != [c.residues for c in chars for _ in cones]):",
           ("tests/test_chart_scaled.py",)),
    Mutant("cartier_to_weil walks the cones on every call", "gdivisor.py",
           "weights != [[r] * len(exponents) for r in char.residues]",
           "weights != [[r] * (len(exponents) + 1) for r in char.residues]",
           ("tests/test_chart_scaled.py",)),
    Mutant("a structural error before the errors of earlier cones",
           "gdivisor.py",
           "        chart_exponents(chars, scaled, ks[:len(cones)], fan, "
           "group)\n",
           "",
           ("tests/test_chart_generated.py",)),
    # sets that make their divisors on first read, and the value pool of
    # the sets lambda_shift and reflect derive
    Mutant("sets read the tables in fan order", "family.py",
           "for k in order] or no_rays)",
           "for k in range(len(made))] or no_rays)",
           ("tests/test_family.py",)),
    Mutant("lazy divisors keep the zero cells", "family.py",
           "GWeilDivisor._trusted(char, tuple(filter(None, c)))",
           "GWeilDivisor._trusted(char, tuple(c))",
           ("tests/test_family.py",)),
    Mutant("one value pool for every D", "family.py",
           "exact = by_scale.setdefault(scale, {})",
           "exact = by_scale.setdefault(0, {})",
           ("tests/test_family.py",)),
    Mutant("derived sets start a pool of their own", "family.py",
           "    derived.__dict__[\"_pool\"] = pool\n", "",
           ("tests/test_family.py",)),
    # one value pool per enumeration, shared by its tables, its sets and
    # every set derived from them
    Mutant("_unscaled keeps a fresh Fraction, not the pool's", "family.py",
           "exact[n] = values.setdefault(value.as_integer_ratio(), value)",
           "exact[n] = value",
           ("tests/test_family.py",)),
    Mutant("the candidates are built outside the pool", "family.py",
           "tuple(tuple(values.setdefault(v.as_integer_ratio(), v)\n"
           "                        for v in candidates)",
           "tuple(tuple(candidates)",
           ("tests/test_family.py",)),
    Mutant("the zero candidate is not the shared zero", "family.py",
           "    return {}, {(0, 1): _ZERO}\n",
           "    return {}, {}\n",
           ("tests/test_family.py",)),
    Mutant("no duplicate-character check in the derivations", "family.py",
           "        if len(rows) != len(self.characters):\n"
           "            raise ValueError(_STRUCTURE_ERROR)\n",
           "",
           ("tests/test_family.py",)),
    # one scaled form (D, label -> column) per set of divisors
    Mutant("scaled_coefficients keeps labels in first-seen order",
           "gdivisor.py",
           "for label in sorted({label for e in entries for label, _ in e})}",
           "for label in dict.fromkeys(label for e in entries "
           "for label, _ in e)}",
           ("tests/test_family.py",)),
    Mutant("chart_exponents treats no label as off the fan", "gdivisor.py",
           "foreign = sorted(set(columns).difference(ray.label for ray in "
           "fan.rays))",
           "foreign = []",
           ("tests/test_chart_generated.py",)),
    Mutant("an empty column map gives no rows", "family.py",
           "list(zip(*columns)) or itertools.repeat(())",
           "zip(*columns)",
           ("tests/test_family.py",)),
    # the one integer congruence test and the one unchecked constructor
    Mutant("congruence taken mod D, not mod D * D_e", "gdivisor.py",
           "if (q * d_e - n * scale) % (scale * d_e):",
           "if (q * d_e - n * scale) % scale:",
           ("tests/test_gdivisor.py",)),
    Mutant("the congruence test drops the labels off the fan", "gdivisor.py",
           "    return bad + [label for label, column in off_fan.items() "
           "if column[k]]\n",
           "    return bad\n",
           ("tests/test_gdivisor.py",)),
    Mutant("Record._trusted fills the fields in reverse", "record.py",
           "        record.__dict__.update(zip(cls._fields, values))",
           "        record.__dict__.update(zip(cls._fields[::-1], values))",
           ("tests/test_records.py",)),
    # a fan without rays still has one set, of one empty divisor per
    # character
    Mutant("no blank row for a fan without rays", "family.py",
           "] or no_rays)", "])",
           ("tests/test_family.py",)),
    # records, the quiver's structure check and the equivalence test
    Mutant("records compare their whole __dict__", "record.py",
           "        return self._key(self) == self._key(other)",
           "        return self.__dict__ == other.__dict__",
           ("tests/test_records.py",)),
    Mutant("a record's key reads its first field only", "record.py",
           "cls._key = attrgetter(*cls._fields)",
           "cls._key = attrgetter(cls._fields[0])",
           ("tests/test_records.py",)),
    Mutant("GWeilDivisor keeps its entries in the given order",
           "gdivisor.py",
           "        cleaned.sort()\n", "",
           ("tests/test_records.py",)),
    Mutant("quiver takes a set out of residue order", "family.py",
           "    if list(family.characters) != group.characters():\n"
           "        raise ValueError(_STRUCTURE_ERROR)\n"
           "    piece = reductor_piece(family, cone, fan, group)\n",
           "    piece = reductor_piece(family, cone, fan, group)\n",
           ("tests/test_chart_generated.py",)),
    Mutant("equivalence lets a difference take two values on a label",
           "family.py",
           "cb.get(label, zeros))}) > 1", "cb.get(label, zeros))}) > 2",
           ("tests/test_family.py",)),
    Mutant("a record accepts assignment", "record.py",
           "        raise AttributeError(f\"cannot assign to field {name!r}\")",
           "        object.__setattr__(self, name, value)",
           ("tests/test_records.py",)),
    Mutant("a record's repr without field names", "record.py",
           "fields = \", \".join(f\"{name}={getattr(self, name)!r}\"",
           "fields = \", \".join(f\"{getattr(self, name)!r}\"",
           ("tests/test_records.py",)),
    Mutant("quiver arrows in step-major order", "family.py",
           "tuple(itertools.chain(*arrows))",
           "tuple(itertools.chain(*zip(*arrows)))",
           ("tests/test_chart_generated.py",)),
    # the checks of the one chart pass and of cartier_to_weil
    Mutant("no integrality scan in the one pass", "gdivisor.py",
           "if (fan.dim != group.dim or any(x % scale for s in sums for x in s)",
           "if (fan.dim != group.dim",
           ("tests/test_chart_generated.py",)),
    Mutant("no orders check in cartier_to_weil", "gdivisor.py",
           "if (char.orders != group.orders or set(map(len, exponents))",
           "if (set(map(len, exponents))",
           ("tests/test_chart_generated.py",)),
    Mutant("no dimension check in cartier_to_weil", "gdivisor.py",
           "    if fan.cones and fan.dim != group.dim:",
           "    if False:",
           ("tests/test_chart_generated.py",)),
    Mutant("no dimension check in the one pass", "gdivisor.py",
           "if (fan.dim != group.dim or any(x % scale for s in sums for x in s)",
           "if (any(x % scale for s in sums for x in s)",
           ("tests/test_chart_generated.py",)),
    Mutant("no orders check in the one pass", "gdivisor.py",
           "            or any(c.orders != group.orders for c in chars) or list(",
           "            or list(",
           ("tests/test_chart_generated.py",)),
    Mutant("gluing errors list their rays sorted", "gdivisor.py",
           "bad = [label for label, seen in values.items() if len(seen) > 1]",
           "bad = sorted(label for label, seen in values.items() "
           "if len(seen) > 1)",
           ("tests/test_chart_generated.py",)),
    Mutant("the package imports typing", "group.py",
           "import heapq\n", "import heapq\nimport typing\n",
           ("tests/test_records.py",)),
)


def stale(mutants) -> list[str]:
    """One line per record whose old text is not in its file exactly once."""
    lines = []
    for m in mutants:
        count = (ROOT / "src" / PACKAGE / m.file).read_text(
            encoding="utf-8").count(m.old)
        if count != 1:
            lines.append(f"stale: {m.name!r}: old text found {count} times "
                         f"in {m.file}")
    return lines


def pytest(src: Path, files) -> tuple[int, str, float]:
    """(exit code, output tail, seconds) of pytest -x on the test files
    with src first on PYTHONPATH."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *files],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    tail = "\n".join(done.stdout.splitlines()[-5:])
    return done.returncode, tail, time.perf_counter() - start


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src" / PACKAGE, src / PACKAGE,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    problems = [f"unknown record: {name!r}" for name in sorted(unknown)]
    problems += stale(mutants)
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        src = copy_src(Path(scratch) / "clean")
        files = sorted({f for m in mutants for f in m.killers})
        code, tail, seconds = pytest(src, files)
        if code:
            print(f"the named test files fail on the unedited source:\n{tail}")
            return 1
        print(f"unedited source passes {len(files)} files in {seconds:.1f} s")
        survivors = 0
        for k, m in enumerate(mutants):
            src = copy_src(Path(scratch) / str(k))
            path = src / PACKAGE / m.file
            path.write_text(path.read_text(encoding="utf-8").replace(
                m.old, m.new), encoding="utf-8")
            code, tail, seconds = pytest(src, m.killers)
            if code:
                print(f"killed   {m.name} ({seconds:.1f} s)")
            else:
                survivors += 1
                print(f"SURVIVED {m.name}: {', '.join(m.killers)} pass\n"
                      f"{tail}")
            shutil.rmtree(src)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
