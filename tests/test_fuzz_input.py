"""Malformed input through every gcon command: structured mutations of the
problem files and of their canonical and maximal-shift set files.

A mutation drops or renames a key, drops or duplicates a list entry, or
puts an atom in place of any value. Every command then runs through
cli.main on the mutated file and must exit 0, 1 or 2, print a JSON object
on 1 or 2, and let no exception escape.
"""

import copy
import json
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import PROPERTIES
from test_stdout_golden import PROBLEMS, _run

ATOMS = ("1/0", 10**30, True, 1.5, [], {}, None, "x", -1, 0, 1, 2, 3)
KEYS = ("x", "group", "cyclic", "abelian", "order", "orders", "weights",
        "fan", "rays", "cones", "divisors", "char", "coeffs", "E4")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(problem and set documents by name, the files the commands read)."""
    workdir = tmp_path_factory.mktemp("fuzz")
    documents, files = {}, {}
    for path in sorted(PROBLEMS.glob("*.json")):
        stem = path.stem
        documents[stem] = json.loads(path.read_text())
        files[stem] = str(path)
        for which in ("canonical", "maxshift"):
            out, code = _run([which, "--json", "--input", str(path)])
            assert code == 0
            documents[f"{stem} {which}"] = json.loads(out)
            files[f"{stem} {which}"] = str(workdir / f"{stem}_{which}.json")
            Path(files[f"{stem} {which}"]).write_text(out)
    coeffs = workdir / "coeffs.json"
    coeffs.write_text("{}")
    files["coeffs"] = str(coeffs)
    files["mutated"] = str(workdir / "mutated.json")
    return documents, files


def _paths(node, prefix=()):
    """The key path of every value below the root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutations(draw, documents):
    """(name, document) with one to three structured mutations."""
    name = draw(st.sampled_from(sorted(documents)))
    document = copy.deepcopy(documents[name])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(document))
        if not paths:
            break
        *above, key = draw(st.sampled_from(paths))
        parent = reduce(getitem, above, document)
        how = draw(st.sampled_from(("drop", "atom", "rename" if isinstance(
            parent, dict) else "duplicate")))
        if how == "drop":
            del parent[key]
        elif how == "atom":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ATOMS)))
        elif how == "rename":
            parent[draw(st.sampled_from(KEYS))] = parent.pop(key)
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return name, document


def _commands(problem, canonical, maxshift, coeffs, factors):
    """Every gcon command on one problem and its two set files."""
    char = ",".join(["0"] * factors)
    lam = ",".join(["1"] + ["0"] * (factors - 1))
    given_set = ("--set", canonical)
    return [[*argv, "--input", problem] for argv in (
        ["info"], ["info", "--json"], ["canonical"], ["maxshift", "--json"],
        ["enumerate", "--count-only"], ["enumerate", "--limit", "3"],
        ["enumerate", "--per-ray"], ["check", *given_set],
        ["piece", "--cone", "1", *given_set],
        ["quiver", "--cone", "1", *given_set],
        ["cartier", "--char", char, "--coeffs", coeffs],
        ["shift", "--lambda", lam, *given_set],
        ["reflect", "--set", maxshift],
        ["equiv", *given_set, "--set", maxshift],
    )]


@PROPERTIES
@given(data=st.data())
def test_malformed_input_exits_with_a_diagnostic(inputs, data):
    documents, files = inputs
    name, document = data.draw(mutations(documents))
    stem = name.split()[0]
    group = documents[stem]["group"]
    factors = len(group["abelian"]["orders"]) if "abelian" in group else 1
    paths = {key: files[key] for key in
             (stem, f"{stem} canonical", f"{stem} maxshift")}
    mutated = paths[name] = files["mutated"]
    Path(mutated).write_text(json.dumps(document))
    for argv in _commands(*paths.values(), files["coeffs"], factors):
        if mutated not in argv:
            continue
        out, code = _run(argv)
        assert code in (0, 1, 2), argv
        if code:
            payload = json.loads(out)
            assert isinstance(payload, dict), argv
            assert code == 2 or {"error", "detail"} <= payload.keys(), argv
