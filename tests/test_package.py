"""The package namespace and its documentation: exported names and README examples."""

import re
import shlex
from pathlib import Path

import pytest

import pqlucas
from pqlucas.cli import EXIT_OK, main

README = Path(__file__).parent.parent / "README.md"
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
# "$ pqlucas ..." blocks are transcripts; "pqlucas ..." lines are examples
TRANSCRIPTS = [block for block in SH_BLOCKS if block.startswith("$ pqlucas ")]
EXAMPLES = [
    line.partition("#")[0]
    for block in SH_BLOCKS
    for line in block.splitlines()
    if line.startswith("pqlucas ")
]


def test_all_is_the_documented_list():
    # each module lists its own exports; the package joins them in this order
    assert pqlucas.__all__ == [
        "FunctionSpec",
        "TruncatedSeries",
        "compose",
        "derivative",
        "eval_poly",
        "pow_real",
        "revert_series",
        "LucasSequence",
        "PolyPair",
        "generating_series",
        "lucas_sequence",
        "ClassParams",
        "CoefficientIdentityReport",
        "DiskGrid",
        "MembershipReport",
        "apply_operator",
        "apply_operator_inverse_side",
        "check_membership_realpart",
        "extract_coefficient_identities",
        "BoundArrays",
        "BoundInputs",
        "BoundReport",
        "UNBOUNDED",
        "bound_a2",
        "bound_a3",
        "bound_arrays",
        "fekete_szego_bound",
        "preset",
        "FUNCTIONALS",
        "MODES",
        "SchwarzSample",
        "SupremumReport",
        "VerificationReport",
        "random_inputs",
        "sweep_max",
        "verify_bounds",
        "__version__",
    ]


def test_all_names_resolve():
    missing = [name for name in pqlucas.__all__ if not hasattr(pqlucas, name)]
    assert missing == []


def test_readme_python_examples_run():
    # a doc example that names deleted API fails here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("block", TRANSCRIPTS, ids=lambda b: b.splitlines()[0])
def test_readme_transcript(capsys, block):
    command, _, expected = block.partition("\n")
    code = main(shlex.split(command)[2:])
    assert code == EXIT_OK
    assert capsys.readouterr().out.replace("\r\n", "\n") == expected


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_example_exits_zero(line):
    assert main(shlex.split(line)[1:]) == EXIT_OK


def test_readme_examples_found():
    assert len(TRANSCRIPTS) == 3
    assert len(EXAMPLES) == 5
