"""The JSON schemas published in docs/ against what the package writes."""

import json
from pathlib import Path

import pytest

from smoothdiv import cli, harness
from smoothdiv.cli import CONFIG_ENV_VAR

from test_cli import PINNED_STDOUT

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _validator(name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DOCS / name).read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def test_output_conforms_to_published_schemas(sieve_1m, capsys, monkeypatch):
    record = _validator("output_record.schema.json")
    report = _validator("comparison_report.schema.json")
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    checked = {"record": 0, "report": 0}
    for argv, _ in PINNED_STDOUT:
        if argv[0] == "validate":  # plain-text check lines, no JSON
            continue
        if "--format" in argv:  # the JSON record of the same command
            i = argv.index("--format")
            argv = argv[:i] + argv[i + 2:]
        assert cli.main(list(argv)) == 0, argv
        kind = "report" if argv[0] == "compare" else "record"
        (report if kind == "report" else record).validate(json.loads(capsys.readouterr().out))
        checked[kind] += 1
    assert checked["record"] > 0 and checked["report"] > 0
    report.validate(json.loads(harness.run_theorem1_grid(sieve=sieve_1m, xs=(1e4,)).to_json()))
    report.validate(json.loads(
        harness.run_eta_desk(sieve=sieve_1m, samples=2000, seed=7).to_json()))
