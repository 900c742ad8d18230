"""The shipped JSON schemas: each well formed, every $ref resolvable, each
shared definition in one file, and the reports checked through it."""

import json
from importlib import resources

import jsonschema
import pytest

from railbridge.cli import _registry, validate_artifact


def shipped_schemas():
    folder = resources.files("railbridge").joinpath("schemas")
    return {
        f.name: json.loads(f.read_text(encoding="utf-8"))
        for f in folder.iterdir()
        if f.name.endswith(".schema.json")
    }


def refs_in(node):
    if isinstance(node, dict):
        if "$ref" in node:
            yield node["$ref"]
        for value in node.values():
            yield from refs_in(value)
    elif isinstance(node, list):
        for value in node:
            yield from refs_in(value)


def test_every_shipped_schema_is_well_formed_and_named_by_its_file():
    schemas = shipped_schemas()
    assert len(schemas) == 7
    for name, schema in schemas.items():
        jsonschema.validators.validator_for(schema).check_schema(schema)
        assert schema["$id"] == "railbridge:" + name[: -len(".schema.json")]


def test_every_ref_resolves_through_the_cli_registry():
    registry = _registry()
    for schema in shipped_schemas().values():
        resolver = registry.resolver(base_uri=schema["$id"])
        for ref in refs_in(schema):
            assert isinstance(resolver.lookup(ref).contents, dict), ref


def test_each_definition_lives_in_one_file():
    owners = {}
    for name, schema in shipped_schemas().items():
        for definition in schema.get("$defs", {}):
            owners.setdefault(definition, []).append(name)
    assert {d: files for d, files in owners.items() if len(files) > 1} == {}
    assert owners["density"] == ["density-1.schema.json"]
    assert owners["witness"] == ["swap-1.schema.json"]


DENSITY = {
    "labels": ["B"], "cutoff": 1,
    "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]],
}
WITNESS = {"fidelity_to_max_entangled": 0.9, "entangled": True, "optimal_phase": 0.0}
REPORTS = {
    "density-1": {"schema": "density-1", **DENSITY},
    "reconstruct-1": {
        "schema": "reconstruct-1",
        "rho": DENSITY,
        "diagnostics": {
            "iterations": 12, "final_loglik": -3.5, "converged": True,
            "eta_used": 0.5, "floored_samples": 0, "rejected_steps": 0,
        },
    },
    "swap-1": {
        "schema": "swap-1",
        "success_probability": 1e-9,
        "sector_weight": 0.9,
        "witness": WITNESS,
        "qubit_sector": DENSITY,
        "full_state": DENSITY,
    },
    "pipeline-1": {
        "schema": "pipeline-1",
        "teleport": {
            "order": "exact", "samples_per_state": 10, "eta": 0.5,
            "inputs": {"H": {
                "success_probability": 1e-9, "fidelity_corrected": 0.9,
                "fidelity_uncorrected": 0.8, "samples_file": "samples_H.csv",
            }},
            "average_fidelity_corrected": 0.9,
            "average_fidelity_uncorrected": 0.8,
        },
        "swap": {
            "success_probability": 1e-9, "sector_weight": 0.9,
            "samples_per_setting": 10, "fidelity_corrected": 0.9,
            "fidelity_uncorrected": 0.8, "witness_corrected": WITNESS,
            "witness_uncorrected": WITNESS,
        },
    },
}

# (path to the nested object, key to break, bad value or None to drop it)
DENSITY_BREAKS = [("labels", "B"), ("labels", []), ("cutoff", 0),
                  ("cutoff", []), ("cutoff", [1, 0]), ("im", None)]
WITNESS_BREAKS = [("entangled", "yes"), ("fidelity_to_max_entangled", 1.5),
                  ("optimal_phase", None)]
NESTED = (
    [("density-1", ()), ("reconstruct-1", ("rho",)),
     ("swap-1", ("qubit_sector",)), ("swap-1", ("full_state",))],
    [("swap-1", ("witness",)), ("pipeline-1", ("swap", "witness_corrected")),
     ("pipeline-1", ("swap", "witness_uncorrected"))],
)
CASES = [
    pytest.param(kind, path, key, bad, id=f"{kind}:{'.'.join(path)}:{key}={bad!r}")
    for places, breaks in zip(NESTED, (DENSITY_BREAKS, WITNESS_BREAKS))
    for kind, path in places
    for key, bad in breaks
]


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_well_formed_reports_pass(kind):
    validate_artifact(kind, REPORTS[kind])


@pytest.mark.parametrize("kind, path, key, bad", CASES)
def test_malformed_nested_object_is_rejected_through_the_shared_ref(
    kind, path, key, bad
):
    # a JSON round trip, unlike deepcopy, gives each shared DENSITY its own copy
    report = json.loads(json.dumps(REPORTS[kind]))
    nested = report
    for step in path:
        nested = nested[step]
    if bad is None:
        del nested[key]
    else:
        nested[key] = bad
    with pytest.raises(jsonschema.ValidationError) as info:
        validate_artifact(kind, report)
    assert tuple(info.value.absolute_path)[: len(path)] == path
