"""The package's names: each is imported from its defining module on first use."""

import os
import subprocess
import sys

import pytest

import intonsem

EXPORTED = [
    "Spider", "boundary_tensor", "delta", "delta_tensor", "frobenius_condition_check", "fuse",
    "iota", "mu", "mu_tensor", "spider", "zeta",
    "AnnotatedSentence", "Analysis", "AnnotationSyntaxError", "InfelicitousStructure",
    "SentenceMeaning", "Span", "SpanTyping", "analyses", "boundary_contraction", "copy_expand",
    "meaning", "meaning_multiple_rhemes", "meaning_split_theme", "parse_annotated", "type_spans",
    "Lexicon", "LexiconEntry", "LexiconError", "cosine", "load_lexicon",
    "PregroupType", "ReductionDiagram", "SimpleType", "TypeSyntaxError", "atom", "cancels",
    "flatten", "grammatical", "parse_type", "reduce",
    "ContractionError", "TypedTensor", "UnknownBaseError", "compose", "epsilon_contract", "eta",
    "semantic_shape", "tensor_from_json", "tensor_to_json",
    "Relation", "Universe", "UniverseError", "UnknownIndividualError", "intersect",
    "load_universe", "membership", "relation_lift", "theme_vector", "theme_vector_composed",
]


def _child(code: str) -> str:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return proc.stdout


def test_the_exported_names_are_pinned():
    assert len(EXPORTED) == 60
    assert intonsem.__all__ == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_a_name_is_the_object_its_defining_module_holds(name):
    value = getattr(intonsem, name)
    assert value.__module__.startswith("intonsem.")
    assert vars(sys.modules[value.__module__])[name] is value


def test_every_name_is_listed_by_dir():
    assert set(EXPORTED) <= set(dir(intonsem))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'intonsem' has no attribute 'no_such'"):
        intonsem.no_such
    with pytest.raises(ImportError):
        from intonsem import no_such  # noqa: F401


def test_from_the_package_import_cli_imports_the_submodule():
    assert _child("from intonsem import cli; print(cli.__name__, callable(cli.main))") == (
        "intonsem.cli True\n"
    )


def test_pregroup_alone_imports_no_numpy():
    code = ("import sys; from intonsem import parse_type, reduce; "
            "found = reduce([parse_type('n n.r s')], parse_type('s')); "
            "print(len(found), 'numpy' in sys.modules)")
    assert _child(code) == "1 False\n"


def test_a_numpy_backed_name_resolves_on_first_use():
    code = ("import sys, intonsem; print('numpy' in sys.modules); "
            "print(intonsem.load_lexicon.__module__, 'numpy' in sys.modules)")
    assert _child(code) == "False\nintonsem.lexicon True\n"
