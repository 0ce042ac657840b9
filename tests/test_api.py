import importlib
import importlib.util
from pathlib import Path

import polygcd


def test_public_api_is_pinned():
    # Test-only helpers live in tests/support.py, not in the package.
    assert sorted(polygcd.__all__) == sorted(
        [
            "AnalysisOutcome",
            "AtlasEntry",
            "BRUTE_FORCE_CAP",
            "BruteForceProfile",
            "CapExceeded",
            "CriterionInapplicable",
            "DIVISOR_CAP",
            "Factorization",
            "GcdAtlas",
            "InputError",
            "IntMatrix",
            "IntPoly",
            "InvariantBreach",
            "MonicIntPoly",
            "MR_DETERMINISTIC_BOUND",
            "NotSquarefree",
            "ParseError",
            "PolyGcdError",
            "RESIDUE_LISTING_CAP",
            "SnfResult",
            "ZeroResultant",
            "analyze",
            "brute_force_profile",
            "common_root_mod_p",
            "coprime_witness",
            "crt",
            "det_bareiss",
            "divisors",
            "ext_gcd",
            "factor",
            "gcd_over_Z",
            "is_prime",
            "is_squarefree",
            "minimal_period",
            "parse_poly",
            "resultant",
            "resultant_prs",
            "smith_normal_form",
            "sylvester_matrix",
        ]
    )
    assert len(polygcd.__all__) == 39
    assert all(hasattr(polygcd, name) for name in polygcd.__all__)


def test_every_trace_binding_names_the_function_it_replaces():
    # bench/tracing.py rebinds these globals for a traced benchmark run and
    # refuses one whose function is not defined where its span name says.
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BINDINGS
    for module_name, attr, span in tracing.BINDINGS:
        function = getattr(importlib.import_module(f"polygcd.{module_name}"), attr, None)
        assert callable(function), (module_name, attr)
        assert f"{function.__module__}.{function.__name__}" == f"polygcd.{span}", (module_name, attr)
