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
            "GcdProfile",
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
    assert len(polygcd.__all__) == 40
    assert all(hasattr(polygcd, name) for name in polygcd.__all__)
