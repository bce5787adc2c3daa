import earlab


def test_every_export_resolves_once():
    names = earlab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(earlab, name)]
    assert missing == []
    # removed tables and test-only helpers stay out of the package
    for gone in ("extend_obstruction", "restrict_obstruction",
                 "le2_quasi_kernel_obstruction", "ExtensionCandidate",
                 "find_quasi_kernel_obstruction", "ExtensionReport",
                 "serialize_edge_list", "is_homomorphism"):
        assert gone not in names
        assert not hasattr(earlab, gone)
    # constructions certify without an oracle: none is bound in the module
    assert not [name for name, value in vars(earlab.constructions).items()
                if value is earlab.oracles
                or getattr(value, "__module__", None) == "earlab.oracles"]
