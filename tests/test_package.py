"""The package's public surface: every exported name resolves."""

import monopole_spectra


def test_every_exported_name_resolves():
    exported = monopole_spectra.__all__
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(monopole_spectra, name)]
    assert missing == []
