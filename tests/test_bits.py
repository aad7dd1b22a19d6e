import json

import pytest

import bits_manifest


def test_every_artifact_and_digest_keeps_the_manifests_bits():
    """The CLI artifacts and perfbench fingerprints of ``bits_manifest`` are the recorded bits.

    A mismatch fails in the recorded environment and skips, naming the
    difference, in any other (see ``bits_manifest``'s docstring).
    """
    recorded = json.loads(bits_manifest.MANIFEST.read_text(encoding="utf-8"))
    now = bits_manifest.compute()
    changed = sorted(key for key in recorded["digests"].keys() | now["digests"].keys()
                     if recorded["digests"].get(key) != now["digests"].get(key))
    if not changed:
        return
    was, is_now = recorded["environment"], now["environment"]
    differences = [f"{name} {was.get(name)} -> {is_now.get(name)}"
                   for name in sorted(was.keys() | is_now.keys()) if was.get(name) != is_now.get(name)]
    if differences:
        pytest.skip(f"{len(changed)} digests differ in an environment unlike the manifest's "
                    f"({'; '.join(differences)}): {', '.join(changed)}")
    pytest.fail(f"{len(changed)} digests moved: {', '.join(changed)}. Rewrite the manifest "
                "only for a change that moves bits on purpose, and list the entries in CHANGES.md")
