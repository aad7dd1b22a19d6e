import json

import pytest

import bits_manifest


@pytest.fixture(scope="module")
def now():
    return bits_manifest.compute()


def test_every_artifact_and_digest_keeps_the_manifests_bits(now):
    """The CLI artifacts and perfbench fingerprints of ``bits_manifest`` are the recorded bits.

    A mismatch fails in the recorded environment and skips, naming the
    difference, in any other (see ``bits_manifest``'s docstring).
    """
    recorded = json.loads(bits_manifest.MANIFEST.read_text(encoding="utf-8"))
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


def test_every_entry_has_the_same_bits_at_one_and_two_blas_threads(now):
    """Unlike the recorded digests, this holds in any environment: BLAS threads never move a bit."""
    one, two = ({key.split("/", 1)[1]: value for key, value in now["digests"].items()
                 if key.startswith(f"blas{threads}/")} for threads in bits_manifest.BLAS_THREADS)
    assert one, "no digest computed"
    split = sorted(key for key in one.keys() | two.keys() if one.get(key) != two.get(key))
    assert not split, f"{len(split)} entries differ between 1 and 2 BLAS threads: {', '.join(split)}"
