"""Golden command-line outputs: each call's stdout, with the JSON `meta` key
removed, has a pinned sha256 digest, and its exit code is pinned too.

A change that is meant to keep behaviour must keep every digest. `meta` holds
timings and the version, so it is dropped before hashing; every `verify` call
passes `--jobs`, so that `inputs.jobs` does not depend on the CPU count. The
refusals print nothing on stdout, so they pin the digest of the empty string.
"""

import hashlib
import json

import pytest

from berndenom.cli import main

GOLDEN = [
    ("denom 1 --method formula --format json", "9a03b259254aeb95942be249305ad538ec7cfd720ba1f159cc3af769b21c76ed", 0),
    ("denom 1 --method oracle --format csv", "a1b4a87889fdb4bc50c4b0eb2e921c3d5cf1eb2df109d5a482b18f7261ece819", 0),
    ("denom 1 --method both --format plain", "600759fe04fd79472c702cd872e1a9427ec2c625bd6029b02dfb56be79db1596", 0),
    ("denom 9 --method formula --format csv", "5bc1118cce6cb1d445a7e66be4a2946ed867c57b6750f5346c5b6404743bcd8a", 0),
    ("denom 9 --method oracle --format plain", "27045169070b6ff54dae6c184b2748d492a7be911e6345deed6e5837d7dbfd8a", 0),
    ("denom 9 --method both --format json", "5a33f9fe2d890c7d0d5c616e8f34c5daf198a72f0f67d53932a0fdcfc6ad9ffe", 0),
    ("denom 300 --method formula --format plain", "6f73196ce8b613604e3bf9ffb6e597cba215be36f99f7fef19e28afca747ccff", 0),
    ("denom 300 --method oracle --format json", "290b07d66608474b069d3ca3784a45379bc9900576abd1a89cf9deb9684c267d", 0),
    ("denom 300 --method both --format csv", "081283a0d393bbd1969de1d7c429964ad9b0cbcf01a6bc6b1e1c46e70b285679", 0),
    ("verify all --max-n 300 --jobs 1", "617fb5a87676725988370e2c0264d60d372e055f2261857a5c690c845eb18c50", 0),
    ("verify all --max-n 300 --jobs 2", "57e709025eca85bf18a6b625393805b946a426bf3558bd925e22ce99464121a3", 0),
    ("verify all --max-n 500 --jobs 2", "81666b1513a5874f08d6cb01f75ca759b64562caf6823979e11ded207d822ba2", 0),
    ("verify main --max-n 60 --jobs 1 --format csv", "c73d590e1a2d1fe3fc4a560b3a3ace7cf18960dcf6ff6e038e8fc2f73b9992c4", 0),
    ("verify main --max-n 60 --jobs 1 --format plain", "c6cdd15f371a4155e492292dd320546b28df8c55f26f7b5db84d1ebefdeb79d6", 0),
    ("verify bound --max-n 60 --jobs 1 --format csv", "ee7a10b896883d0e79ffdda83ee6914507af59534865c0ef71eeffb74c37eae8", 0),
    ("verify bound --max-n 60 --jobs 1 --format plain", "ba83321cb7c6e9dfae05dee48d9d5343965dbaa5a4899613da45f0eebcacbc00", 0),
    ("verify squarefree --max-n 60 --jobs 1 --format csv", "8a641dbbeb3852542bc1f84d56fd35b6302210a5e26aa3355dc3c92bdfacf8ca", 0),
    ("verify squarefree --max-n 60 --jobs 1 --format plain", "7e2167d70adecd29f96910ce3bf34d9b54630c34b7003dfe2ea494157b2cdc46", 0),
    ("verify binom --max-n 60 --jobs 1 --format csv", "8879ed591019a15c10873c16b192464a042446f1074f9cb90b3713c82f33f1e0", 0),
    ("verify binom --max-n 60 --jobs 1 --format plain", "d945b8b3888a7b2f48d40cfd49c51be92d8c5e678474b1f71e2941509fd44ebd", 0),
    ("verify binom --max-n 1000 --jobs 2", "136a8d7e1b919d736a4ed6642cc5e1b161931ac0e1632e0dfd85f927b659dbaf", 0),
    ("scan 10 --primes 2,3,5,7", "4c2235276180c6a1063e444ee5dfe7d0312a9d15aab5743f17d744f618e202d8", 0),
    ("bernoulli --max 12 --format csv", "120801dd492c927e3757cb7593b4f56b1d8db7cb775e6d16476b556d023e28e8", 0),
    ("frac 9 5", "4a11d4a791a8c6d3c4d16c9cc1e61235d68ef4ae5fb5fc6c768f32f22ee804c2", 0),
    ("stewart 1000 1.5", "70a40143d3d5ae80cd79fb0c57cee30579ce1ca92b0417cb2885da68bf63cb70", 0),
    ("denom 0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    ("frac 9 4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    ("verify all --max-n 1001 --jobs 1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
]


def stdout_digest(text: str) -> str:
    if text.startswith("{"):
        record = json.loads(text)
        # the JSON renderer's own layout, so that dropping meta is the only edit
        assert json.dumps(record, indent=2) + "\n" == text
        del record["meta"]
        text = json.dumps(record, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("call, digest, code", GOLDEN, ids=[entry[0] for entry in GOLDEN])
def test_golden_call(capsys, call, digest, code):
    assert main(call.split()) == code
    captured = capsys.readouterr()
    assert (captured.err == "") == (code == 0)
    assert stdout_digest(captured.out) == digest
