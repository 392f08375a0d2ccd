"""Property tests: the crypto layer's contracts under arbitrary values.

Complements ``test_crypto.py`` (hand-picked cases) with Hypothesis
sweeps over the full encodable vocabulary: sign/verify round-trips,
injectivity of the canonical encoding, and rejection of tampered
signed/certified messages.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.certificates import Certificate, EMPTY_CERTIFICATE, SignedMessage
from repro.crypto.encoding import canonical_bytes
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import Signature, SignatureScheme
from repro.messages.consensus import Init

from tests.helpers import SignedWorkbench

# Values drawn from the encodable vocabulary. Lists map to tuples and
# floats exclude NaN (NaN != NaN) and -0.0 (0.0 == -0.0 but their hex
# encodings differ) so that structural equality of draws is exactly the
# equality the encoding must respect.
encodable = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False).filter(lambda x: str(x) != "-0.0")
    | st.text(max_size=16)
    | st.binary(max_size=16),
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)


def strictly_equal(a, b) -> bool:
    """Type-strict structural equality: the equality the encoding respects.

    Python's ``==`` equates ``False``, ``0`` and ``0.0`` (and ``True``,
    ``1`` and ``1.0``), which the canonical encoding tells apart on
    purpose; so two values count as equal here only if their types
    match at every level.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(strictly_equal, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            strictly_equal(a[key], b[key]) for key in a
        )
    return a == b


# Counterexamples to a plain ``==`` oracle: equal in Python, encoded apart.
BOOL_VS_INT_LEAF = ((False, False, False), (False, False, 0))
BOOL_VS_INT = (1, True)


class TestEncodingRoundTrip:
    @given(encodable, encodable)
    @example(*BOOL_VS_INT_LEAF)
    @example(*BOOL_VS_INT)
    def test_injective(self, a, b):
        # The encoding is a bijection onto its image over this domain:
        # equal values encode equally, distinct values distinctly.
        if strictly_equal(a, b):
            assert canonical_bytes(a) == canonical_bytes(b)
        else:
            assert canonical_bytes(a) != canonical_bytes(b)

    @given(encodable)
    def test_stable_across_calls(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)


class TestSignVerifyRoundTrip:
    @given(value=encodable, signer=st.integers(0, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, value, signer, seed):
        scheme = SignatureScheme(KeyAuthority(4, seed=seed))
        signature = scheme.sign(scheme.authority.signer_for(signer), value)
        assert signature.signer == signer
        assert scheme.verify(value, signature)

    @given(value=encodable, other=encodable, signer=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    @example(*BOOL_VS_INT_LEAF, 0)
    @example(*BOOL_VS_INT, 0)
    def test_signature_does_not_transfer_to_other_values(
        self, value, other, signer
    ):
        scheme = SignatureScheme(KeyAuthority(4))
        signature = scheme.sign(scheme.authority.signer_for(signer), value)
        assert scheme.verify(other, signature) == strictly_equal(value, other)

    @given(value=encodable, signer=st.integers(0, 3), claimed=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_identity_is_bound(self, value, signer, claimed):
        scheme = SignatureScheme(KeyAuthority(4))
        signature = scheme.sign(scheme.authority.signer_for(signer), value)
        relabeled = Signature(signer=claimed, mac=signature.mac)
        assert scheme.verify(value, relabeled) == (claimed == signer)

    @given(value=encodable, claimed=st.integers(0, 3), nonce=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_forgeries_never_verify(self, value, claimed, nonce):
        scheme = SignatureScheme(KeyAuthority(4))
        forged = scheme.forge(claimed, value, nonce=nonce)
        assert not scheme.verify(value, forged)


class TestTamperedCertificates:
    @given(value=encodable)
    @settings(max_examples=40, deadline=None)
    def test_honest_message_verifies_even_pruned(self, value):
        bench = SignedWorkbench(4)
        message = bench.authorities[1].make(
            Init(sender=1, value=value), EMPTY_CERTIFICATE
        )
        assert bench.verify(message)
        assert bench.verify(message.light())

    @given(value=encodable, other=encodable)
    @settings(max_examples=40, deadline=None)
    @example(*BOOL_VS_INT_LEAF)
    @example(*BOOL_VS_INT)
    def test_tampered_body_rejected(self, value, other):
        bench = SignedWorkbench(4)
        message = bench.authorities[1].make(
            Init(sender=1, value=value), EMPTY_CERTIFICATE
        )
        tampered = SignedMessage(
            body=Init(sender=1, value=other),
            cert=message.cert,
            signature=message.signature,
        )
        assert bench.verify(tampered) == strictly_equal(value, other)

    def test_tampered_certificate_rejected(self):
        # The signature covers the certificate digest: swapping the
        # certificate under a CURRENT changes the digest and must be
        # rejected, exactly the paper's "cannot falsify history" claim.
        bench = SignedWorkbench(4)
        current = bench.coordinator_current(round_number=1)
        assert bench.verify(current)
        full = current.full_cert()
        smaller = Certificate(full.entries[:-1])
        tampered = SignedMessage(
            body=current.body, cert=smaller, signature=current.signature
        )
        assert not bench.verify(tampered)

    def test_stolen_signature_rejected(self):
        # Re-using p1's signature on a body claiming sender p2 fails the
        # identity check before the MAC is even consulted.
        bench = SignedWorkbench(4)
        message = bench.signed_init(1, value="v")
        stolen = SignedMessage(
            body=Init(sender=2, value="v"),
            cert=EMPTY_CERTIFICATE,
            signature=message.signature,
        )
        assert not bench.verify(stolen)

    @given(flip=st.integers(0, 255), position=st.integers(0, 31))
    @settings(max_examples=40, deadline=None)
    def test_bitflipped_mac_rejected(self, flip, position):
        bench = SignedWorkbench(4)
        message = bench.signed_init(0, value="payload")
        mac = bytearray(message.signature.mac)
        mac[position] ^= flip
        mangled = SignedMessage(
            body=message.body,
            cert=message.cert,
            signature=Signature(signer=0, mac=bytes(mac)),
        )
        assert bench.verify(mangled) == (flip == 0)
