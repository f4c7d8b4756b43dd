//! HMAC (RFC 2104), generic over the crate's hash [`Algorithm`]s.
//!
//! ALPHA keys each message MAC with the signer's *next undisclosed* hash
//! chain element (`M(h^Ss_{i-1} | m)` in Fig. 2). The paper references the
//! HMAC construction [Bellare, Canetti, Krawczyk] for this; we implement
//! real HMAC rather than a bare prefix hash so the MAC is safe even over
//! Merkle–Damgård functions with known length-extension behaviour.
//!
//! Keys of any length are accepted: longer-than-block keys are hashed first,
//! shorter ones zero-padded, exactly per RFC 2104. In ALPHA the key is
//! always one digest (20 B for SHA-1, 16 B for MMO), i.e. shorter than the
//! block.

use crate::backend::{self, MAX_PARTS};
use crate::{counting, Algorithm, Digest, Hasher};

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Largest HMAC block this crate uses (SHA-1/SHA-256).
const MAX_BLOCK: usize = 64;

/// Streaming HMAC context.
pub struct HmacContext {
    alg: Algorithm,
    inner: Hasher,
    opad_key: [u8; MAX_BLOCK],
}

impl HmacContext {
    /// Start an HMAC computation with `key`.
    #[must_use]
    pub fn new(alg: Algorithm, key: &[u8]) -> HmacContext {
        let block = alg.block_len();
        let mut k = [0u8; MAX_BLOCK];
        if key.len() > block {
            let kd = alg.hash(key);
            k[..kd.len()].copy_from_slice(kd.as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad_key = [0u8; MAX_BLOCK];
        let mut opad_key = [0u8; MAX_BLOCK];
        for i in 0..block {
            ipad_key[i] = k[i] ^ IPAD;
            opad_key[i] = k[i] ^ OPAD;
        }
        let mut inner = Hasher::new(alg);
        inner.update(&ipad_key[..block]);
        HmacContext {
            alg,
            inner,
            opad_key,
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finalize the tag.
    #[must_use]
    pub fn finish(self) -> Digest {
        let inner_digest = self.inner.finish();
        let mut outer = Hasher::new(self.alg);
        outer.update(&self.opad_key[..self.alg.block_len()]);
        outer.update(inner_digest.as_bytes());
        counting::record_mac(2);
        outer.finish()
    }
}

/// One-shot HMAC tag over `msg` with `key`.
#[must_use]
pub fn mac(alg: Algorithm, key: &[u8], msg: &[u8]) -> Digest {
    mac_parts(alg, key, &[msg])
}

/// One-shot HMAC over the concatenation of `parts`.
///
/// SHA-1/SHA-256 with a key of at most one block and up to three parts
/// (every MAC ALPHA computes) runs as a one-lane
/// [`backend::mac_parts_batch`]: two one-shot passes over stack-built pad
/// blocks. Anything else runs the streaming [`HmacContext`]. Digests and
/// counts are the same either way.
#[must_use]
pub fn mac_parts(alg: Algorithm, key: &[u8], parts: &[&[u8]]) -> Digest {
    if alg != Algorithm::MmoAes && key.len() <= alg.block_len() && parts.len() < MAX_PARTS {
        let mut out = [Digest::zero(alg)];
        backend::mac_parts_batch(alg, &[key], &[parts], &mut out);
        return out[0];
    }
    let mut ctx = HmacContext::new(alg, key);
    for p in parts {
        ctx.update(p);
    }
    ctx.finish()
}

/// Constant-time tag verification.
#[must_use]
pub fn verify(alg: Algorithm, key: &[u8], msg: &[u8], tag: &Digest) -> bool {
    crate::ct_eq(mac(alg, key, msg).as_bytes(), tag.as_bytes())
}

/// Single-pass *prefix MAC*: `H(key | parts…)`.
///
/// In a generic setting this is weaker than HMAC (Merkle–Damgård length
/// extension lets an attacker append to the message). Inside ALPHA it is
/// sound: the MAC is *committed in the S1 packet before the key is
/// disclosed*, so a verifier only ever compares against the buffered
/// commitment and an extended forgery can never match it. The paper's
/// sensor-node cost figures (§4.1.3) assume this single-pass construction
/// — one MMO invocation per MAC — which is why it exists here alongside
/// HMAC; select per deployment via the protocol configuration.
#[must_use]
pub fn prefix_mac(alg: Algorithm, key: &[u8], parts: &[&[u8]]) -> Digest {
    counting::record_mac(1);
    if parts.len() < MAX_PARTS {
        let mut all: [&[u8]; MAX_PARTS] = [key; MAX_PARTS];
        all[1..=parts.len()].copy_from_slice(parts);
        return alg.hash_parts(&all[..=parts.len()]);
    }
    let mut h = crate::Hasher::new(alg);
    h.update(key);
    for p in parts {
        h.update(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.to_hex()
    }

    // RFC 2202 test case 1 (HMAC-SHA-1).
    #[test]
    fn rfc2202_case1() {
        let key = [0x0bu8; 20];
        let tag = mac(Algorithm::Sha1, &key, b"Hi There");
        assert_eq!(hex(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    // RFC 2202 test case 2: key "Jefe".
    #[test]
    fn rfc2202_case2() {
        let tag = mac(Algorithm::Sha1, b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    // RFC 2202 test case 6: 80-byte key (longer than the 64-byte block).
    #[test]
    fn rfc2202_long_key() {
        let key = [0xaau8; 80];
        let tag = mac(
            Algorithm::Sha1,
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&tag), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    }

    // RFC 4231 test case 1 (HMAC-SHA-256).
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = mac(Algorithm::Sha256, &key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        for alg in Algorithm::ALL {
            let key = alg.hash(b"chain element").as_bytes().to_vec();
            let tag = mac(alg, &key, b"payload");
            assert!(verify(alg, &key, b"payload", &tag));
            assert!(!verify(alg, &key, b"payloae", &tag));
            assert!(!verify(alg, b"wrong key", b"payload", &tag));
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let key = b"k";
        let msg: Vec<u8> = (0u8..200).collect();
        for alg in Algorithm::ALL {
            let mut ctx = HmacContext::new(alg, key);
            for chunk in msg.chunks(7) {
                ctx.update(chunk);
            }
            assert_eq!(ctx.finish(), mac(alg, key, &msg));
        }
    }

    #[test]
    fn mac_counts_one_logical_op() {
        crate::counting::reset();
        let _ = mac(Algorithm::Sha1, b"key", b"some message body here");
        let c = crate::counting::snapshot();
        assert_eq!(c.mac_invocations, 1);
        assert_eq!(c.invocations, 2); // inner + outer pass
    }

    #[test]
    fn mac_parts_matches_concat() {
        let key = b"key";
        let a = mac(Algorithm::MmoAes, key, b"part one and part two");
        let b = mac_parts(Algorithm::MmoAes, key, &[b"part one ", b"and part two"]);
        assert_eq!(a, b);
    }
}
