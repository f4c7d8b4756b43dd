//! Backend equivalence properties: every digest backend must produce
//! output byte-identical to the scalar reference for every input shape.
//!
//! This suite is the test-coverage half of the safety argument for the
//! `unsafe` intrinsic blocks (see `crates/crypto/src/shani.rs` and
//! DESIGN.md §10): the intrinsics are only trusted because these sweeps
//! pin them to the scalar implementation across lane counts (1..9,
//! covering partial final sweeps), input lengths (0..3 blocks), and the
//! MD-padding block boundaries (55/56/63/64/65 bytes).
//!
//! `Algorithm::hash`, `hmac::mac` and the batch APIs share one block path
//! (`PartsRef` padding), so the reference here is always the *streaming*
//! `Hasher` / `HmacContext` fed in small chunks: a second, independent
//! padding implementation. ci.sh runs the suite with
//! `ALPHA_DIGEST_BACKEND=scalar`, `=lanes4`, and auto-detected.

use alpha_crypto::backend;
use alpha_crypto::hmac::HmacContext;
use alpha_crypto::{counting, hmac, Algorithm, Digest, Hasher};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const ALGS: [Algorithm; 3] = [Algorithm::Sha1, Algorithm::Sha256, Algorithm::MmoAes];

/// Block-boundary message lengths for 64-byte-block algorithms: 55/56
/// straddle the point where the MD length field no longer fits the final
/// block, 63/64/65 the block edge itself; 0/1 and multi-block round it out.
const EDGE_LENS: [usize; 9] = [0, 1, 55, 56, 63, 64, 65, 128, 192];

fn rand_msg(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut m = vec![0u8; len];
    rng.fill_bytes(&mut m);
    m
}

/// Streaming reference digest of the concatenation of `parts`, fed
/// `chunk` bytes at a time.
fn stream_hash(alg: Algorithm, parts: &[&[u8]], chunk: usize) -> Digest {
    let mut h = Hasher::new(alg);
    for part in parts {
        for piece in part.chunks(chunk) {
            h.update(piece);
        }
    }
    h.finish()
}

/// Streaming reference HMAC of the concatenation of `parts`, fed 7 bytes
/// at a time.
fn stream_mac(alg: Algorithm, key: &[u8], parts: &[&[u8]]) -> Digest {
    let mut ctx = HmacContext::new(alg, key);
    for part in parts {
        for piece in part.chunks(7) {
            ctx.update(piece);
        }
    }
    ctx.finish()
}

/// `digest_batch_using` vs the streaming reference, for every supported
/// backend, every algorithm, every edge length, lane counts 1..9.
#[test]
fn batched_digests_match_scalar_at_block_edges() {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    for kind in backend::available() {
        for alg in ALGS {
            for len in EDGE_LENS {
                for lanes in 1..9usize {
                    let msgs: Vec<Vec<u8>> = (0..lanes).map(|_| rand_msg(&mut rng, len)).collect();
                    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                    let mut out = vec![Digest::zero(alg); lanes];
                    backend::digest_batch_using(kind, alg, &refs, &mut out);
                    for (msg, got) in msgs.iter().zip(&out) {
                        assert_eq!(
                            *got,
                            stream_hash(alg, &[msg], 7),
                            "{kind:?} {alg} len={len} lanes={lanes}"
                        );
                    }
                }
            }
        }
    }
}

/// Random sweep: lengths drawn from 0..3 blocks, random lane counts.
#[test]
fn batched_digests_match_scalar_random_shapes() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for kind in backend::available() {
        for alg in ALGS {
            for _ in 0..64 {
                let lanes = rng.gen_range(1..9usize);
                let msgs: Vec<Vec<u8>> = (0..lanes)
                    .map(|_| {
                        let len = rng.gen_range(0..192usize); // 0..3 blocks
                        rand_msg(&mut rng, len)
                    })
                    .collect();
                let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                let mut out = vec![Digest::zero(alg); lanes];
                backend::digest_batch_using(kind, alg, &refs, &mut out);
                for (msg, got) in msgs.iter().zip(&out) {
                    assert_eq!(
                        *got,
                        stream_hash(alg, &[msg], 7),
                        "{kind:?} {alg} len={}",
                        msg.len()
                    );
                }
            }
        }
    }
}

/// `mac_parts_batch_using` vs the streaming `HmacContext`, all backends,
/// chain-element-sized keys, 1..=3 message parts, edge + random lengths.
#[test]
fn batched_hmacs_match_scalar() {
    let mut rng = StdRng::seed_from_u64(0xac5);
    for kind in backend::available() {
        for alg in ALGS {
            for _ in 0..48 {
                let lanes = rng.gen_range(1..9usize);
                // In ALPHA an HMAC key is always one chain element.
                let keys: Vec<Vec<u8>> = (0..lanes)
                    .map(|_| rand_msg(&mut rng, alg.digest_len()))
                    .collect();
                let parts: Vec<Vec<Vec<u8>>> = (0..lanes)
                    .map(|_| {
                        let n = rng.gen_range(1..=3usize);
                        (0..n)
                            .map(|_| {
                                let len = *EDGE_LENS
                                    .get(rng.gen_range(0..EDGE_LENS.len() + 1))
                                    .unwrap_or(&rng.gen_range(0..192usize));
                                rand_msg(&mut rng, len)
                            })
                            .collect()
                    })
                    .collect();
                let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                let part_refs: Vec<Vec<&[u8]>> = parts
                    .iter()
                    .map(|p| p.iter().map(Vec::as_slice).collect())
                    .collect();
                let msg_refs: Vec<&[&[u8]]> = part_refs.iter().map(Vec::as_slice).collect();
                let mut out = vec![Digest::zero(alg); lanes];
                backend::mac_parts_batch_using(kind, alg, &key_refs, &msg_refs, &mut out);
                for i in 0..lanes {
                    assert_eq!(
                        out[i],
                        stream_mac(alg, &keys[i], &part_refs[i]),
                        "{kind:?} {alg} lane {i}"
                    );
                }
            }
        }
    }
}

/// The convenience wrappers over the *active* backend agree with the
/// streaming reference too (whatever `ALPHA_DIGEST_BACKEND` resolves to in this run).
#[test]
fn active_backend_wrappers_match_scalar() {
    let mut rng = StdRng::seed_from_u64(0xac71);
    for alg in ALGS {
        let msgs: Vec<Vec<u8>> = EDGE_LENS.iter().map(|&l| rand_msg(&mut rng, l)).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mut out = vec![Digest::zero(alg); msgs.len()];
        backend::digest_batch(alg, &refs, &mut out);
        for (msg, got) in msgs.iter().zip(&out) {
            assert_eq!(*got, stream_hash(alg, &[msg], 7), "{alg} len={}", msg.len());
        }

        let keys: Vec<Vec<u8>> = msgs
            .iter()
            .map(|_| rand_msg(&mut rng, alg.digest_len()))
            .collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut macs = vec![Digest::zero(alg); msgs.len()];
        backend::mac_batch(alg, &key_refs, &refs, &mut macs);
        for i in 0..msgs.len() {
            assert_eq!(
                macs[i],
                stream_mac(alg, &keys[i], &[&msgs[i]]),
                "{alg} mac {i}"
            );
        }
    }
}

/// Long keys (beyond one block) take the scalar pre-hash fallback; they
/// must still agree with scalar HMAC on every backend.
#[test]
fn long_key_hmac_fallback_matches_scalar() {
    let mut rng = StdRng::seed_from_u64(0x10f);
    for kind in backend::available() {
        for alg in [Algorithm::Sha1, Algorithm::Sha256] {
            let keys: Vec<Vec<u8>> = (0..4).map(|_| rand_msg(&mut rng, 100)).collect();
            let msgs: Vec<Vec<u8>> = (0..4).map(|_| rand_msg(&mut rng, 64)).collect();
            let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            let parts: Vec<[&[u8]; 1]> = msgs.iter().map(|m| [m.as_slice()]).collect();
            let msg_refs: Vec<&[&[u8]]> = parts.iter().map(|p| p.as_slice()).collect();
            let mut out = vec![Digest::zero(alg); 4];
            backend::mac_parts_batch_using(kind, alg, &key_refs, &msg_refs, &mut out);
            for i in 0..4 {
                assert_eq!(
                    out[i],
                    stream_mac(alg, &keys[i], &[&msgs[i]]),
                    "{kind:?} {alg}"
                );
            }
        }
    }
}

/// Every way to split `msg` into 2, 3 and 4 parts with one cut at `at`
/// (the other cuts halve the remaining spans).
fn splits(msg: &[u8], at: usize) -> [Vec<&[u8]>; 3] {
    let (head, tail) = msg.split_at(at);
    let (h0, h1) = head.split_at(at / 2);
    let (t0, t1) = tail.split_at(tail.len() / 2);
    [vec![head, tail], vec![head, t0, t1], vec![h0, h1, t0, t1]]
}

/// The one-shot `Algorithm::hash_parts` (active backend) equals the
/// streaming `Hasher` fed 1-byte and 7-byte chunks, for every length
/// 0..=200 (all padding edges: 55/56/63/64/65, 119/120, 127/128) and
/// every cut position, plus the 5-part streaming fallback.
#[test]
fn one_shot_hash_parts_matches_chunked_streaming() {
    let mut rng = StdRng::seed_from_u64(0x0de5);
    for alg in ALGS {
        for len in 0..=200usize {
            let msg = rand_msg(&mut rng, len);
            let by_byte = stream_hash(alg, &[&msg], 1);
            assert_eq!(stream_hash(alg, &[&msg], 7), by_byte, "{alg} len={len}");
            assert_eq!(alg.hash(&msg), by_byte, "{alg} len={len}");
            for at in 0..=len {
                for parts in splits(&msg, at) {
                    assert_eq!(
                        alg.hash_parts(&parts),
                        by_byte,
                        "{alg} len={len} cut={at} parts={}",
                        parts.len()
                    );
                }
            }
            // More parts than the one-shot path takes: streaming fallback.
            let (head, tail) = msg.split_at(len / 2);
            let five: [&[u8]; 5] = [&[], head, &[], tail, &[]];
            assert_eq!(alg.hash_parts(&five), by_byte, "{alg} len={len} five-part");
        }
    }
}

/// The one-shot entry points leave exactly the counts their streaming
/// twins leave, field for field: Table 1 and the end-to-end benchmark's
/// `crypto.*` counters read these.
#[test]
fn one_shot_counts_match_streaming_twins() {
    fn counts_of(f: impl FnOnce() -> Digest) -> counting::Counts {
        let scope = counting::Scope::start();
        let _ = f();
        scope.finish()
    }
    let mut rng = StdRng::seed_from_u64(0xc0c0);
    for alg in ALGS {
        for len in [0usize, 22, 55, 64, 65, 200, 1100] {
            let msg = rand_msg(&mut rng, len);
            let key = rand_msg(&mut rng, alg.digest_len());
            let (a, b) = msg.split_at(len / 3);
            let (b, c) = b.split_at(b.len() / 2);
            let what = format!("{alg} len={len}");

            let streamed = counts_of(|| stream_hash(alg, &[&msg], 7));
            assert_eq!(counts_of(|| alg.hash(&msg)), streamed, "hash {what}");
            let one_shot = counts_of(|| alg.hash_parts(&[a, b, c]));
            assert_eq!(one_shot, streamed, "hash_parts {what}");

            let streamed = counts_of(|| stream_mac(alg, &key, &[&msg]));
            let one_shot = counts_of(|| hmac::mac(alg, &key, &msg));
            assert_eq!(one_shot, streamed, "mac {what}");
            let one_shot = counts_of(|| hmac::mac_parts(alg, &key, &[a, b, c]));
            assert_eq!(one_shot, streamed, "mac_parts {what}");

            // Four message parts take prefix_mac's streaming fallback.
            let (c0, c1) = c.split_at(c.len() / 2);
            let streamed = counts_of(|| hmac::prefix_mac(alg, &key, &[a, b, c0, c1]));
            let one_shot = counts_of(|| hmac::prefix_mac(alg, &key, &[a, b, c]));
            assert_eq!(one_shot, streamed, "prefix_mac {what}");
            assert_eq!(
                hmac::prefix_mac(alg, &key, &[a, b, c]),
                stream_hash(alg, &[&key, &msg], 7),
                "prefix_mac digest {what}"
            );
        }
    }
}
