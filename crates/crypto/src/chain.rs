//! One-way hash chains with the S1/S2 role binding of §3.2.1.
//!
//! A chain is built by iterating a hash function over a random seed:
//! `h_1 = H(s)`, `h_2 = H(h_1)`, …, up to the *anchor* `h_n`, and elements
//! are then *disclosed in reverse order of creation* (anchor first). A
//! receiver that knows `h_i` can authenticate a disclosed `h_{i-1}` by
//! recomputing one hash — and can catch up over lost disclosures by hashing
//! forward several steps.
//!
//! ALPHA refines this with **role binding** (§3.2.1): elements are created as
//!
//! ```text
//! h_i = H(tag_1 | h_{i-1})   for odd  i
//! h_i = H(tag_2 | h_{i-1})   for even i
//! ```
//!
//! making S1-authentication elements (odd positions) distinguishable from
//! MAC-key elements (even positions). Without this, an attacker who
//! intercepts an S2 packet and the following S1 could recombine their
//! elements into a fresh-looking S1 with a seemingly valid pre-signature
//! (the *reformatting attack*); with it, a chain element can only ever be
//! accepted in the role its position encodes.
//!
//! A signature exchange consumes a descending *pair* of elements: the odd
//! element authenticates the S1 packet and the even element below it keys
//! the MAC and is disclosed in the S2 packet. Acknowledgment chains use the
//! same structure with their own tag pair (A1/A2).

use crate::{Algorithm, Digest};
use rand::RngCore;

/// How chain elements are derived from their predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    /// `h_i = H(h_{i-1})` — the classic Lamport chain. Vulnerable to the
    /// reformatting attack when used for ALPHA's unreliable mode; provided
    /// for the ablation benches and for protocols that do not need roles.
    Plain,
    /// Role-bound derivation with the signature-chain tags `"S1"` / `"S2"`.
    RoleBoundSignature,
    /// Role-bound derivation with the acknowledgment-chain tags `"A1"` / `"A2"`.
    RoleBoundAck,
}

impl ChainKind {
    /// Domain-separation tag for position `index` (1-based), or `None` for
    /// plain chains.
    #[must_use]
    pub fn tag(self, index: u64) -> Option<&'static [u8]> {
        match self {
            ChainKind::Plain => None,
            ChainKind::RoleBoundSignature => Some(if index % 2 == 1 {
                b"S1".as_slice()
            } else {
                b"S2".as_slice()
            }),
            ChainKind::RoleBoundAck => Some(if index % 2 == 1 {
                b"A1".as_slice()
            } else {
                b"A2".as_slice()
            }),
        }
    }
}

/// The protocol role a chain position may be used in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Authenticates the announcing packet of an exchange (S1 or A1).
    Announce,
    /// Keys the MAC / authenticates the disclosing packet (S2 or A2).
    Disclose,
}

/// Role encoded by a 1-based chain position: odd positions announce, even
/// positions disclose (the chain is always generated with even length so
/// the first consumed pair is `(odd, even)` descending).
#[must_use]
pub fn role_of(index: u64) -> Role {
    if index % 2 == 1 {
        Role::Announce
    } else {
        Role::Disclose
    }
}

/// Errors raised by chain generation and verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// The chain has no undisclosed elements left.
    Exhausted,
    /// A disclosed element's index does not descend from the last accepted
    /// element (replay or duplicate).
    NonDescendingIndex,
    /// Hashing forward from the disclosed element did not reproduce the
    /// last accepted element: the element is forged or corrupted.
    Mismatch,
    /// The verifier would need to hash forward more than its configured
    /// bound — rejected to bound CPU spent on garbage (resource-exhaustion
    /// defence, §3.5).
    SkipTooLarge,
    /// A disclosed element was presented in a role its position forbids
    /// (the reformatting attack of §3.2.1).
    WrongRole {
        /// Role the protocol context demanded.
        expected: Role,
        /// Role the element's chain position encodes.
        actual: Role,
    },
    /// An element index beyond the chain's length was requested
    /// ([`HashChain::try_element`]).
    IndexOutOfRange,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Exhausted => write!(f, "hash chain exhausted"),
            ChainError::NonDescendingIndex => write!(f, "chain element index does not descend"),
            ChainError::Mismatch => write!(f, "chain element does not hash to anchor"),
            ChainError::SkipTooLarge => write!(f, "chain element skips too many positions"),
            ChainError::WrongRole { expected, actual } => {
                write!(
                    f,
                    "chain element role {actual:?} where {expected:?} expected"
                )
            }
            ChainError::IndexOutOfRange => write!(f, "chain element index out of range"),
        }
    }
}

impl std::error::Error for ChainError {}

/// How a chain owner stores its elements.
#[derive(Clone)]
enum Storage {
    /// Every element kept in memory: O(n) space, O(1) element access.
    /// `elements[0]` is the seed hash `h_0`; the anchor is `elements[len]`.
    Full(Vec<Digest>),
    /// Checkpointed storage for memory-constrained owners (the paper's
    /// sensor nodes hold 8 KB of RAM total): every `interval`-th element is
    /// kept, anything else is recomputed forward from the checkpoint below
    /// it. With `interval = ⌈√n⌉` this is the classic two-level traversal
    /// (cf. Jakobsson, ISIT 2002): sequential disclosure fills the cursor's
    /// segment once from its checkpoint and then reads it from `segment`,
    /// so it costs O(1) amortized hashes per element (about one) in
    /// O(√n) space — 2√n digests once disclosing, √n before.
    Compact {
        interval: u64,
        /// `checkpoints[k] = h_{k·interval}`. Checkpoint 0 is the seed
        /// hash, which [`HashChain::freeze`] keeps so the chain can be
        /// re-derived from `h_0`.
        checkpoints: Vec<Digest>,
        /// Elements `k·interval + 1 ..= min(k·interval + interval − 1, len)`
        /// of segment `k = segment_k`, filled on the first disclosure in
        /// that segment. Empty (and unallocated) until the chain first
        /// discloses; a filled segment is never empty.
        segment: Vec<Digest>,
        segment_k: u64,
        len: u64,
    },
    /// Lazy dyadic checkpointing: one pebble per power-of-two level,
    /// `⌈log2 n⌉ + 1` digests total. Pebble `j` holds the element at the
    /// base of the `2^j`-aligned segment containing the traversal cursor
    /// and is refreshed from pebble `j+1` when the cursor crosses a `2^j`
    /// boundary — O(log n) memory, O(log n) *amortized* hashes per
    /// disclosure (worst-case single-step spikes of up to n/2 at the few
    /// large boundaries, unlike Jakobsson's fully smoothed traversal).
    Dyadic {
        /// `pebbles[j]` = element at position `base_j(cursor)`, where
        /// `base_j(p) = (p >> j) << j`; `pebbles[0]` tracks the cursor
        /// itself. Pebble `k` stays at position 0 (the seed hash).
        pebbles: Vec<Digest>,
        /// Position each pebble currently holds.
        positions: Vec<u64>,
        len: u64,
    },
}

/// A generated hash chain owned by the signing (or acknowledging) side.
///
/// ```
/// use alpha_crypto::chain::{ChainKind, ChainVerifier, HashChain, Role};
/// use alpha_crypto::Algorithm;
///
/// let mut rng = rand::thread_rng();
/// let mut chain = HashChain::generate(
///     Algorithm::Sha1, ChainKind::RoleBoundSignature, 64, &mut rng);
///
/// // The verifier starts from the public anchor…
/// let mut verifier = ChainVerifier::new(
///     Algorithm::Sha1, ChainKind::RoleBoundSignature,
///     chain.anchor(), chain.anchor_index());
///
/// // …and authenticates each disclosed (announce, key) pair.
/// let ((a_idx, a_el), (k_idx, k_el)) = chain.disclose_pair().unwrap();
/// verifier.accept_role(a_idx, &a_el, Role::Announce).unwrap();
/// verifier.accept_role(k_idx, &k_el, Role::Disclose).unwrap();
///
/// // Replays are rejected by index descent.
/// assert!(verifier.accept_role(a_idx, &a_el, Role::Announce).is_err());
/// ```
#[derive(Clone)]
pub struct HashChain {
    alg: Algorithm,
    kind: ChainKind,
    storage: Storage,
    /// Index of the next element to disclose (descending; starts at `len-1`
    /// because the anchor `h_len` is published at bootstrap).
    next: u64,
}

impl HashChain {
    /// Generate a chain of `len` elements above the seed. `len` is rounded
    /// up to the next even number so exchanges always consume aligned
    /// (announce, disclose) pairs.
    #[must_use]
    pub fn generate(alg: Algorithm, kind: ChainKind, len: u64, rng: &mut dyn RngCore) -> HashChain {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed(alg, kind, len, &seed)
    }

    /// Deterministic generation from an explicit seed (tests, regeneration).
    #[must_use]
    pub fn from_seed(alg: Algorithm, kind: ChainKind, len: u64, seed: &[u8]) -> HashChain {
        let len = if len.is_multiple_of(2) { len } else { len + 1 };
        assert!(len >= 2, "chain must hold at least one exchange pair");
        Self::full_from_h0(alg, kind, len, alg.hash(seed))
    }

    /// Full storage rebuilt from the seed hash `h_0` (even `len >= 2`).
    fn full_from_h0(alg: Algorithm, kind: ChainKind, len: u64, h0: Digest) -> HashChain {
        debug_assert!(len >= 2 && len.is_multiple_of(2));
        let mut elements = Vec::with_capacity(len as usize + 1);
        elements.push(h0); // h_0: never disclosed
        for i in 1..=len {
            let prev = elements[(i - 1) as usize];
            elements.push(derive(alg, kind, i, &prev));
        }
        HashChain {
            alg,
            kind,
            storage: Storage::Full(elements),
            next: len - 1,
        }
    }

    /// Deterministic generation of several chains in lockstep, hashing each
    /// derivation step across all chains in one multi-lane sweep (see
    /// [`crate::backend`]). Every chain shares `alg` and `len` (rounded up
    /// to even as in [`HashChain::from_seed`]); each `specs` entry supplies
    /// a chain's derivation kind and seed, and the output order matches
    /// `specs`. Byte-identical to calling [`HashChain::from_seed`] per
    /// entry — lanes change the schedule, never the derivation.
    ///
    /// Bootstrap is the natural caller: an association's signature and
    /// acknowledgment chains have the same algorithm and length, so both
    /// are produced in a single two-lane pass.
    #[must_use]
    pub fn from_seeds_batch(
        alg: Algorithm,
        len: u64,
        specs: &[(ChainKind, &[u8])],
    ) -> Vec<HashChain> {
        let len = if len.is_multiple_of(2) { len } else { len + 1 };
        assert!(len >= 2, "chain must hold at least one exchange pair");
        let n = specs.len();
        let seeds: Vec<&[u8]> = specs.iter().map(|(_, s)| *s).collect();
        let mut cur = vec![Digest::zero(alg); n];
        crate::backend::digest_batch(alg, &seeds, &mut cur);
        let mut elements: Vec<Vec<Digest>> = cur
            .iter()
            .map(|h0| {
                let mut v = Vec::with_capacity(len as usize + 1);
                v.push(*h0); // h_0: never disclosed
                v
            })
            .collect();
        let mut next = vec![Digest::zero(alg); n];
        for i in 1..=len {
            let jobs: Vec<crate::backend::PartsRef<'_>> = specs
                .iter()
                .zip(cur.iter())
                .map(|((kind, _), prev)| match kind.tag(i) {
                    Some(tag) => crate::backend::PartsRef::new(&[tag, prev.as_bytes()]),
                    None => crate::backend::PartsRef::one(prev.as_bytes()),
                })
                .collect();
            crate::backend::hash_parts_lanes(alg, &jobs, &mut next);
            for (v, d) in elements.iter_mut().zip(next.iter()) {
                v.push(*d);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        specs
            .iter()
            .zip(elements)
            .map(|(&(kind, _), elements)| HashChain {
                alg,
                kind,
                storage: Storage::Full(elements),
                next: len - 1,
            })
            .collect()
    }

    /// Generate a chain with O(√n) checkpointed storage instead of keeping
    /// all elements — for memory-constrained owners (sensor nodes).
    /// Sequential disclosure costs about one hash per element amortized;
    /// random access through [`HashChain::element`] costs up to `⌈√n⌉`.
    #[must_use]
    pub fn generate_compact(
        alg: Algorithm,
        kind: ChainKind,
        len: u64,
        rng: &mut dyn RngCore,
    ) -> HashChain {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed_compact(alg, kind, len, &seed)
    }

    /// Deterministic compact generation (see [`HashChain::generate_compact`]).
    #[must_use]
    pub fn from_seed_compact(alg: Algorithm, kind: ChainKind, len: u64, seed: &[u8]) -> HashChain {
        let len = if len.is_multiple_of(2) { len } else { len + 1 };
        assert!(len >= 2, "chain must hold at least one exchange pair");
        Self::compact_from_h0(alg, kind, len, alg.hash(seed))
    }

    /// Compact storage rebuilt from the seed hash `h_0` (even `len >= 2`).
    fn compact_from_h0(alg: Algorithm, kind: ChainKind, len: u64, seed_hash: Digest) -> HashChain {
        debug_assert!(len >= 2 && len.is_multiple_of(2));
        let interval = (len as f64).sqrt().ceil() as u64;
        let mut checkpoints = Vec::with_capacity((len / interval) as usize + 1);
        checkpoints.push(seed_hash);
        let mut cur = seed_hash;
        for i in 1..=len {
            cur = derive(alg, kind, i, &cur);
            if i % interval == 0 {
                checkpoints.push(cur);
            }
        }
        HashChain {
            alg,
            kind,
            storage: Storage::Compact {
                interval,
                checkpoints,
                segment: Vec::new(),
                segment_k: 0,
                len,
            },
            next: len - 1,
        }
    }

    /// Generate a chain with O(log n) dyadic-pebble storage — the lowest-
    /// memory option; element access costs O(log n) hashes amortized.
    #[must_use]
    pub fn generate_dyadic(
        alg: Algorithm,
        kind: ChainKind,
        len: u64,
        rng: &mut dyn RngCore,
    ) -> HashChain {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed_dyadic(alg, kind, len, &seed)
    }

    /// Deterministic dyadic generation (see [`HashChain::generate_dyadic`]).
    #[must_use]
    pub fn from_seed_dyadic(alg: Algorithm, kind: ChainKind, len: u64, seed: &[u8]) -> HashChain {
        let len = if len.is_multiple_of(2) { len } else { len + 1 };
        assert!(len >= 2, "chain must hold at least one exchange pair");
        let seed_hash = alg.hash(seed);
        // The traversal starts by disclosing len-1 (the anchor is published
        // at bootstrap), so the pebbles are positioned for cursor = len-1.
        Self::dyadic_from_h0(alg, kind, len, len - 1, seed_hash)
    }

    /// Dyadic storage rebuilt from the seed hash `h_0`, with every pebble
    /// positioned for a traversal cursor at `cursor` (even `len >= 2`,
    /// `cursor < len`).
    fn dyadic_from_h0(
        alg: Algorithm,
        kind: ChainKind,
        len: u64,
        cursor: u64,
        seed_hash: Digest,
    ) -> HashChain {
        debug_assert!(len >= 2 && len.is_multiple_of(2));
        debug_assert!(cursor < len);
        let levels = 64 - (len - 1).leading_zeros() as u64 + 1; // ⌈log2 len⌉ + 1
                                                                // Pebble j sits at base_j(cursor) = (cursor >> j) << j.
        let mut positions: Vec<u64> = (0..levels).map(|j| (cursor >> j) << j).collect();
        // Highest pebble anchors the recursion at the seed.
        *positions.last_mut().expect("levels >= 1") = 0;
        let mut pebbles = vec![seed_hash; levels as usize];
        // One forward pass fills every pebble.
        let mut cur = seed_hash;
        for i in 1..=cursor {
            cur = derive(alg, kind, i, &cur);
            for (j, &pos) in positions.iter().enumerate() {
                if pos == i {
                    pebbles[j] = cur;
                }
            }
        }
        HashChain {
            alg,
            kind,
            storage: Storage::Dyadic {
                pebbles,
                positions,
                len,
            },
            next: cursor,
        }
    }

    fn total_len(&self) -> u64 {
        match &self.storage {
            Storage::Full(e) => e.len() as u64 - 1,
            Storage::Compact { len, .. } => *len,
            Storage::Dyadic { len, .. } => *len,
        }
    }

    /// Dyadic storage only: restore the invariant `positions[j] ==
    /// base_j(index)` for a (non-increasing) access at `index`, refreshing
    /// stale pebbles top-down, then return the element at `index`.
    fn dyadic_element(&mut self, index: u64) -> Digest {
        let alg = self.alg;
        let kind = self.kind;
        let Storage::Dyadic {
            pebbles,
            positions,
            len,
        } = &mut self.storage
        else {
            unreachable!("caller checked");
        };
        // Internal invariant, not a release-mode bounds check: the only
        // caller (`element_mut_path`) is reached through `disclose`, which
        // maintains `next <= len`.
        debug_assert!(index <= *len, "element index out of range");
        let levels = pebbles.len();
        // The anchor (index == len) is one step above the top segment;
        // handle it via the cursor path as well.
        // Refresh top-down: each level's base must hold base_j(index).
        for j in (0..levels - 1).rev() {
            let want = (index >> j) << j;
            if positions[j] == want {
                continue;
            }
            // Walk forward from the next-higher pebble that is already
            // correct (level j+1 was fixed in the previous iteration).
            let (mut pos, mut cur) = (positions[j + 1], pebbles[j + 1]);
            debug_assert!(pos <= want, "upper pebble must not be ahead");
            while pos < want {
                pos += 1;
                cur = derive(alg, kind, pos, &cur);
            }
            positions[j] = want;
            pebbles[j] = cur;
        }
        // Level 0 now holds base_0(index) = index… unless index == want
        // chain above already; walk the residue (index - positions[0]).
        let (mut pos, mut cur) = (positions[0], pebbles[0]);
        while pos < index {
            pos += 1;
            cur = derive(alg, kind, pos, &cur);
        }
        cur
    }

    /// Compact storage only: the element at `index`, read from its
    /// checkpoint or from the cached cursor segment, which is refilled
    /// (`interval − 1` hashes at most) when `index` leaves it. Disclosure
    /// descends, so each segment is filled once per traversal.
    fn compact_element(&mut self, index: u64) -> Digest {
        let alg = self.alg;
        let kind = self.kind;
        let Storage::Compact {
            interval,
            checkpoints,
            segment,
            segment_k,
            len,
            ..
        } = &mut self.storage
        else {
            unreachable!("caller checked");
        };
        debug_assert!(index <= *len, "element index out of range");
        let k = index / *interval;
        let base = k * *interval;
        if index == base {
            return checkpoints[k as usize];
        }
        if segment.is_empty() || *segment_k != k {
            if segment.capacity() == 0 {
                segment.reserve_exact(*interval as usize - 1);
            }
            segment.clear();
            let mut cur = checkpoints[k as usize];
            for i in (base + 1)..=(base + *interval - 1).min(*len) {
                cur = derive(alg, kind, i, &cur);
                segment.push(cur);
            }
            *segment_k = k;
        }
        segment[(index - base - 1) as usize]
    }

    /// Hash algorithm of this chain.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.alg
    }

    /// Derivation kind of this chain.
    #[must_use]
    pub fn kind(&self) -> ChainKind {
        self.kind
    }

    /// Total number of elements above the seed.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total_len()
    }

    /// True if the chain holds no elements (never: generation enforces ≥ 2).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// The anchor `h_n`, exchanged during bootstrapping.
    #[must_use]
    pub fn anchor(&self) -> Digest {
        self.element(self.total_len())
    }

    /// Index of the anchor.
    #[must_use]
    pub fn anchor_index(&self) -> u64 {
        self.len()
    }

    /// Element at 1-based `index` (0 returns the seed hash `h_0`). Compact
    /// chains recompute forward from the nearest checkpoint; dyadic chains
    /// from the nearest pebble at or below `index` (without moving the
    /// pebbles — sequential disclosure through [`HashChain::disclose`] is
    /// what maintains the amortized O(log n) bound).
    ///
    /// Returns [`ChainError::IndexOutOfRange`] when `index` exceeds
    /// [`HashChain::len`] — the checked twin of [`HashChain::element`].
    pub fn try_element(&self, index: u64) -> Result<Digest, ChainError> {
        if index > self.total_len() {
            return Err(ChainError::IndexOutOfRange);
        }
        Ok(match &self.storage {
            Storage::Full(e) => e[index as usize],
            Storage::Compact {
                interval,
                checkpoints,
                ..
            } => {
                let k = index / interval;
                let mut cur = checkpoints[k as usize];
                for i in (k * interval + 1)..=index {
                    cur = derive(self.alg, self.kind, i, &cur);
                }
                cur
            }
            Storage::Dyadic {
                pebbles, positions, ..
            } => {
                let (mut pos, mut cur) = pebbles
                    .iter()
                    .zip(positions.iter())
                    .filter(|(_, &p)| p <= index)
                    .map(|(e, &p)| (p, *e))
                    .max_by_key(|&(p, _)| p)
                    .expect("the seed pebble is always at 0");
                while pos < index {
                    pos += 1;
                    cur = derive(self.alg, self.kind, pos, &cur);
                }
                cur
            }
        })
    }

    /// Unchecked convenience form of [`HashChain::try_element`].
    ///
    /// # Panics
    /// Panics if `index` exceeds [`HashChain::len`]. Callers handling
    /// untrusted or computed indices should use [`HashChain::try_element`].
    #[must_use]
    pub fn element(&self, index: u64) -> Digest {
        self.try_element(index)
            .expect("chain element index out of range")
    }

    /// Like [`HashChain::element`], but allowed to advance internal
    /// pebbles (dyadic storage) or refill the cursor segment (compact
    /// storage) to keep sequential access cheap.
    fn element_mut_path(&mut self, index: u64) -> Digest {
        match self.storage {
            Storage::Full(_) => self.element(index),
            Storage::Compact { .. } => self.compact_element(index),
            Storage::Dyadic { .. } => self.dyadic_element(index),
        }
    }

    /// How many undisclosed elements remain (excluding the seed).
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.next
    }

    /// Number of (announce, disclose) exchange pairs still available.
    #[must_use]
    pub fn remaining_pairs(&self) -> u64 {
        self.next / 2
    }

    /// Peek at the next undisclosed element without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<(u64, Digest)> {
        if self.next == 0 {
            None
        } else {
            Some((self.next, self.element(self.next)))
        }
    }

    /// Disclose the next element (descending).
    pub fn disclose(&mut self) -> Result<(u64, Digest), ChainError> {
        if self.next == 0 {
            return Err(ChainError::Exhausted);
        }
        let idx = self.next;
        self.next -= 1;
        Ok((idx, self.element_mut_path(idx)))
    }

    /// Disclose an aligned (announce, disclose) pair for one exchange:
    /// returns `((odd_index, announce_element), (even_index, key_element))`.
    ///
    /// If the cursor is mis-aligned (an even element is next because a
    /// previous exchange consumed only the announce half), the stray element
    /// is skipped — verifiers catch up over gaps by hashing forward.
    #[allow(clippy::type_complexity)] // two labelled (index, element) pairs
    pub fn disclose_pair(&mut self) -> Result<((u64, Digest), (u64, Digest)), ChainError> {
        if self.next.is_multiple_of(2) && self.next > 0 {
            // Skip the stale disclose-role element of an abandoned exchange.
            self.next -= 1;
        }
        if self.next < 2 {
            return Err(ChainError::Exhausted);
        }
        let key = (self.next - 1, self.element_mut_path(self.next - 1));
        let announce = (self.next, self.element_mut_path(self.next));
        self.next -= 2;
        debug_assert_eq!(role_of(announce.0), Role::Announce);
        debug_assert_eq!(role_of(key.0), Role::Disclose);
        Ok((announce, key))
    }

    /// Bytes this chain's owner actually stores: all elements for full
    /// storage (Table 2's signer strategy), or O(√n) checkpoints plus the
    /// cursor-segment buffer, once allocated, for compact storage.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        match &self.storage {
            Storage::Full(e) => e.len() * self.alg.digest_len(),
            Storage::Compact {
                checkpoints,
                segment,
                ..
            } => {
                (checkpoints.len() + segment.capacity()) * self.alg.digest_len()
                    + 3 * std::mem::size_of::<u64>()
            }
            Storage::Dyadic {
                pebbles, positions, ..
            } => {
                pebbles.len() * self.alg.digest_len()
                    + (positions.len() + 1) * std::mem::size_of::<u64>()
            }
        }
    }

    /// Which storage layout this chain uses (preserved across
    /// freeze/thaw so a thawed chain keeps its owner's memory profile).
    #[must_use]
    pub fn storage_kind(&self) -> StorageKind {
        match &self.storage {
            Storage::Full(_) => StorageKind::Full,
            Storage::Compact { .. } => StorageKind::Compact,
            Storage::Dyadic { .. } => StorageKind::Dyadic,
        }
    }

    /// Freeze this chain to its minimal hibernation record: the seed hash
    /// `h_0` plus the disclosure cursor. Everything else a chain holds is
    /// a deterministic function of `h_0`, so [`FrozenChain::thaw`] rebuilds
    /// a chain whose disclosures are byte-identical to this one's.
    #[must_use]
    pub fn freeze(&self) -> FrozenChain {
        let seed_hash = match &self.storage {
            Storage::Full(e) => e[0],
            Storage::Compact { checkpoints, .. } => checkpoints[0],
            // The highest pebble is pinned at position 0 (the seed hash).
            Storage::Dyadic { pebbles, .. } => *pebbles.last().expect("levels >= 1"),
        };
        FrozenChain {
            alg: self.alg,
            kind: self.kind,
            storage: self.storage_kind(),
            len: self.total_len(),
            next: self.next,
            seed_hash,
        }
    }
}

/// Storage layout tag carried by a [`FrozenChain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Every element in memory ([`HashChain::from_seed`]).
    Full,
    /// O(√n) checkpoints ([`HashChain::from_seed_compact`]).
    Compact,
    /// O(log n) dyadic pebbles ([`HashChain::from_seed_dyadic`]).
    Dyadic,
}

/// A hibernated hash chain: one digest (`h_0`) plus the derivation
/// parameters and the disclosure cursor — a few dozen bytes regardless of
/// chain length, against up to `(len + 1) · s_h` live. Thawing re-derives
/// the live storage in `len` forward hashes; the rebuilt chain discloses
/// the exact same bytes the frozen one would have.
#[derive(Clone, Copy)]
pub struct FrozenChain {
    /// Hash algorithm.
    pub alg: Algorithm,
    /// Derivation kind (role tags).
    pub kind: ChainKind,
    /// Storage layout to rehydrate into.
    pub storage: StorageKind,
    /// Total elements above the seed.
    pub len: u64,
    /// Disclosure cursor at freeze time ([`HashChain::remaining`]).
    pub next: u64,
    /// The seed hash `h_0` — never disclosed on the wire.
    pub seed_hash: Digest,
}

impl FrozenChain {
    /// Rebuild the live chain. Costs `len` forward hashes (the same work
    /// as generating the chain), re-deriving full elements, compact
    /// checkpoints, or dyadic pebbles positioned at the frozen cursor.
    #[must_use]
    pub fn thaw(&self) -> HashChain {
        let mut chain = match self.storage {
            StorageKind::Full => {
                HashChain::full_from_h0(self.alg, self.kind, self.len, self.seed_hash)
            }
            StorageKind::Compact => {
                HashChain::compact_from_h0(self.alg, self.kind, self.len, self.seed_hash)
            }
            StorageKind::Dyadic => HashChain::dyadic_from_h0(
                self.alg,
                self.kind,
                self.len,
                // Pebbles positioned exactly at the frozen cursor; an
                // exhausted chain parks them at the seed.
                self.next.min(self.len - 1),
                self.seed_hash,
            ),
        };
        chain.next = self.next;
        chain
    }

    /// Bytes this record occupies (the hibernation footprint).
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        self.alg.digest_len() + 2 * std::mem::size_of::<u64>() + 3
    }

    /// Thaw two chains in one two-lane rebuild — the wake path of a
    /// hibernated association rehydrates its signature and
    /// acknowledgment chains together, and lane-parallel hashing (see
    /// [`crate::backend`]) hides the per-step latency a sequential
    /// rebuild pays twice. Byte-identical to two [`FrozenChain::thaw`]
    /// calls; layouts that don't pair up (different algorithm or
    /// length, non-full storage) fall back to exactly that.
    #[must_use]
    pub fn thaw_pair(a: &FrozenChain, b: &FrozenChain) -> (HashChain, HashChain) {
        if a.alg != b.alg
            || a.len != b.len
            || a.storage != StorageKind::Full
            || b.storage != StorageKind::Full
        {
            return (a.thaw(), b.thaw());
        }
        let (alg, len) = (a.alg, a.len);
        let kinds = [a.kind, b.kind];
        let mut cur = vec![a.seed_hash, b.seed_hash];
        let mut elements: Vec<Vec<Digest>> = cur
            .iter()
            .map(|h0| {
                let mut v = Vec::with_capacity(len as usize + 1);
                v.push(*h0); // h_0: never disclosed
                v
            })
            .collect();
        let mut next = vec![Digest::zero(alg); 2];
        for i in 1..=len {
            let jobs: Vec<crate::backend::PartsRef<'_>> = kinds
                .iter()
                .zip(cur.iter())
                .map(|(kind, prev)| match kind.tag(i) {
                    Some(tag) => crate::backend::PartsRef::new(&[tag, prev.as_bytes()]),
                    None => crate::backend::PartsRef::one(prev.as_bytes()),
                })
                .collect();
            crate::backend::hash_parts_lanes(alg, &jobs, &mut next);
            elements[0].push(next[0]);
            elements[1].push(next[1]);
            std::mem::swap(&mut cur, &mut next);
        }
        let mut chains = kinds
            .iter()
            .zip(elements)
            .map(|(&kind, elements)| HashChain {
                alg,
                kind,
                storage: Storage::Full(elements),
                next: 0,
            });
        let mut ca = chains.next().expect("two lanes");
        let mut cb = chains.next().expect("two lanes");
        ca.next = a.next;
        cb.next = b.next;
        (ca, cb)
    }
}

/// Derive `h_index` from `h_{index-1}` — one forward step of the chain.
/// Public so buffered-exchange verifiers can link a late-disclosed key to
/// an already-authenticated announce element without rewinding a tracker.
#[must_use]
pub fn derive(alg: Algorithm, kind: ChainKind, index: u64, prev: &Digest) -> Digest {
    match kind.tag(index) {
        Some(tag) => alg.hash_parts(&[tag, prev.as_bytes()]),
        None => alg.hash(prev.as_bytes()),
    }
}

/// Verifier-side chain state: the last authenticated element and its index.
///
/// Starts from the anchor received at bootstrap and walks downwards as the
/// owner discloses elements. Tolerates gaps (lost packets) up to `max_skip`
/// forward hashes per acceptance.
#[derive(Clone)]
pub struct ChainVerifier {
    alg: Algorithm,
    kind: ChainKind,
    last: Digest,
    last_index: u64,
    max_skip: u64,
}

/// Default bound on forward hashing per disclosed element.
pub const DEFAULT_MAX_SKIP: u64 = 128;

impl ChainVerifier {
    /// Track a chain from its `anchor` at `anchor_index`.
    #[must_use]
    pub fn new(
        alg: Algorithm,
        kind: ChainKind,
        anchor: Digest,
        anchor_index: u64,
    ) -> ChainVerifier {
        ChainVerifier {
            alg,
            kind,
            last: anchor,
            last_index: anchor_index,
            max_skip: DEFAULT_MAX_SKIP,
        }
    }

    /// Replace the skip bound (CPU-DoS defence knob).
    #[must_use]
    pub fn with_max_skip(mut self, max_skip: u64) -> ChainVerifier {
        self.max_skip = max_skip;
        self
    }

    /// Last authenticated element.
    #[must_use]
    pub fn last(&self) -> (u64, Digest) {
        (self.last_index, self.last)
    }

    /// Configured forward-hashing bound (for freezing a verifier: the
    /// tuple `(last, max_skip)` rebuilds an identical tracker via
    /// [`ChainVerifier::new`] + [`ChainVerifier::with_max_skip`]).
    #[must_use]
    pub fn max_skip(&self) -> u64 {
        self.max_skip
    }

    /// Memory this verifier holds: one digest plus the index — the `h` per
    /// chain in Table 2's verifier/relay columns.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        self.alg.digest_len() + std::mem::size_of::<u64>()
    }

    /// Check `element` claimed at `index` without accepting it.
    pub fn check(&self, index: u64, element: &Digest) -> Result<(), ChainError> {
        if index >= self.last_index {
            return Err(ChainError::NonDescendingIndex);
        }
        let skip = self.last_index - index;
        if skip > self.max_skip {
            return Err(ChainError::SkipTooLarge);
        }
        let mut cur = *element;
        for i in (index + 1)..=self.last_index {
            cur = derive(self.alg, self.kind, i, &cur);
        }
        if crate::ct_eq(cur.as_bytes(), self.last.as_bytes()) {
            Ok(())
        } else {
            Err(ChainError::Mismatch)
        }
    }

    /// Check `element` at `index` and additionally require its positional
    /// role to be `role` (the reformatting-attack defence).
    pub fn check_role(&self, index: u64, element: &Digest, role: Role) -> Result<(), ChainError> {
        let actual = role_of(index);
        if self.kind != ChainKind::Plain && actual != role {
            return Err(ChainError::WrongRole {
                expected: role,
                actual,
            });
        }
        self.check(index, element)
    }

    /// Authenticate and accept `element` at `index`, advancing the verifier.
    pub fn accept(&mut self, index: u64, element: &Digest) -> Result<(), ChainError> {
        self.check(index, element)?;
        self.last = *element;
        self.last_index = index;
        Ok(())
    }

    /// Authenticate with a role requirement, then accept.
    pub fn accept_role(
        &mut self,
        index: u64,
        element: &Digest,
        role: Role,
    ) -> Result<(), ChainError> {
        self.check_role(index, element, role)?;
        self.last = *element;
        self.last_index = index;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn generation_is_deterministic_from_seed() {
        let a = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 10, b"seed");
        let b = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 10, b"seed");
        assert_eq!(a.anchor(), b.anchor());
        assert_eq!(a.element(3), b.element(3));
    }

    #[test]
    fn thaw_pair_matches_independent_thaws() {
        // Paired lanes: same algorithm and length, full storage,
        // distinct kinds and cursors.
        let a = HashChain::from_seed(Algorithm::Sha256, ChainKind::RoleBoundSignature, 64, b"a");
        let mut b = HashChain::from_seed(Algorithm::Sha256, ChainKind::RoleBoundAck, 64, b"b");
        b.disclose().unwrap();
        let (ta, tb) = FrozenChain::thaw_pair(&a.freeze(), &b.freeze());
        for i in 0..=64 {
            assert_eq!(ta.element(i), a.element(i), "sig lane element {i}");
            assert_eq!(tb.element(i), b.element(i), "ack lane element {i}");
        }
        assert_eq!(ta.remaining(), a.remaining());
        assert_eq!(tb.remaining(), b.remaining(), "cursor survives the pair");

        // Mismatched layouts fall back to two sequential thaws.
        let c =
            HashChain::from_seed_dyadic(Algorithm::Sha256, ChainKind::RoleBoundSignature, 64, b"c");
        let (tc, td) = FrozenChain::thaw_pair(&c.freeze(), &b.freeze());
        assert_eq!(tc.anchor(), c.anchor());
        assert_eq!(tc.storage_kind(), StorageKind::Dyadic);
        assert_eq!(td.element(5), b.element(5));
    }

    #[test]
    fn odd_length_rounds_up() {
        let c = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 9, b"x");
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn try_element_rejects_out_of_range() {
        for c in [
            HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 8, b"x"),
            HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::Plain, 8, b"x"),
            HashChain::from_seed_dyadic(Algorithm::Sha1, ChainKind::Plain, 8, b"x"),
        ] {
            assert_eq!(c.try_element(8).unwrap(), c.anchor());
            assert_eq!(c.try_element(9), Err(ChainError::IndexOutOfRange));
        }
    }

    #[test]
    fn batch_generation_matches_from_seed() {
        for alg in [Algorithm::Sha1, Algorithm::Sha256, Algorithm::MmoAes] {
            let specs: [(ChainKind, &[u8]); 6] = [
                (ChainKind::RoleBoundSignature, b"sig seed"),
                (ChainKind::RoleBoundAck, b"ack seed"),
                (ChainKind::Plain, b"plain seed"),
                (ChainKind::RoleBoundSignature, b"another"),
                (ChainKind::Plain, b""),
                (ChainKind::RoleBoundAck, b"sixth lane spills a sweep"),
            ];
            let batch = HashChain::from_seeds_batch(alg, 12, &specs);
            assert_eq!(batch.len(), specs.len());
            for ((kind, seed), chain) in specs.iter().zip(&batch) {
                let solo = HashChain::from_seed(alg, *kind, 12, seed);
                assert_eq!(chain.anchor(), solo.anchor());
                for i in 0..=12 {
                    assert_eq!(chain.element(i), solo.element(i));
                }
            }
        }
    }

    #[test]
    fn disclosure_descends_and_verifies() {
        let mut chain = HashChain::generate(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            16,
            &mut rng(),
        );
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        for _ in 0..chain.anchor_index() - 1 {
            let (idx, el) = chain.disclose().unwrap();
            verifier.accept(idx, &el).unwrap();
        }
        assert_eq!(chain.disclose().unwrap_err(), ChainError::Exhausted);
    }

    #[test]
    fn verifier_catches_up_over_gaps() {
        let chain =
            HashChain::from_seed(Algorithm::Sha256, ChainKind::RoleBoundSignature, 32, b"g");
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha256,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        // Lose elements 31..=25, accept 24 directly.
        verifier.accept(24, &chain.element(24)).unwrap();
        assert_eq!(verifier.last().0, 24);
    }

    #[test]
    fn replay_rejected() {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 8, b"r");
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        verifier.accept(7, &chain.element(7)).unwrap();
        assert_eq!(
            verifier.accept(7, &chain.element(7)).unwrap_err(),
            ChainError::NonDescendingIndex
        );
        assert_eq!(
            verifier.accept(8, &chain.element(8)).unwrap_err(),
            ChainError::NonDescendingIndex
        );
    }

    #[test]
    fn forgery_rejected() {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 8, b"f");
        let other =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 8, b"not f");
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        assert_eq!(
            verifier.accept(7, &other.element(7)).unwrap_err(),
            ChainError::Mismatch
        );
    }

    #[test]
    fn skip_bound_enforced() {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 64, b"s");
        let mut verifier =
            ChainVerifier::new(Algorithm::Sha1, ChainKind::Plain, chain.anchor(), 64)
                .with_max_skip(4);
        assert_eq!(
            verifier.accept(32, &chain.element(32)).unwrap_err(),
            ChainError::SkipTooLarge
        );
        verifier.accept(60, &chain.element(60)).unwrap();
    }

    #[test]
    fn role_binding_rejects_cross_role_use() {
        let chain =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 8, b"role");
        let verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        // Element 7 is an announce-role element; presenting it as a MAC key
        // (disclose role) must fail even though the hash itself checks out.
        assert!(matches!(
            verifier.check_role(7, &chain.element(7), Role::Disclose),
            Err(ChainError::WrongRole { .. })
        ));
        verifier
            .check_role(7, &chain.element(7), Role::Announce)
            .unwrap();
    }

    #[test]
    fn reformatting_attack_blocked() {
        // An attacker intercepts S2 (disclosing h_{i-1}, even role) and the
        // next S1 (revealing h_{i-2}... actually the next odd below). With
        // role binding, substituting an even-role element where an odd-role
        // element is required fails structurally.
        let chain =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 16, b"atk");
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        // Legitimate first exchange: announce h15, disclose h14.
        verifier
            .accept_role(15, &chain.element(15), Role::Announce)
            .unwrap();
        verifier
            .accept_role(14, &chain.element(14), Role::Disclose)
            .unwrap();
        // Attacker replays captured h13 (announce role) as a *MAC key*: rejected.
        assert!(matches!(
            verifier.check_role(13, &chain.element(13), Role::Disclose),
            Err(ChainError::WrongRole { .. })
        ));
    }

    #[test]
    fn plain_chain_has_no_roles() {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 8, b"p");
        let verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::Plain,
            chain.anchor(),
            chain.anchor_index(),
        );
        // Any role is accepted on a plain chain.
        verifier
            .check_role(7, &chain.element(7), Role::Disclose)
            .unwrap();
        verifier
            .check_role(7, &chain.element(7), Role::Announce)
            .unwrap();
    }

    #[test]
    fn plain_and_rolebound_chains_differ() {
        let a = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 8, b"k");
        let b = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 8, b"k");
        let c = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundAck, 8, b"k");
        assert_ne!(a.anchor(), b.anchor());
        assert_ne!(b.anchor(), c.anchor());
    }

    #[test]
    fn disclose_pair_alternates_roles() {
        let mut chain = HashChain::generate(
            Algorithm::MmoAes,
            ChainKind::RoleBoundSignature,
            12,
            &mut rng(),
        );
        let ((i1, _), (i2, _)) = chain.disclose_pair().unwrap();
        assert_eq!(i1 % 2, 1);
        assert_eq!(i2, i1 - 1);
        let ((j1, _), _) = chain.disclose_pair().unwrap();
        assert_eq!(j1, i1 - 2);
    }

    #[test]
    fn disclose_pair_realigns_after_single_disclose() {
        let mut chain =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 12, b"align");
        let (idx, _) = chain.disclose().unwrap(); // consumes 11 (announce)
        assert_eq!(idx, 11);
        // Cursor now points at 10 (disclose role); pair must skip to (9, 8).
        let ((a, _), (k, _)) = chain.disclose_pair().unwrap();
        assert_eq!((a, k), (9, 8));
    }

    #[test]
    fn exhaustion_via_pairs() {
        let mut chain =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 4, b"ex");
        assert_eq!(chain.remaining_pairs(), 1);
        chain.disclose_pair().unwrap();
        assert_eq!(chain.disclose_pair().unwrap_err(), ChainError::Exhausted);
    }

    #[test]
    fn verifier_stored_bytes_is_one_digest() {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 8, b"m");
        let v = ChainVerifier::new(Algorithm::Sha1, ChainKind::Plain, chain.anchor(), 8);
        assert_eq!(v.stored_bytes(), 20 + 8);
    }
}

#[cfg(test)]
mod compact_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn compact_equals_full_everywhere() {
        for len in [4u64, 10, 63, 100] {
            let full =
                HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, b"c");
            let compact = HashChain::from_seed_compact(
                Algorithm::Sha1,
                ChainKind::RoleBoundSignature,
                len,
                b"c",
            );
            assert_eq!(full.anchor(), compact.anchor(), "len={len}");
            assert_eq!(full.len(), compact.len());
            for i in 0..=full.len() {
                assert_eq!(full.element(i), compact.element(i), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn compact_disclosure_interoperates_with_verifier() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut chain =
            HashChain::generate_compact(Algorithm::MmoAes, ChainKind::RoleBoundAck, 64, &mut rng);
        let mut verifier = ChainVerifier::new(
            Algorithm::MmoAes,
            ChainKind::RoleBoundAck,
            chain.anchor(),
            chain.anchor_index(),
        );
        while let Ok(((ai, ae), (ki, ke))) = chain.disclose_pair() {
            verifier.accept_role(ai, &ae, Role::Announce).unwrap();
            verifier.accept_role(ki, &ke, Role::Disclose).unwrap();
        }
    }

    #[test]
    fn compact_storage_is_sublinear() {
        let len = 4096u64;
        let full = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, len, b"m");
        let compact = HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::Plain, len, b"m");
        // √4096 = 64 checkpoints (+ seed) vs 4097 elements.
        assert!(compact.stored_bytes() * 30 < full.stored_bytes());
        assert!(compact.stored_bytes() >= 64 * 20);
    }

    #[test]
    fn compact_element_recompute_cost_is_bounded() {
        let len = 1024u64;
        let compact = HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::Plain, len, b"x");
        let scope = crate::counting::Scope::start();
        let _ = compact.element(777);
        let c = scope.finish();
        assert!(
            c.invocations <= 32,
            "≤ √n hashes per access, got {}",
            c.invocations
        );
    }

    /// Walk `full` and `compact` in lockstep with `disclose_pair`, with one
    /// single `disclose` after `len / 4` pairs so the next pair skips a
    /// misaligned element; every disclosure must match and verify.
    fn assert_lockstep(full: &mut HashChain, compact: &mut HashChain) {
        let kind = compact.kind();
        let len = compact.len();
        let mut verifier = ChainVerifier::new(compact.algorithm(), kind, compact.anchor(), len);
        let mut step = 0u64;
        loop {
            if step == len / 4 {
                let single = compact.disclose();
                assert_eq!(full.disclose(), single, "len={len} single disclose");
                if let Ok((i, e)) = single {
                    verifier.accept_role(i, &e, Role::Announce).unwrap();
                }
            }
            let pair = compact.disclose_pair();
            assert_eq!(full.disclose_pair(), pair, "len={len} step={step}");
            let Ok(((ai, ae), (ki, ke))) = pair else {
                break;
            };
            verifier.accept_role(ai, &ae, Role::Announce).unwrap();
            verifier.accept_role(ki, &ke, Role::Disclose).unwrap();
            step += 1;
        }
        assert_eq!(compact.remaining(), full.remaining());
    }

    #[test]
    fn compact_disclosures_are_byte_identical_to_full() {
        for len in [2u64, 4, 30, 64, 100, 1000, 1024, 1026, 4094] {
            let kind = ChainKind::RoleBoundSignature;
            let mut full = HashChain::from_seed(Algorithm::Sha1, kind, len, b"seg");
            let mut compact = HashChain::from_seed_compact(Algorithm::Sha1, kind, len, b"seg");
            assert_lockstep(&mut full, &mut compact);
        }
    }

    #[test]
    fn compact_traversal_costs_about_one_hash_per_element() {
        let len = 1024u64;
        let interval = 32; // ⌈√1024⌉
        let mut compact = HashChain::from_seed_compact(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            len,
            b"cost",
        );
        let scope = crate::counting::Scope::start();
        let mut pairs = 0u64;
        while compact.disclose_pair().is_ok() {
            pairs += 1;
        }
        let c = scope.finish();
        assert_eq!(pairs, len / 2 - 1, "walked the whole chain");
        assert!(
            c.invocations <= len + interval,
            "{} hashes for a full traversal, bound {}",
            c.invocations,
            len + interval
        );
    }

    #[test]
    fn segment_buffer_is_lazy_exact_and_accounted() {
        let len = 1024u64;
        let mut compact =
            HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::RoleBoundAck, len, b"acct");
        let fresh = compact.stored_bytes();
        // Random access never allocates the buffer.
        let _ = compact.element(777);
        let _ = compact.peek();
        assert_eq!(compact.stored_bytes(), fresh);
        compact.disclose_pair().unwrap();
        // One segment of ⌈√n⌉ − 1 = 31 digests, counted once allocated.
        assert_eq!(compact.stored_bytes(), fresh + 31 * 20);
        while compact.disclose_pair().is_ok() {}
        assert_eq!(compact.stored_bytes(), fresh + 31 * 20, "buffer reused");
    }

    #[test]
    fn freeze_thaw_mid_segment_is_identical() {
        let len = 1024u64;
        let kind = ChainKind::RoleBoundSignature;
        let mut live = HashChain::from_seed_compact(Algorithm::Sha1, kind, len, b"mid");
        let fresh = live.stored_bytes();
        // Five pairs leave the cursor at 1013, inside segment 992..1023.
        for _ in 0..5 {
            live.disclose_pair().unwrap();
        }
        assert_eq!(live.remaining(), 1013);
        let frozen = live.freeze();
        let mut thawed = frozen.thaw();
        assert_eq!(thawed.stored_bytes(), fresh, "thaw starts with no cache");
        assert_eq!(thawed.remaining(), live.remaining());
        assert_eq!(thawed.disclose(), live.disclose());
        while let Ok(pair) = live.disclose_pair() {
            assert_eq!(thawed.disclose_pair().unwrap(), pair);
        }
        assert_eq!(thawed.disclose_pair().unwrap_err(), ChainError::Exhausted);
    }
}

#[cfg(test)]
mod dyadic_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dyadic_equals_full_for_every_element() {
        for len in [4u64, 16, 30, 128, 100] {
            let full =
                HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, b"d");
            let dy = HashChain::from_seed_dyadic(
                Algorithm::Sha1,
                ChainKind::RoleBoundSignature,
                len,
                b"d",
            );
            assert_eq!(full.anchor(), dy.anchor(), "len={len}");
            for i in 0..=full.len() {
                assert_eq!(full.element(i), dy.element(i), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn dyadic_full_traversal_matches_and_interoperates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut dy = HashChain::generate_dyadic(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            256,
            &mut rng,
        );
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            dy.anchor(),
            dy.anchor_index(),
        );
        while let Ok(((ai, ae), (ki, ke))) = dy.disclose_pair() {
            verifier.accept_role(ai, &ae, Role::Announce).unwrap();
            verifier.accept_role(ki, &ke, Role::Disclose).unwrap();
        }
        assert_eq!(dy.remaining_pairs(), 0);
    }

    #[test]
    fn dyadic_memory_is_logarithmic() {
        let len = 4096u64;
        let full = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, len, b"m");
        let sqrt = HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::Plain, len, b"m");
        let dy = HashChain::from_seed_dyadic(Algorithm::Sha1, ChainKind::Plain, len, b"m");
        // log2(4096)+1 = 13 pebbles vs 65 sqrt checkpoints vs 4097 elements.
        assert!(
            dy.stored_bytes() < sqrt.stored_bytes() / 3,
            "{} vs {}",
            dy.stored_bytes(),
            sqrt.stored_bytes()
        );
        assert!(sqrt.stored_bytes() < full.stored_bytes() / 10);
        assert!(dy.stored_bytes() <= 14 * 20 + 15 * 8);
    }

    #[test]
    fn freeze_thaw_dyadic_mid_traversal_is_identical() {
        let mut live =
            HashChain::from_seed_dyadic(Algorithm::Sha1, ChainKind::RoleBoundSignature, 64, b"z");
        for _ in 0..7 {
            live.disclose_pair().unwrap();
        }
        let mut thawed = live.freeze().thaw();
        assert_eq!(thawed.remaining(), live.remaining());
        while let Ok((a, k)) = live.disclose_pair() {
            assert_eq!(thawed.disclose_pair().unwrap(), (a, k));
        }
        assert!(thawed.disclose_pair().is_err());
    }

    #[test]
    fn dyadic_traversal_cost_is_n_log_n_total() {
        let len = 1024u64;
        let mut dy = HashChain::from_seed_dyadic(Algorithm::Sha1, ChainKind::Plain, len, b"c");
        let scope = crate::counting::Scope::start();
        while dy.disclose().is_ok() {}
        let c = scope.finish();
        // Amortized ≤ ~2·log2(n) hashes per disclosure.
        let bound = 2 * len * 11; // 2 n log2(n) with slack
        assert!(c.invocations <= bound, "{} > {bound}", c.invocations);
        // …and materially cheaper than naive recompute-from-seed (O(n²)/2).
        assert!(c.invocations < len * len / 8);
    }
}

#[cfg(test)]
mod freeze_tests {
    use super::*;

    fn chains(len: u64, seed: &[u8]) -> [HashChain; 3] {
        [
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, seed),
            HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, seed),
            HashChain::from_seed_dyadic(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, seed),
        ]
    }

    #[test]
    fn freeze_thaw_preserves_disclosures_across_storages() {
        for mut live in chains(32, b"ft") {
            // Freeze at several cursors, including fresh and near-exhausted.
            for _ in 0..3 {
                live.disclose_pair().unwrap();
            }
            let frozen = live.freeze();
            assert_eq!(frozen.storage, live.storage_kind());
            let mut thawed = frozen.thaw();
            assert_eq!(thawed.remaining(), live.remaining());
            assert_eq!(thawed.anchor(), live.anchor());
            while let Ok(pair) = live.disclose_pair() {
                assert_eq!(thawed.disclose_pair().unwrap(), pair);
            }
            assert_eq!(thawed.disclose_pair().unwrap_err(), ChainError::Exhausted);
        }
    }

    #[test]
    fn frozen_record_is_small_and_storage_preserved() {
        for live in chains(1024, b"small") {
            let frozen = live.freeze();
            assert!(frozen.stored_bytes() <= 64);
            assert!(frozen.stored_bytes() < live.stored_bytes());
            assert_eq!(frozen.thaw().storage_kind(), live.storage_kind());
        }
    }

    #[test]
    fn freeze_thaw_of_exhausted_chain_stays_exhausted() {
        for mut live in chains(4, b"done") {
            while live.disclose().is_ok() {}
            let mut thawed = live.freeze().thaw();
            assert_eq!(thawed.remaining(), 0);
            assert_eq!(thawed.disclose().unwrap_err(), ChainError::Exhausted);
        }
    }

    #[test]
    fn thawed_chain_interoperates_with_mid_stream_verifier() {
        for alg in Algorithm::ALL {
            let mut live =
                HashChain::from_seed_dyadic(alg, ChainKind::RoleBoundAck, 64, b"interop");
            let mut verifier = ChainVerifier::new(
                alg,
                ChainKind::RoleBoundAck,
                live.anchor(),
                live.anchor_index(),
            );
            for _ in 0..5 {
                let ((ai, ae), (ki, ke)) = live.disclose_pair().unwrap();
                verifier.accept_role(ai, &ae, Role::Announce).unwrap();
                verifier.accept_role(ki, &ke, Role::Disclose).unwrap();
            }
            // Hibernate both sides; the verifier freezes to (last, max_skip).
            let mut thawed = live.freeze().thaw();
            let (last_index, last) = verifier.last();
            let mut v2 = ChainVerifier::new(alg, ChainKind::RoleBoundAck, last, last_index)
                .with_max_skip(verifier.max_skip());
            while let Ok(((ai, ae), (ki, ke))) = thawed.disclose_pair() {
                v2.accept_role(ai, &ae, Role::Announce).unwrap();
                v2.accept_role(ki, &ke, Role::Disclose).unwrap();
            }
        }
    }
}
