//! alpha-store: the flow lifecycle store.
//!
//! An engine serving a million associations cannot keep a million live
//! protocol machines resident: each one holds chain storage, buffered
//! pre-signatures and timer state. Most flows are idle at any instant,
//! so the engine freezes them (`alpha_core::freeze`) into compact byte
//! records — chain cursors and anchors, not element vectors — and parks
//! the records here until the next datagram wakes the flow.
//!
//! This crate is deliberately dumb about *what* the records are: it
//! stores opaque `Vec<u8>` blobs keyed by a caller-chosen flow key and
//! enforces exactly two policies:
//!
//! - [`FrozenStore`]: a dense slab arena with an intrusive LRU list and
//!   a configurable byte budget. Inserting past the budget evicts the
//!   coldest records and hands them back to the caller (which counts
//!   them and drops the flow for good).
//! - [`RenewalPacer`]: when thousands of hibernated flows wake in one
//!   burst, their chain-renewal deadlines must not align into a
//!   thundering herd of renewal handshakes. The pacer spreads deadlines
//!   with deterministic per-flow jitter and meters actual renewals
//!   through a global token bucket.
//!
//! Like the protocol crates, nothing here reads a clock or does I/O:
//! time arrives as caller-supplied microsecond counts, so engine tests
//! stay fully deterministic.
#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::Hash;

/// Intrusive-list null sentinel.
const NIL: u32 = u32::MAX;

/// Fixed per-record accounting overhead (bytes) added to each record's
/// length when charging the byte budget: slot links, hash-table entry
/// and the `Vec` header are real memory too, and at a million
/// ~200-byte records they are a double-digit share of the footprint.
pub const ENTRY_OVERHEAD: u64 = 64;

struct Slot<K> {
    key: K,
    record: Vec<u8>,
    /// Toward the most-recently-used end.
    prev: u32,
    /// Toward the least-recently-used end.
    next: u32,
}

/// A dense arena of frozen flow records with LRU eviction against a
/// byte budget.
///
/// Records live in a slab (`Vec<Slot>`) so a stable `u32` names each
/// one; a `HashMap` maps flow keys to slab indices and an intrusive
/// doubly linked list threads the slots in recency order. Insertion,
/// removal and the LRU bump are all O(1); eviction pops from the cold
/// tail.
///
/// The budget is a soft target: the record being inserted is never
/// evicted by its own insertion, so one record larger than the whole
/// budget is kept alone (and everything else is pushed out).
pub struct FrozenStore<K> {
    slots: Vec<Slot<K>>,
    free: Vec<u32>,
    index: HashMap<K, u32>,
    /// Most-recently-used slot.
    head: u32,
    /// Least-recently-used slot (eviction victim).
    tail: u32,
    bytes: u64,
    max_bytes: Option<u64>,
}

impl<K: Copy + Eq + Hash> FrozenStore<K> {
    /// An empty store. `max_bytes` of `None` disables eviction.
    #[must_use]
    pub fn new(max_bytes: Option<u64>) -> FrozenStore<K> {
        FrozenStore {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            max_bytes,
        }
    }

    /// Records resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no records are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Budgeted bytes currently charged (record lengths plus
    /// [`ENTRY_OVERHEAD`] each).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The configured byte budget, if any.
    #[must_use]
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Whether a record for `key` is resident.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    fn charge(record: &[u8]) -> u64 {
        record.len() as u64 + ENTRY_OVERHEAD
    }

    /// Unlink slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Link slot `i` at the most-recently-used end.
    fn link_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Detach slot `i` entirely, returning its key and record.
    fn pop_slot(&mut self, i: u32) -> (K, Vec<u8>) {
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        let key = slot.key;
        let record = std::mem::take(&mut slot.record);
        self.index.remove(&key);
        self.free.push(i);
        self.bytes -= Self::charge(&record);
        (key, record)
    }

    /// Insert (or replace) the record for `key`, marking it
    /// most-recently-used, then evict from the cold end until the store
    /// is back under budget. Evicted `(key, record)` pairs — never the
    /// one just inserted — are returned for the caller to account and
    /// discard.
    pub fn insert(&mut self, key: K, record: Vec<u8>) -> Vec<(K, Vec<u8>)> {
        if let Some(&i) = self.index.get(&key) {
            let slot = &mut self.slots[i as usize];
            self.bytes -= Self::charge(&slot.record);
            self.bytes += Self::charge(&record);
            slot.record = record;
            self.unlink(i);
            self.link_front(i);
        } else {
            self.bytes += Self::charge(&record);
            let i = match self.free.pop() {
                Some(i) => {
                    self.slots[i as usize] = Slot {
                        key,
                        record,
                        prev: NIL,
                        next: NIL,
                    };
                    i
                }
                None => {
                    let i = u32::try_from(self.slots.len()).expect("slab under 4Gi records");
                    self.slots.push(Slot {
                        key,
                        record,
                        prev: NIL,
                        next: NIL,
                    });
                    i
                }
            };
            self.index.insert(key, i);
            self.link_front(i);
        }
        let mut evicted = Vec::new();
        if let Some(budget) = self.max_bytes {
            while self.bytes > budget && self.tail != NIL && self.tail != self.head {
                let victim = self.tail;
                evicted.push(self.pop_slot(victim));
            }
        }
        evicted
    }

    /// The record for `key`, read without touching its recency.
    /// Diagnostic.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&[u8]> {
        let i = *self.index.get(key)?;
        Some(&self.slots[i as usize].record)
    }

    /// Remove and return the record for `key` (the thaw path).
    pub fn remove(&mut self, key: &K) -> Option<Vec<u8>> {
        let i = *self.index.get(key)?;
        Some(self.pop_slot(i).1)
    }

    /// The key at the cold (next-to-evict) end, if any. Diagnostic.
    #[must_use]
    pub fn coldest(&self) -> Option<K> {
        (self.tail != NIL).then(|| self.slots[self.tail as usize].key)
    }
}

/// `splitmix64` finalizer: a cheap, well-mixed hash for deriving
/// per-flow jitter from a flow-key hash. Identical input, identical
/// output — restarts and replicas agree on every flow's offset.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Renewal-storm pacing configuration.
#[derive(Clone, Copy, Debug)]
pub struct PacerConfig {
    /// Maximum deterministic per-flow jitter added to a renewal
    /// deadline (µs). Spreads deadlines that would otherwise align.
    pub max_jitter_us: u64,
    /// Sustained global renewal admissions per second.
    pub rate_per_sec: u64,
    /// Bucket depth: renewals admitted instantly after an idle spell.
    pub burst: u64,
}

impl Default for PacerConfig {
    fn default() -> PacerConfig {
        PacerConfig {
            max_jitter_us: 2_000_000,
            rate_per_sec: 256,
            burst: 64,
        }
    }
}

/// Meters chain renewals so a synchronized wake of thousands of flows
/// does not become a renewal thundering herd.
///
/// Two independent mechanisms compose:
///
/// 1. [`RenewalPacer::jitter_us`] — a pure function of the flow key's
///    hash, bounded by [`PacerConfig::max_jitter_us`]. Callers add it
///    to every renewal deadline so deadlines de-align *before* any
///    contention exists.
/// 2. [`RenewalPacer::admit`] — a global token bucket (integer
///    micro-token arithmetic, no floats, no clock reads) consulted when
///    a deadline actually fires. A denied flow retries after a backoff;
///    the herd drains at the configured rate.
pub struct RenewalPacer {
    cfg: PacerConfig,
    /// Scaled tokens: one admission costs `SCALE` token-units.
    tokens: u64,
    last_refill_us: u64,
}

/// Token scale: admissions cost `SCALE`, refills accrue
/// `rate_per_sec * SCALE` per second.
const SCALE: u64 = 1_000_000;

impl RenewalPacer {
    /// A pacer with a full bucket.
    #[must_use]
    pub fn new(cfg: PacerConfig) -> RenewalPacer {
        RenewalPacer {
            cfg,
            tokens: cfg.burst.saturating_mul(SCALE),
            last_refill_us: 0,
        }
    }

    /// The pacer's configuration.
    #[must_use]
    pub fn config(&self) -> &PacerConfig {
        &self.cfg
    }

    /// Deterministic per-flow deadline jitter in
    /// `[0, max_jitter_us]`, derived from the flow key's stable hash.
    #[must_use]
    pub fn jitter_us(&self, key_hash: u64) -> u64 {
        if self.cfg.max_jitter_us == 0 {
            return 0;
        }
        mix64(key_hash) % (self.cfg.max_jitter_us + 1)
    }

    fn refill(&mut self, now_us: u64) {
        if now_us <= self.last_refill_us {
            return; // time never runs backwards for the bucket
        }
        let elapsed = now_us - self.last_refill_us;
        let earned = (elapsed as u128 * self.cfg.rate_per_sec as u128 * SCALE as u128
            / 1_000_000u128) as u64;
        // Only advance the refill cursor by the time actually converted
        // to tokens, so sub-token intervals are not rounded away.
        if earned > 0 {
            self.tokens = self
                .tokens
                .saturating_add(earned)
                .min(self.cfg.burst.saturating_mul(SCALE));
            self.last_refill_us = now_us;
        }
    }

    /// Try to admit one renewal at `now_us`. Returns `false` when the
    /// bucket is dry; the caller reschedules the flow's deadline.
    pub fn admit(&mut self, now_us: u64) -> bool {
        self.refill(now_us);
        if self.tokens >= SCALE {
            self.tokens -= SCALE;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n: usize) -> Vec<u8> {
        vec![0xAB; n]
    }

    #[test]
    fn insert_remove_roundtrip_and_accounting() {
        let mut s: FrozenStore<u64> = FrozenStore::new(None);
        assert!(s.is_empty());
        assert!(s.insert(1, rec(100)).is_empty());
        assert!(s.insert(2, rec(50)).is_empty());
        assert_eq!(s.len(), 2);
        assert_eq!(s.bytes(), 150 + 2 * ENTRY_OVERHEAD);
        assert!(s.contains(&1));
        assert_eq!(s.remove(&1), Some(rec(100)));
        assert_eq!(s.remove(&1), None);
        assert_eq!(s.bytes(), 50 + ENTRY_OVERHEAD);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn replacement_rebills_and_bumps_recency() {
        let budget = 3 * (10 + ENTRY_OVERHEAD);
        let mut s: FrozenStore<u64> = FrozenStore::new(Some(budget));
        s.insert(1, rec(10));
        s.insert(2, rec(10));
        s.insert(3, rec(10));
        // Re-inserting 1 bumps it hot; inserting 4 must now evict 2.
        s.insert(1, rec(10));
        let evicted = s.insert(4, rec(10));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, 2);
        assert!(s.contains(&1) && s.contains(&3) && s.contains(&4));
    }

    #[test]
    fn eviction_is_lru_ordered_and_returns_records() {
        let budget = 2 * (8 + ENTRY_OVERHEAD);
        let mut s: FrozenStore<u32> = FrozenStore::new(Some(budget));
        assert!(s.insert(10, rec(8)).is_empty());
        assert!(s.insert(11, rec(8)).is_empty());
        assert_eq!(s.coldest(), Some(10));
        let ev = s.insert(12, rec(8));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0], (10, rec(8)));
        let ev = s.insert(13, rec(8));
        assert_eq!(ev[0].0, 11);
        assert_eq!(s.len(), 2);
        assert!(s.bytes() <= budget);
    }

    #[test]
    fn oversized_record_survives_alone() {
        let mut s: FrozenStore<u8> = FrozenStore::new(Some(200));
        s.insert(1, rec(10));
        s.insert(2, rec(10));
        // A record bigger than the whole budget evicts everything else
        // but is itself kept: the budget is a soft target.
        let ev = s.insert(3, rec(500));
        assert_eq!(ev.len(), 2);
        assert!(s.contains(&3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut s: FrozenStore<u64> = FrozenStore::new(None);
        for k in 0..64 {
            s.insert(k, rec(16));
        }
        for k in 0..64 {
            s.remove(&k);
        }
        for k in 64..128 {
            s.insert(k, rec(16));
        }
        assert_eq!(s.slots.len(), 64, "freed slots were reused");
        // The recency list survived the churn intact.
        assert_eq!(s.coldest(), Some(64));
        for k in 64..128 {
            assert_eq!(s.remove(&k), Some(rec(16)));
        }
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RenewalPacer::new(PacerConfig {
            max_jitter_us: 1000,
            ..PacerConfig::default()
        });
        let mut seen = std::collections::HashSet::new();
        for k in 0..256u64 {
            let j = p.jitter_us(k);
            assert!(j <= 1000);
            assert_eq!(j, p.jitter_us(k), "same key, same jitter");
            seen.insert(j);
        }
        assert!(seen.len() > 64, "jitter actually spreads keys");
        let zero = RenewalPacer::new(PacerConfig {
            max_jitter_us: 0,
            ..PacerConfig::default()
        });
        assert_eq!(zero.jitter_us(42), 0);
    }

    #[test]
    fn token_bucket_meters_a_herd() {
        let mut p = RenewalPacer::new(PacerConfig {
            max_jitter_us: 0,
            rate_per_sec: 100,
            burst: 10,
        });
        // The initial burst admits instantly, then the bucket is dry.
        let admitted = (0..1000).filter(|_| p.admit(0)).count();
        assert_eq!(admitted, 10);
        // 100 ms later exactly 10 more tokens have accrued.
        let admitted = (0..1000).filter(|_| p.admit(100_000)).count();
        assert_eq!(admitted, 10);
        // Accrual is capped at the burst depth even after a long idle.
        let admitted = (0..1000).filter(|_| p.admit(3_600_000_000)).count();
        assert_eq!(admitted, 10);
        // Time moving backwards neither panics nor mints tokens.
        assert!(!p.admit(0));
    }

    #[test]
    fn sub_token_intervals_accumulate() {
        let mut p = RenewalPacer::new(PacerConfig {
            max_jitter_us: 0,
            rate_per_sec: 10, // one token per 100 ms
            burst: 1,
        });
        assert!(p.admit(0));
        // Polling every 10 ms must not lose the fractional refill.
        let mut admitted = 0;
        for ms in (10..=200).step_by(10) {
            if p.admit(ms * 1000) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 2, "two full tokens over 200 ms at 10/s");
    }
}
