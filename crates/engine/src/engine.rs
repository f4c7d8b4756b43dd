//! The sans-io multi-flow engine core.
//!
//! [`EngineCore`] multiplexes many ALPHA associations — host role *and*
//! relay role — behind one datagram entry point. Like the protocol
//! machines it wraps, it does no I/O and reads no clock: callers feed
//! `(source address, datagram bytes, Timestamp)` in and get datagrams
//! to transmit plus verified deliveries back in an [`EngineOutput`].
//! The same core is driven by the threaded UDP front end
//! (`alpha_transport::Engine`, which owns the sockets and the batched
//! I/O backends), the `alpha-transport` endpoints, the scaling bench,
//! and the deterministic tests in this module.
//!
//! ## Structure
//!
//! - Flows live in a [`Sharded`] table keyed by [`FlowKey`]. Shard
//!   selection hashes only the flow's *address* ([`addr_hash`] +
//!   [`jump_hash`]), so a receiver thread can route a datagram to the
//!   worker owning its shard without parsing it first, and every packet
//!   takes exactly one shard lock — never two.
//! - Each shard embeds a [`TimerWheel`] driving host retransmission and
//!   handshake resends, replacing the transport's fixed 20 ms poll.
//! - S1/HS1 packets (the unverifiable flood vectors) pass a per-flow
//!   [`SharedS1Limiter`] under the shard *read* lock, so over-budget
//!   traffic is shed without write contention, plus a global
//!   byte-budget valve over all relay pre-signature buffers.
//! - Every event lands in an [`EngineMetrics`] registry snapshotable as
//!   JSON while traffic flows.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use alpha_adapt::{AdaptConfig, FlowAdapt, FrozenAdapt};
use alpha_core::bootstrap::{self, AuthRequirement, Handshaker};
use alpha_core::renewal::RenewalOffer;
use alpha_core::{
    Association, Config, DropReason, FrozenAssociation, Mode, ProtocolError, Relay, RelayConfig,
    RelayDecision, S2BatchItem, SharedS1Limiter, SignerEvent, Timestamp,
};
use alpha_store::{FrozenStore, PacerConfig, RenewalPacer};
use alpha_wire::{
    bundle, BodyView, DigestPath, Frame, FramePool, HandshakeRole, Packet, PacketType, PacketView,
};
use parking_lot::{Mutex, RwLock};
use rand::RngCore;

use crate::backoff::Backoff;
use crate::chainstore;
use crate::mesh;
use crate::metrics::{EngineMetrics, PeerCounters};
use crate::shard::{addr_hash, jump_hash, FlowKey, ShardOwners, Sharded};
use crate::timer::TimerWheel;

/// Engine-level tunables. Protocol behaviour stays in the wrapped
/// [`Config`] / [`RelayConfig`]; everything here is about serving many
/// flows at once.
#[derive(Clone, Copy)]
pub struct EngineConfig {
    /// Protocol configuration for host-role flows (and the chains of
    /// handshakes this engine answers).
    pub protocol: Config,
    /// Relay policy for relay-role flows.
    pub relay: RelayConfig,
    /// Flow-table shards. More shards = less lock contention; workers
    /// own disjoint shard sets.
    pub shards: usize,
    /// Per-flow engine admission budget for S1/HS1 bytes per second
    /// (`None` disables). This runs *before* any protocol processing,
    /// under a shard read lock.
    pub s1_bytes_per_sec: Option<u64>,
    /// Global cap on bytes buffered across every relay flow's
    /// pre-signature stores. When exceeded, new S1s are shed until
    /// disclosure drains the buffers (backpressure valve).
    pub max_buffered_bytes: Option<u64>,
    /// Answer unknown-flow HS1 packets by standing up a new host
    /// association (server behaviour). Disable for pure relays.
    pub accept_handshakes: bool,
    /// Handshake resend attempts before a connecting flow is abandoned.
    pub handshake_retries: u32,
    /// Per-flow adaptation (`alpha-adapt`): when set, every host flow
    /// carries a channel estimator + mode controller, and
    /// [`EngineCore::sign_adaptive`] picks mode and bundle size online.
    pub adapt: Option<AdaptConfig>,
    /// Freeze a host flow that has seen no datagram for this many
    /// microseconds into the flow lifecycle store (`alpha-store`); the
    /// next verified datagram thaws it. `None` disables hibernation.
    pub hibernate_after: Option<u64>,
    /// Byte budget for frozen flow records. Past it, the coldest
    /// records are evicted (those flows are dropped for good). `None`
    /// disables eviction.
    pub frozen_budget: Option<u64>,
    /// Renewal-storm pacing: deterministic per-flow deadline jitter
    /// plus the global renewal token bucket.
    pub pacer: PacerConfig,
    /// Schedule a paced chain renewal when a host flow's signer chain
    /// has at most this many exchanges left.
    pub renew_below: u64,
    /// Capacity (datagrams) of each cross-worker handoff ring in the
    /// live runtime. When a ring is full the receiving worker processes
    /// the datagram itself under the shard lock (counted in
    /// `handoff_overflow`) rather than stall or drop.
    pub handoff_ring: usize,
}

impl EngineConfig {
    /// Defaults around a protocol config: 8 shards, 1 MiB/s per-flow S1
    /// budget, 64 MiB global buffer valve, handshakes accepted,
    /// hibernation off. Long chains left on the default `Full` storage
    /// are switched to dyadic pebbling here (see [`chainstore`];
    /// `ALPHA_CHAIN_STORAGE` overrides).
    #[must_use]
    pub fn new(protocol: Config) -> EngineConfig {
        EngineConfig {
            protocol: chainstore::resolve(protocol),
            relay: RelayConfig::default(),
            shards: 8,
            s1_bytes_per_sec: Some(1 << 20),
            max_buffered_bytes: Some(64 << 20),
            accept_handshakes: true,
            handshake_retries: 10,
            adapt: None,
            hibernate_after: None,
            frozen_budget: Some(256 << 20),
            pacer: PacerConfig::default(),
            renew_below: 8,
            handoff_ring: 1024,
        }
    }

    /// Set the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> EngineConfig {
        self.shards = shards.max(1);
        self
    }

    /// Set the relay policy.
    #[must_use]
    pub fn with_relay(mut self, relay: RelayConfig) -> EngineConfig {
        self.relay = relay;
        self
    }

    /// Set the per-flow S1/HS1 admission budget.
    #[must_use]
    pub fn with_s1_budget(mut self, bytes_per_sec: Option<u64>) -> EngineConfig {
        self.s1_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Set the global relay-buffer byte valve.
    #[must_use]
    pub fn with_buffer_valve(mut self, max_bytes: Option<u64>) -> EngineConfig {
        self.max_buffered_bytes = max_bytes;
        self
    }

    /// Enable per-flow adaptation with the given tunables.
    #[must_use]
    pub fn with_adapt(mut self, adapt: AdaptConfig) -> EngineConfig {
        self.adapt = Some(adapt);
        self
    }

    /// Set the hibernation idle threshold (µs); `None` disables.
    #[must_use]
    pub fn with_hibernate_after(mut self, idle_us: Option<u64>) -> EngineConfig {
        self.hibernate_after = idle_us;
        self
    }

    /// Set the frozen-record byte budget; `None` disables eviction.
    #[must_use]
    pub fn with_frozen_budget(mut self, max_bytes: Option<u64>) -> EngineConfig {
        self.frozen_budget = max_bytes;
        self
    }

    /// Set the renewal pacing tunables.
    #[must_use]
    pub fn with_pacer(mut self, pacer: PacerConfig) -> EngineConfig {
        self.pacer = pacer;
        self
    }

    /// Set the remaining-exchange threshold for paced renewals.
    #[must_use]
    pub fn with_renew_below(mut self, exchanges: u64) -> EngineConfig {
        self.renew_below = exchanges;
        self
    }

    /// Set the per-pair handoff ring capacity (datagrams).
    #[must_use]
    pub fn with_handoff_ring(mut self, capacity: usize) -> EngineConfig {
        self.handoff_ring = capacity.max(2);
        self
    }
}

/// Errors from engine API calls (not from network input, which is
/// counted in metrics and never raised).
#[derive(Debug)]
pub enum EngineError {
    /// No flow with this key.
    UnknownFlow(FlowKey),
    /// The flow exists but is not an established host association.
    NotAHostFlow(FlowKey),
    /// The protocol rejected the operation.
    Protocol(ProtocolError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownFlow(k) => write!(f, "no flow {}#{}", k.peer, k.assoc_id),
            EngineError::NotAHostFlow(k) => {
                write!(
                    f,
                    "flow {}#{} is not an established host",
                    k.peer, k.assoc_id
                )
            }
            EngineError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ProtocolError> for EngineError {
    fn from(e: ProtocolError) -> EngineError {
        EngineError::Protocol(e)
    }
}

/// Everything one engine call produced. The caller owns transmission
/// (`datagrams`) and consumption (`delivered` / `extracted`).
#[derive(Default)]
pub struct EngineOutput {
    /// Datagrams to transmit, already bundled/chunked at wire limits.
    /// Frames are on loan from the engine's pool and recycle themselves
    /// on drop, so steady-state TX does no per-datagram allocation.
    pub datagrams: Vec<(SocketAddr, Frame)>,
    /// Verified payloads delivered to host-role flows:
    /// `(assoc_id, message index, payload)`.
    pub delivered: Vec<(u64, u32, Vec<u8>)>,
    /// Payloads verified in transit by relay-role flows.
    pub extracted: Vec<(u64, Vec<u8>)>,
    /// Handshakes that completed during this call.
    pub completed: Vec<FlowKey>,
}

impl EngineOutput {
    /// Merge `other` into `self`.
    pub fn absorb(&mut self, other: EngineOutput) {
        self.datagrams.extend(other.datagrams);
        self.delivered.extend(other.delivered);
        self.extracted.extend(other.extracted);
        self.completed.extend(other.completed);
    }
}

/// Per-flow chain-renewal pacing state (lives inside
/// [`FlowState::Host`]).
enum RenewalSlot {
    /// No renewal scheduled or in flight.
    Idle,
    /// A jittered renewal deadline is armed on the timer wheel.
    Scheduled(Timestamp),
    /// The renewal S1 is in flight; commit on `ExchangeComplete`.
    Offered(Box<RenewalOffer>),
}

/// Per-flow state. Boxed so the table's entries stay small.
enum FlowState {
    /// Initiator waiting for HS2. `wire` is the HS1 for resends.
    Connecting {
        hs: Option<Box<Handshaker>>,
        wire: Vec<u8>,
        backoff: Backoff,
        started: Timestamp,
        next_resend: Timestamp,
    },
    /// Established end-host association.
    Host {
        assoc: Box<Association>,
        /// When the current outbound exchange started (RTT metric).
        inflight_since: Option<Timestamp>,
        /// Channel estimator + mode controller, present when
        /// [`EngineConfig::adapt`] is set.
        adapt: Option<Box<FlowAdapt>>,
        /// Last datagram or local sign on this flow — the hibernation
        /// idle clock.
        last_seen: Timestamp,
        /// Deadline of the armed idle-check wheel entry
        /// ([`Timestamp::ZERO`] when hibernation is off). Datagrams
        /// only refresh `last_seen`; the idle check re-arms itself
        /// lazily when it fires, so each flow keeps at most one idle
        /// entry on the wheel regardless of traffic.
        idle_deadline: Timestamp,
        /// Paced chain-renewal state.
        renewal: RenewalSlot,
    },
    /// Hibernated host flow: the association is frozen in the engine's
    /// [`FrozenStore`]; this one-word tombstone (plus the entry's
    /// admission limiter) is all that stays resident. The next
    /// datagram that *verifies* against the thawed association wakes
    /// it; anything else re-freezes the record untouched.
    Hibernated,
    /// On-path verifier between the canonical pair of endpoints.
    Relay {
        relay: Box<Relay>,
        /// Last observed pre-signature buffer total, for the valve
        /// gauge delta.
        buffered: usize,
    },
}

/// Frozen-record codec for the store: the `alpha-core` hibernation
/// record plus the optional adaptation snapshot, length-prefixed so
/// both decode totally.
fn encode_frozen_record(frozen: &FrozenAssociation, adapt: Option<&FrozenAdapt>) -> Vec<u8> {
    let body = frozen.encode();
    let mut out = Vec::with_capacity(4 + body.len() + 1 + 84);
    out.extend_from_slice(
        &u32::try_from(body.len())
            .expect("record fits u32")
            .to_be_bytes(),
    );
    out.extend_from_slice(&body);
    match adapt {
        Some(a) => {
            out.push(1);
            out.extend_from_slice(&a.to_bytes());
        }
        None => out.push(0),
    }
    out
}

fn decode_frozen_record(bytes: &[u8]) -> Option<(FrozenAssociation, Option<FrozenAdapt>)> {
    let len = u32::from_be_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let body = bytes.get(4..4 + len)?;
    let frozen = FrozenAssociation::decode(body)?;
    let rest = &bytes[4 + len..];
    let adapt = match rest.first()? {
        0 if rest.len() == 1 => None,
        1 => Some(FrozenAdapt::from_bytes(&rest[1..])?),
        _ => return None,
    };
    Some((frozen, adapt))
}

struct FlowEntry {
    limiter: SharedS1Limiter,
    state: FlowState,
}

/// Mesh-role state: the registered peer set (with per-peer counters)
/// and the standby next-hops that receive handshake replicas. Installed
/// by [`EngineCore::mesh_enable`]; absent for non-mesh engines, whose
/// hot path skips all of it behind one relaxed flag load.
struct MeshControl {
    /// Registered peers — upstreams we accept traffic from and next
    /// hops we forward toward. With `enforce`, a datagram whose source
    /// is not in this set is rejected before parsing (the paper's
    /// static-relay-set bypass defense).
    peers: HashMap<SocketAddr, Arc<PeerCounters>>,
    enforce: bool,
    /// Standby next-hops: every forwarded handshake is also replicated
    /// to these, learn-only, so a failover target already knows the
    /// association when live flows re-route to it.
    standbys: Vec<SocketAddr>,
}

/// One shard: its slice of the flow table plus the timer wheel driving
/// those flows. A worker write-locks a shard only while touching it.
struct Shard {
    flows: HashMap<FlowKey, FlowEntry>,
    wheel: TimerWheel<FlowKey>,
}

/// Per-worker earliest-deadline hints for readiness-driven worker
/// loops. Installed once by the transport front end
/// ([`EngineCore::install_worker_hints`]); absent in sans-io use.
///
/// `mins[w]` is a *conservative* lower bound on the earliest deadline
/// among the shards worker `w` polls: [`EngineCore::cache_deadline`]
/// pushes every new shard deadline into the polling worker's slot with
/// a `fetch_min` (so the hint can never be later than a real
/// deadline), and only the owning worker raises its own slot — by
/// rescanning its shards on a timer wake
/// ([`EngineCore::refresh_worker_deadline`]). A stale-low hint costs
/// one spurious wake; a too-high hint would delay a timer, and the
/// fetch_min/CAS split makes that unreachable.
struct WorkerHints {
    workers: u32,
    mins: Vec<AtomicU64>,
    /// Called (with the worker index) whenever a `fetch_min` actually
    /// lowered that worker's hint, so a readiness loop can re-arm its
    /// timerfd early. `None` under the fallback wait backend, which
    /// re-reads the hint every loop iteration anyway.
    waker: Option<Box<dyn Fn(u32) + Send + Sync>>,
}

/// The sans-io engine: sharded flow table + timers + metrics.
pub struct EngineCore {
    cfg: EngineConfig,
    shards: Sharded<Shard>,
    /// next-hop routing for relay role: `from → dst` (bidirectional
    /// entries). Read-only on the hot path.
    routes: RwLock<HashMap<SocketAddr, SocketAddr>>,
    /// Global relay pre-signature buffer gauge (bytes). Signed: deltas
    /// from concurrent shards may transiently dip below zero.
    buffered: AtomicI64,
    /// Reusable TX/RX frame buffers shared by every worker.
    pool: FramePool,
    /// Per-shard cached earliest timer deadline, in micros since the
    /// epoch (`u64::MAX` = no timers armed). Every wheel mutation
    /// happens under that shard's write lock and refreshes this cache
    /// before the lock drops, so workers can size their socket read
    /// timeouts and skip idle `poll_shard` calls without touching the
    /// lock at all — the deadline scan was a per-datagram cost.
    deadlines: Vec<AtomicU64>,
    /// Mesh peer set + standby list, when this core runs as a mesh
    /// relay. `mesh_active` mirrors `mesh.is_some()` so the hot path
    /// pays one relaxed load, not a lock, when the mesh is off.
    mesh: RwLock<Option<MeshControl>>,
    mesh_active: AtomicBool,
    /// Frozen records of hibernated flows. Lock order: a shard lock may
    /// be held when taking this mutex, never the reverse.
    store: Mutex<FrozenStore<FlowKey>>,
    /// Global renewal token bucket + per-flow jitter source.
    pacer: Mutex<RenewalPacer>,
    /// First-receiver-wins shard ownership: the worker whose
    /// SO_REUSEPORT socket the kernel steers a flow's datagrams to
    /// claims the flow's shard with one CAS and owns it end-to-end
    /// (datagram handling + timer polling). RSS-mismatched datagrams
    /// are handed to the owner through bounded rings by the transport
    /// layer, so on the steady state each shard has a single toucher.
    owners: ShardOwners,
    /// True once any relay route exists. Host-only engines (the common
    /// deployment) skip the `routes` read lock on every datagram.
    has_routes: AtomicBool,
    /// Per-worker min-deadline hints (see [`WorkerHints`]); empty until
    /// a threaded front end installs them.
    hints: OnceLock<WorkerHints>,
    metrics: EngineMetrics,
}

fn is_flood_vector(t: PacketType) -> bool {
    matches!(t, PacketType::S1 | PacketType::Hs1)
}

/// Order addresses so both directions of a relay pair map to one flow.
fn addr_rank(a: &SocketAddr) -> (u8, u128, u16) {
    match a {
        SocketAddr::V4(v) => (4, u128::from(u32::from_be_bytes(v.ip().octets())), v.port()),
        SocketAddr::V6(v) => (6, u128::from_be_bytes(v.ip().octets()), v.port()),
    }
}

fn canonical(a: SocketAddr, b: SocketAddr) -> SocketAddr {
    if addr_rank(&a) <= addr_rank(&b) {
        a
    } else {
        b
    }
}

impl EngineCore {
    /// Build an engine with no flows and no routes.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> EngineCore {
        let shards = Sharded::new(cfg.shards, |_| Shard {
            flows: HashMap::new(),
            wheel: TimerWheel::with_default_tick(Timestamp::ZERO),
        });
        let deadlines = (0..cfg.shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        EngineCore {
            cfg,
            shards,
            routes: RwLock::new(HashMap::new()),
            buffered: AtomicI64::new(0),
            pool: FramePool::new(2048, 4096),
            deadlines,
            mesh: RwLock::new(None),
            mesh_active: AtomicBool::new(false),
            store: Mutex::new(FrozenStore::new(cfg.frozen_budget)),
            pacer: Mutex::new(RenewalPacer::new(cfg.pacer)),
            owners: ShardOwners::new(cfg.shards),
            has_routes: AtomicBool::new(false),
            hints: OnceLock::new(),
            metrics: EngineMetrics::new(),
        }
    }

    /// Refresh a shard's cached earliest deadline from its wheel.
    /// Callers must hold the shard's write lock (proven by the `&mut
    /// Shard`): the lock serialises all wheel mutations, so these
    /// stores are totally ordered and the cache never goes stale —
    /// at worst a concurrent reader sees the previous value and
    /// revisits one socket-timeout later.
    fn cache_deadline(&self, idx: usize, shard: &mut Shard) {
        let v = shard.wheel.next_deadline().map_or(u64::MAX, |t| t.micros());
        self.deadlines[idx].store(v, Ordering::Release);
        self.note_deadline(idx, v);
    }

    /// Fold shard `idx`'s deadline `v` into the polling worker's hint,
    /// waking that worker if the hint actually moved earlier. No-op
    /// until [`EngineCore::install_worker_hints`] runs.
    fn note_deadline(&self, idx: usize, v: u64) {
        let Some(h) = self.hints.get() else { return };
        let w = match self.owners.owner(idx) {
            Some(o) => o,
            None => idx as u32 % h.workers,
        };
        let old = h.mins[w as usize].fetch_min(v, Ordering::AcqRel);
        if v < old {
            if let Some(waker) = &h.waker {
                waker(w);
            }
        }
    }

    /// Install per-worker min-deadline tracking for `workers` polling
    /// threads, with an optional waker called when a worker's earliest
    /// deadline moves forward (see [`WorkerHints`]). First caller wins;
    /// later calls are ignored (one threaded front end per core).
    pub fn install_worker_hints(
        &self,
        workers: u32,
        waker: Option<Box<dyn Fn(u32) + Send + Sync>>,
    ) {
        let workers = workers.max(1);
        let hints = WorkerHints {
            workers,
            mins: (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
            waker,
        };
        if self.hints.set(hints).is_err() {
            return;
        }
        // Timers armed before installation (e.g. flows added during
        // setup) were never noted; absorb every shard's current cache.
        for idx in 0..self.deadlines.len() {
            self.note_deadline(idx, self.deadlines[idx].load(Ordering::Acquire));
        }
    }

    /// Whether `worker` (of `workers` total) polls `shard`'s timers:
    /// the claimed owner does, and unclaimed shards fall back to the
    /// modulo worker so every wheel always has exactly one poller.
    #[must_use]
    pub fn polls_shard(&self, shard: usize, worker: u32, workers: u32) -> bool {
        match self.owners.owner(shard) {
            Some(o) => o == worker,
            None => shard as u32 % workers.max(1) == worker,
        }
    }

    /// The conservative earliest deadline among the shards `worker`
    /// polls, from the installed hints — O(1), not O(shards). `None`
    /// when hints are absent or no timer is armed.
    #[must_use]
    pub fn worker_next_deadline(&self, worker: u32) -> Option<Timestamp> {
        let h = self.hints.get()?;
        let v = h.mins[worker as usize].load(Ordering::Acquire);
        (v != u64::MAX).then_some(Timestamp::from_micros(v))
    }

    /// Recompute `worker`'s hint by scanning its shards' deadline
    /// caches — the only operation allowed to *raise* a hint, so only
    /// the worker itself calls it, after its timers fired. Returns the
    /// resulting deadline. The scan races concurrent `note_deadline`
    /// lowers; the CAS from the pre-scan value keeps whichever is
    /// earlier, so the hint stays conservative.
    pub fn refresh_worker_deadline(&self, worker: u32) -> Option<Timestamp> {
        let h = self.hints.get()?;
        let slot = &h.mins[worker as usize];
        let observed = slot.load(Ordering::Acquire);
        let mut min = u64::MAX;
        for idx in 0..self.deadlines.len() {
            if self.polls_shard(idx, worker, h.workers) {
                min = min.min(self.deadlines[idx].load(Ordering::Acquire));
            }
        }
        let v = match slot.compare_exchange(observed, min, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => min,
            // A concurrent lower won the slot; it is ≤ every deadline
            // noted since `observed`, so it stands.
            Err(cur) => cur,
        };
        (v != u64::MAX).then_some(Timestamp::from_micros(v))
    }

    /// The engine's frame pool. RX loops should fill checkouts from
    /// this pool so receive buffers recycle alongside TX frames.
    #[must_use]
    pub fn frame_pool(&self) -> &FramePool {
        &self.pool
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Register a bidirectional relay route: datagrams from `a` forward
    /// to `b` and vice versa, through per-association relay verifiers.
    pub fn add_route(&self, a: SocketAddr, b: SocketAddr) {
        let mut routes = self.routes.write();
        routes.insert(a, b);
        routes.insert(b, a);
        self.has_routes.store(true, Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Mesh role
    // ------------------------------------------------------------------

    /// Turn on mesh-relay behaviour: per-peer accounting, handshake
    /// replication to standbys, and — with `enforce` — rejection of any
    /// datagram whose source address is not a registered peer (the
    /// static-relay-set bypass defense: a relay only accepts traffic
    /// from its configured upstream/downstream set).
    pub fn mesh_enable(&self, enforce: bool) {
        let mut guard = self.mesh.write();
        match guard.as_mut() {
            Some(ctrl) => ctrl.enforce = enforce,
            None => {
                *guard = Some(MeshControl {
                    peers: HashMap::new(),
                    enforce,
                    standbys: Vec::new(),
                });
            }
        }
        self.mesh_active.store(true, Ordering::Release);
    }

    /// Register `peer` in the mesh peer set (enabling the mesh if it
    /// was off), returning its counter row. Registering an address
    /// twice returns the same row.
    pub fn mesh_register_peer(&self, peer: SocketAddr) -> Arc<PeerCounters> {
        let row = self.metrics.mesh.register_peer(peer);
        let mut guard = self.mesh.write();
        let ctrl = guard.get_or_insert_with(|| MeshControl {
            peers: HashMap::new(),
            enforce: false,
            standbys: Vec::new(),
        });
        ctrl.peers.insert(peer, Arc::clone(&row));
        drop(guard);
        self.mesh_active.store(true, Ordering::Release);
        row
    }

    /// Remove `peer` from the mesh peer set (and the standby list),
    /// returning whether it was registered. Its counter row remains in
    /// the metrics snapshot — departure does not erase history.
    pub fn mesh_remove_peer(&self, peer: SocketAddr) -> bool {
        let mut guard = self.mesh.write();
        let Some(ctrl) = guard.as_mut() else {
            return false;
        };
        ctrl.standbys.retain(|&s| s != peer);
        ctrl.peers.remove(&peer).is_some()
    }

    /// Add a standby next-hop: forwarded handshakes are replicated to
    /// it ([`mesh::REPLICA_MAGIC`]-wrapped) so it learns associations
    /// ahead of any failover. Also registers it as a peer.
    pub fn mesh_add_standby(&self, peer: SocketAddr) {
        let _ = self.mesh_register_peer(peer);
        let mut guard = self.mesh.write();
        let ctrl = guard.as_mut().expect("mesh enabled by register");
        if !ctrl.standbys.contains(&peer) {
            ctrl.standbys.push(peer);
        }
    }

    /// Absorb a replicated datagram learn-only: state updates (relay
    /// association learning, pre-signature buffering) happen exactly as
    /// for live traffic, but nothing is forwarded or delivered — the
    /// original relay already did that. `from` must be the replicating
    /// upstream so relay flows key identically to post-failover
    /// traffic.
    pub fn absorb_replica(
        &self,
        from: SocketAddr,
        inner: &[u8],
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) {
        let out = self.handle_datagram(from, inner, now, rng);
        drop(out);
        self.metrics
            .mesh
            .replicas_absorbed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Re-route live flows from peer `old` to peer `new`: every route
    /// toward `old` now points at `new`, and the flows carried by those
    /// routes — relay pairs keyed through `old`, plus host/connecting
    /// flows peered with `old` — are re-keyed and re-scheduled so
    /// in-flight associations survive the switch (pre-signature buffers
    /// and chain state move with them). Returns the number of flows
    /// moved. Timers left in the old shard's wheel fire on missing keys
    /// and are skipped harmlessly.
    pub fn reroute(&self, old: SocketAddr, new: SocketAddr) -> usize {
        if old == new {
            return 0;
        }
        // Every applied switch is a failover, whether or not flows were
        // live at that moment (an idle path moving to a standby still
        // changes where the next handshake goes).
        self.metrics.mesh.failovers.fetch_add(1, Ordering::Relaxed);
        // Phase 1: rewrite the route table, collecting the relay-pair
        // key renames implied by each rewritten route.
        let mut relay_renames: HashMap<SocketAddr, SocketAddr> = HashMap::new();
        {
            let mut routes = self.routes.write();
            let srcs: Vec<SocketAddr> = routes
                .iter()
                .filter(|&(src, dst)| *dst == old && *src != old)
                .map(|(src, _)| *src)
                .collect();
            routes.remove(&old);
            for src in srcs {
                routes.insert(src, new);
                routes.insert(new, src);
                let old_left = canonical(src, old);
                let new_left = canonical(src, new);
                if old_left != new_left {
                    relay_renames.insert(old_left, new_left);
                }
            }
        }
        // Phase 2: extract affected flows under each shard lock.
        let mut moved: Vec<(FlowKey, FlowKey, FlowEntry)> = Vec::new();
        for idx in 0..self.shards.len() {
            let mut shard = self.shards.write(idx);
            let candidates: Vec<FlowKey> = shard
                .flows
                .iter()
                .filter(|(k, e)| match e.state {
                    FlowState::Relay { .. } => relay_renames.contains_key(&k.peer),
                    _ => k.peer == old,
                })
                .map(|(k, _)| *k)
                .collect();
            for key in candidates {
                let Some(entry) = shard.flows.remove(&key) else {
                    continue;
                };
                let new_peer = match &entry.state {
                    FlowState::Relay { .. } => relay_renames[&key.peer],
                    _ => new,
                };
                moved.push((
                    FlowKey {
                        peer: new_peer,
                        assoc_id: key.assoc_id,
                    },
                    key,
                    entry,
                ));
            }
        }
        // Phase 3: reinsert at the destination shards and re-arm timers.
        // Hibernated flows bring their frozen record along to the new
        // key (so the next datagram from the new peer still thaws).
        let n = moved.len();
        for (key, old_key, entry) in moved {
            if matches!(entry.state, FlowState::Hibernated) {
                let mut store = self.store.lock();
                if let Some(record) = store.remove(&old_key) {
                    // Re-keying never grows the store, so this insert
                    // cannot evict.
                    let _ = store.insert(key, record);
                }
            }
            let idx = self.shard_index(&key);
            let mut shard = self.shards.write(idx);
            let due = match &entry.state {
                FlowState::Connecting { next_resend, .. } => Some(*next_resend),
                FlowState::Host { assoc, .. } => assoc.poll_at(),
                FlowState::Hibernated | FlowState::Relay { .. } => None,
            };
            if let Some(prev) = shard.flows.insert(key, entry) {
                // Displaced a flow already keyed at the destination
                // (e.g. stray traffic stood one up): keep gauges honest.
                if let FlowState::Relay { buffered, .. } = prev.state {
                    self.buffered.fetch_sub(buffered as i64, Ordering::Relaxed);
                }
                self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
            }
            if let Some(t) = due {
                shard.wheel.schedule(t, key);
                self.cache_deadline(idx, &mut shard);
            }
        }
        n
    }

    /// Shard index owning traffic *from* this address (resolving relay
    /// routes to the canonical pair endpoint). Receiver threads use
    /// this to demux datagrams to workers without parsing them.
    #[must_use]
    pub fn shard_of_source(&self, from: SocketAddr) -> usize {
        // Host-only engines never have routes: one relaxed-ish load
        // instead of a read lock on every received datagram.
        let addr = if self.has_routes.load(Ordering::Acquire) {
            match self.routes.read().get(&from) {
                Some(&dst) => canonical(from, dst),
                None => from,
            }
        } else {
            from
        };
        jump_hash(addr_hash(&addr), self.shards.len() as u32) as usize
    }

    /// Claim `shard` for `worker` (first receiver wins); returns the
    /// resulting owner. Workers call this on the first datagram they
    /// receive for a shard — kernel RSS thereby becomes the
    /// partitioner.
    pub fn claim_shard(&self, shard: usize, worker: u32) -> u32 {
        let owner = self.owners.claim(shard, worker);
        // Ownership may have moved the shard's timers to a different
        // poller; fold its deadline into the (new) owner's hint.
        self.note_deadline(shard, self.deadlines[shard].load(Ordering::Acquire));
        owner
    }

    /// Current owner of `shard`, or `None` when unclaimed.
    #[must_use]
    pub fn shard_owner(&self, shard: usize) -> Option<u32> {
        self.owners.owner(shard)
    }

    /// Release `shard` if `worker` owns it (worker drain, reroute).
    pub fn release_shard(&self, shard: usize, worker: u32) -> bool {
        let released = self.owners.release(shard, worker);
        if released {
            // The shard's timers fall back to the modulo worker.
            self.note_deadline(shard, self.deadlines[shard].load(Ordering::Acquire));
        }
        released
    }

    /// Contended shard-lock acquisitions since start (see
    /// [`Sharded::contended`]): the live runtime's "zero shared locks
    /// on the owned steady-state path" claim, as a counter.
    #[must_use]
    pub fn lock_contended(&self) -> u64 {
        self.shards.contended()
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Flows resident across all shards.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().flows.len()).sum()
    }

    /// Current global relay buffer gauge in bytes.
    #[must_use]
    pub fn buffered_bytes(&self) -> i64 {
        self.buffered.load(Ordering::Relaxed)
    }

    fn shard_index(&self, key: &FlowKey) -> usize {
        jump_hash(addr_hash(&key.peer), self.shards.len() as u32) as usize
    }

    /// Record and stage outbound packets for `dst` as one datagram
    /// (bundling multi-packet responses like the transport does),
    /// encoded into pooled frames.
    fn push_packets(&self, out: &mut EngineOutput, dst: SocketAddr, packets: &[Packet]) {
        match packets {
            [] => {}
            [one] => {
                let mut frame = self.pool.checkout();
                one.encode_into(frame.buf_mut());
                self.push_datagram(out, dst, frame);
            }
            many => {
                for chunk in many.chunks(alpha_wire::limits::MAX_BUNDLE) {
                    let mut frame = self.pool.checkout();
                    // Allowlist: `chunks` yields 1..=MAX_BUNDLE packets,
                    // so the count limits cannot trip.
                    bundle::emit_into(chunk, frame.buf_mut()).expect("chunked within limits");
                    self.push_datagram(out, dst, frame);
                }
            }
        }
    }

    /// Stage raw pre-encoded bytes (handshake resends) in a pooled frame.
    fn push_bytes(&self, out: &mut EngineOutput, dst: SocketAddr, bytes: &[u8]) {
        let mut frame = self.pool.checkout();
        frame.buf_mut().extend_from_slice(bytes);
        self.push_datagram(out, dst, frame);
    }

    fn push_datagram(&self, out: &mut EngineOutput, dst: SocketAddr, frame: Frame) {
        self.metrics.packets_out.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes_out
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        out.datagrams.push((dst, frame));
    }

    // ------------------------------------------------------------------
    // Flow creation
    // ------------------------------------------------------------------

    /// Fresh per-flow adaptation state, when the engine enables it.
    fn new_adapt(&self) -> Option<Box<FlowAdapt>> {
        self.cfg.adapt.map(|c| Box::new(FlowAdapt::new(c)))
    }

    /// Idle-check deadline for a flow last touched at `now`
    /// ([`Timestamp::ZERO`] when hibernation is off).
    fn idle_deadline_from(&self, now: Timestamp) -> Timestamp {
        self.cfg
            .hibernate_after
            .map_or(Timestamp::ZERO, |us| now.plus_micros(us))
    }

    /// Install an already-established host association (e.g. from an
    /// out-of-band or authenticated handshake) as a flow toward `peer`.
    pub fn add_host(&self, peer: SocketAddr, assoc: Association, now: Timestamp) -> FlowKey {
        let key = FlowKey {
            peer,
            assoc_id: assoc.assoc_id(),
        };
        let idx = self.shard_index(&key);
        let mut shard = self.shards.write(idx);
        let poll_at = assoc.poll_at();
        let idle_deadline = self.idle_deadline_from(now);
        shard.flows.insert(
            key,
            FlowEntry {
                limiter: SharedS1Limiter::new(self.cfg.s1_bytes_per_sec),
                state: FlowState::Host {
                    assoc: Box::new(assoc),
                    inflight_since: None,
                    adapt: self.new_adapt(),
                    last_seen: now,
                    idle_deadline,
                    renewal: RenewalSlot::Idle,
                },
            },
        );
        if let Some(t) = poll_at {
            shard.wheel.schedule(t.max(now), key);
        }
        if self.cfg.hibernate_after.is_some() {
            shard.wheel.schedule(idle_deadline, key);
        }
        self.cache_deadline(idx, &mut shard);
        self.metrics.flows_active.fetch_add(1, Ordering::Relaxed);
        key
    }

    /// Start an (unprotected) handshake toward `peer`: emits the HS1
    /// and arms jittered exponential resends until HS2 arrives or the
    /// retry budget runs out. Completion is reported through
    /// [`EngineOutput::completed`].
    pub fn connect(
        &self,
        peer: SocketAddr,
        assoc_id: u64,
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> (FlowKey, EngineOutput) {
        let mut out = EngineOutput::default();
        let (hs, pkt) = bootstrap::initiate(self.cfg.protocol, assoc_id, None, rng);
        let wire = pkt.emit();
        let key = FlowKey { peer, assoc_id };
        let mut backoff = Backoff::handshake();
        let next_resend = now.plus_micros(backoff.next_delay(rng).as_micros() as u64);
        let idx = self.shard_index(&key);
        {
            let mut shard = self.shards.write(idx);
            shard.flows.insert(
                key,
                FlowEntry {
                    limiter: SharedS1Limiter::new(self.cfg.s1_bytes_per_sec),
                    state: FlowState::Connecting {
                        hs: Some(Box::new(hs)),
                        wire: wire.clone(),
                        backoff,
                        started: now,
                        next_resend,
                    },
                },
            );
            shard.wheel.schedule(next_resend, key);
            self.cache_deadline(idx, &mut shard);
        }
        self.metrics.flows_active.fetch_add(1, Ordering::Relaxed);
        self.push_bytes(&mut out, peer, &wire);
        (key, out)
    }

    /// Drop a flow, returning whether it existed. A hibernated flow's
    /// frozen record is discarded with it.
    pub fn remove_flow(&self, key: FlowKey) -> bool {
        let idx = self.shard_index(&key);
        let removed = self.shards.write(idx).flows.remove(&key);
        if let Some(entry) = &removed {
            match entry.state {
                FlowState::Relay { buffered, .. } => {
                    self.buffered.fetch_sub(buffered as i64, Ordering::Relaxed);
                }
                FlowState::Hibernated => {
                    let mut store = self.store.lock();
                    let _ = store.remove(&key);
                    self.metrics
                        .store
                        .bytes_frozen
                        .store(store.bytes(), Ordering::Relaxed);
                    drop(store);
                    self.metrics
                        .store
                        .flows_hibernated
                        .fetch_sub(1, Ordering::Relaxed);
                }
                _ => {}
            }
            self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
        }
        removed.is_some()
    }

    // ------------------------------------------------------------------
    // Host-flow operations
    // ------------------------------------------------------------------

    /// Run `f` against the flow's association (any flow whose state is
    /// an established host). Returns `None` for unknown or non-host
    /// flows.
    pub fn with_association<R>(
        &self,
        key: FlowKey,
        f: impl FnOnce(&mut Association) -> R,
    ) -> Option<R> {
        let idx = self.shard_index(&key);
        let mut shard = self.shards.write(idx);
        match shard.flows.get_mut(&key) {
            Some(FlowEntry {
                state: FlowState::Host { assoc, .. },
                ..
            }) => Some(f(assoc)),
            _ => None,
        }
    }

    /// Whether a host flow has no exchange in flight.
    #[must_use]
    pub fn flow_is_idle(&self, key: FlowKey) -> bool {
        self.with_association(key, |a| a.signer().is_idle())
            .unwrap_or(false)
    }

    /// Sign and stage a batch on an established host flow.
    pub fn sign_batch(
        &self,
        key: FlowKey,
        messages: &[&[u8]],
        mode: Mode,
        now: Timestamp,
    ) -> Result<EngineOutput, EngineError> {
        self.sign_on_flow(key, messages, Some(mode), now)
            .map(|(_, out)| out)
    }

    /// Sign a bundle whose mode and size the flow's controller picks
    /// from its channel estimate: up to `min(n*, messages.len())`
    /// messages are consumed, front first. Returns how many were taken
    /// plus the staged output; the caller re-offers the remainder after
    /// the exchange completes. Flows without adaptation (engine built
    /// without [`EngineConfig::with_adapt`]) take everything in the
    /// protocol config's mode.
    pub fn sign_adaptive(
        &self,
        key: FlowKey,
        messages: &[&[u8]],
        now: Timestamp,
    ) -> Result<(usize, EngineOutput), EngineError> {
        self.sign_on_flow(key, messages, None, now)
    }

    /// Shared signing path: `fixed` forces a mode (classic
    /// `sign_batch`), `None` asks the flow's controller.
    fn sign_on_flow(
        &self,
        key: FlowKey,
        messages: &[&[u8]],
        fixed: Option<Mode>,
        now: Timestamp,
    ) -> Result<(usize, EngineOutput), EngineError> {
        let mut out = EngineOutput::default();
        let idx = self.shard_index(&key);
        let mut guard = self.shards.write(idx);
        let shard = &mut *guard;
        let Some(entry) = shard.flows.get_mut(&key) else {
            return Err(EngineError::UnknownFlow(key));
        };
        let FlowState::Host {
            assoc,
            inflight_since,
            adapt,
            last_seen,
            ..
        } = &mut entry.state
        else {
            return Err(EngineError::NotAHostFlow(key));
        };
        let (mode, take) = match (fixed, adapt.as_ref()) {
            (Some(mode), _) => (mode, messages.len()),
            (None, Some(a)) => a.plan(messages.len()),
            (None, None) => (self.cfg.protocol.mode, messages.len()),
        };
        let pkt = assoc.sign_batch(&messages[..take], mode, now)?;
        *inflight_since = Some(now);
        *last_seen = now;
        if let Some(a) = adapt.as_mut() {
            let payload: u64 = messages[..take].iter().map(|m| m.len() as u64).sum();
            a.begin_exchange(mode, take, payload, now);
            a.observe_packets(std::slice::from_ref(&pkt));
        }
        if let Some(t) = assoc.poll_at() {
            shard.wheel.schedule(t, key);
            self.cache_deadline(idx, shard);
        }
        drop(guard);
        self.push_packets(&mut out, key.peer, &[pkt]);
        Ok((take, out))
    }

    /// Run `f` against the flow's adaptation state; `None` for unknown
    /// flows, non-host flows, or engines without adaptation.
    pub fn with_adapt<R>(&self, key: FlowKey, f: impl FnOnce(&FlowAdapt) -> R) -> Option<R> {
        let idx = self.shard_index(&key);
        let shard = self.shards.read(idx);
        match shard.flows.get(&key) {
            Some(FlowEntry {
                state: FlowState::Host { adapt: Some(a), .. },
                ..
            }) => Some(f(a)),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Datagram intake
    // ------------------------------------------------------------------

    /// Feed one received datagram through the engine.
    ///
    /// Zero-copy path: the datagram is split into per-packet slices
    /// ([`bundle::split`]) and decoded as borrowed [`PacketView`]s; no
    /// owned [`Packet`] is materialised on the relay path or the host
    /// S2 path. Any malformed packet drops the whole datagram (parity
    /// with wholesale bundle parsing).
    pub fn handle_datagram(
        &self,
        from: SocketAddr,
        bytes: &[u8],
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> EngineOutput {
        let mut out = EngineOutput::default();
        self.metrics.packets_in.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes_in
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        // Bypass defense: when this core is a mesh relay, traffic from
        // a source outside the registered peer set is rejected before
        // any parsing or flow-table work.
        if self.mesh_active.load(Ordering::Relaxed) {
            let guard = self.mesh.read();
            if let Some(ctrl) = guard.as_ref() {
                match ctrl.peers.get(&from) {
                    Some(pc) => {
                        pc.datagrams_in.fetch_add(1, Ordering::Relaxed);
                    }
                    None if ctrl.enforce => {
                        self.metrics
                            .mesh
                            .upstream_rejects
                            .fetch_add(1, Ordering::Relaxed);
                        return out;
                    }
                    None => {}
                }
            }
        }
        let mut slices: [&[u8]; alpha_wire::limits::MAX_BUNDLE] =
            [&[]; alpha_wire::limits::MAX_BUNDLE];
        let Ok(n) = bundle::split(bytes, &mut slices) else {
            self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
            return out;
        };
        let mut views: [Option<PacketView<'_>>; alpha_wire::limits::MAX_BUNDLE] =
            [None; alpha_wire::limits::MAX_BUNDLE];
        for i in 0..n {
            match PacketView::parse(slices[i]) {
                Ok(v) => views[i] = Some(v),
                Err(_) => {
                    self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
                    return out;
                }
            }
        }
        let route = self.routes.read().get(&from).copied();
        match route {
            Some(dst) => self.relay_datagram(from, dst, &slices[..n], &views[..n], now, &mut out),
            None => {
                for (slice, view) in slices[..n].iter().zip(&views[..n]) {
                    let Some(view) = view else { continue };
                    self.host_packet(from, slice, view, now, rng, &mut out);
                }
            }
        }
        out
    }

    /// Feed a burst of received datagrams through the engine in one
    /// call, merging all outputs. Each datagram is processed exactly as
    /// [`EngineCore::handle_datagram`] would — within one datagram the
    /// relay path already batches consecutive same-association S2s — so
    /// draining a receive queue through this keeps worker loops simple
    /// without changing semantics.
    pub fn handle_datagrams(
        &self,
        batch: &[(SocketAddr, &[u8])],
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> EngineOutput {
        let mut out = EngineOutput::default();
        for &(from, bytes) in batch {
            out.absorb(self.handle_datagram(from, bytes, now, rng));
        }
        out
    }

    /// Admission veto for flood-vector packets, taken under the shard
    /// *read* lock: over-budget S1/HS1 traffic is shed without any
    /// write contention. Returns `false` when the packet must drop.
    /// Flows not yet in the table are admitted here and charged at
    /// insertion instead.
    fn admit(
        &self,
        shard_idx: usize,
        key: &FlowKey,
        ptype: PacketType,
        wire_len: usize,
        now: Timestamp,
    ) -> bool {
        if !is_flood_vector(ptype) {
            return true;
        }
        if ptype == PacketType::S1 {
            if let Some(max) = self.cfg.max_buffered_bytes {
                if self.buffered.load(Ordering::Relaxed) > max as i64 {
                    self.metrics
                        .backpressure_drops
                        .fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        let shard = self.shards.read(shard_idx);
        if let Some(entry) = shard.flows.get(key) {
            if !entry.limiter.allow(wire_len as u64, now) {
                self.metrics.admission_drops.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    fn relay_datagram(
        &self,
        from: SocketAddr,
        dst: SocketAddr,
        slices: &[&[u8]],
        views: &[Option<PacketView<'_>>],
        now: Timestamp,
        out: &mut EngineOutput,
    ) {
        let left = canonical(from, dst);
        // Forwarded packets are re-emitted as borrowed slices: the relay
        // hot path never materialises an owned packet or clones bytes.
        let mut pass: [&[u8]; alpha_wire::limits::MAX_BUNDLE] =
            [&[]; alpha_wire::limits::MAX_BUNDLE];
        let mut npass = 0usize;
        // Consecutive S2 packets of the same association are verified as
        // one batch (one shard write lock, digests computed in lane
        // sweeps); everything else takes the single-packet path.
        let mut i = 0;
        while i < slices.len() {
            let Some(view) = &views[i] else {
                i += 1;
                continue;
            };
            let run_end = if matches!(view.body, BodyView::S2 { .. }) {
                let assoc = view.assoc_id;
                let mut j = i + 1;
                while j < slices.len()
                    && views[j].as_ref().is_some_and(|v| {
                        v.assoc_id == assoc && matches!(v.body, BodyView::S2 { .. })
                    })
                {
                    j += 1;
                }
                j
            } else {
                i + 1
            };
            if run_end - i >= 2 {
                self.relay_s2_run(
                    left,
                    &slices[i..run_end],
                    &views[i..run_end],
                    now,
                    out,
                    &mut pass,
                    &mut npass,
                );
            } else {
                self.relay_single(left, slices[i], view, now, out, &mut pass, &mut npass);
            }
            i = run_end;
        }
        if npass > 0 {
            let mut frame = self.pool.checkout();
            // Allowlist: npass is 1..=MAX_BUNDLE, and multi-packet
            // slices came out of a bundle frame, so each length already
            // fit the u16 prefix.
            bundle::emit_slices_into(&pass[..npass], frame.buf_mut()).expect("valid re-bundle");
            self.push_datagram(out, dst, frame);
            if self.mesh_active.load(Ordering::Relaxed) {
                self.metrics.mesh.forwarded.fetch_add(1, Ordering::Relaxed);
                if let Some(pc) = self.mesh.read().as_ref().and_then(|c| c.peers.get(&dst)) {
                    pc.datagrams_out.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Handshake replication: standby next-hops must learn every
        // association this relay carries, so they can verify the flow
        // the moment a failover re-routes it at them.
        if self.mesh_active.load(Ordering::Relaxed) {
            let is_hs = |v: &Option<PacketView<'_>>| {
                v.as_ref()
                    .is_some_and(|v| matches!(v.body, BodyView::Handshake(_)))
            };
            if views.iter().any(is_hs) {
                let standbys: Vec<SocketAddr> = self
                    .mesh
                    .read()
                    .as_ref()
                    .map(|c| c.standbys.clone())
                    .unwrap_or_default();
                for (slice, view) in slices.iter().zip(views) {
                    if !is_hs(view) {
                        continue;
                    }
                    for &standby in &standbys {
                        let mut frame = self.pool.checkout();
                        frame.buf_mut().extend_from_slice(mesh::REPLICA_MAGIC);
                        frame.buf_mut().extend_from_slice(slice);
                        self.push_datagram(out, standby, frame);
                    }
                }
            }
        }
    }

    /// Single-packet relay path: one shard write lock, one
    /// [`Relay::observe_view`] call.
    #[allow(clippy::too_many_arguments)]
    fn relay_single<'a>(
        &self,
        left: SocketAddr,
        slice: &'a [u8],
        view: &PacketView<'a>,
        now: Timestamp,
        out: &mut EngineOutput,
        pass: &mut [&'a [u8]; alpha_wire::limits::MAX_BUNDLE],
        npass: &mut usize,
    ) {
        let key = FlowKey {
            peer: left,
            assoc_id: view.assoc_id,
        };
        let idx = self.shard_index(&key);
        if !self.admit(idx, &key, view.packet_type(), slice.len(), now) {
            return;
        }
        let mut shard = self.shards.write(idx);
        let entry = shard
            .flows
            .entry(key)
            .or_insert_with(|| self.new_relay_flow(slice.len(), now));
        let FlowState::Relay { relay, buffered } = &mut entry.state else {
            // A host flow keyed like a routed pair: treat as
            // mis-routed and drop.
            self.metrics.record_drop(DropReason::UnknownAssociation);
            return;
        };
        let (decision, outcome) = relay.observe_view(view, slice.len(), now);
        let new_buffered = relay.total_buffered_bytes();
        let delta = new_buffered as i64 - *buffered as i64;
        *buffered = new_buffered;
        drop(shard);
        if delta != 0 {
            self.buffered.fetch_add(delta, Ordering::Relaxed);
        }
        if outcome.learned.is_some() {
            self.metrics.handshakes.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.verified_s2.is_some() {
            if let BodyView::S2 { payload, .. } = &view.body {
                self.metrics.s2_verified.fetch_add(1, Ordering::Relaxed);
                // The extraction copy is the only allocation on the
                // verified-forward path.
                out.extracted.push((view.assoc_id, payload.to_vec()));
            }
        }
        match decision {
            RelayDecision::Forward => {
                pass[*npass] = slice;
                *npass += 1;
            }
            RelayDecision::Drop(reason) => self.metrics.record_drop(reason),
        }
    }

    /// A run of two or more consecutive S2 packets of one association:
    /// admitted packets are verified in a single [`Relay::observe_s2_batch`]
    /// call under one shard write lock, so the MAC / Merkle digests run
    /// through the batched backend and the buffered-byte accounting is
    /// reconciled once per run instead of once per packet. Decisions come
    /// back in input order, so forwarded slices keep their bundle order.
    #[allow(clippy::too_many_arguments)]
    fn relay_s2_run<'a>(
        &self,
        left: SocketAddr,
        slices: &[&'a [u8]],
        views: &[Option<PacketView<'a>>],
        now: Timestamp,
        out: &mut EngineOutput,
        pass: &mut [&'a [u8]; alpha_wire::limits::MAX_BUNDLE],
        npass: &mut usize,
    ) {
        let assoc_id = views[0]
            .as_ref()
            .expect("run built from parsed views")
            .assoc_id;
        let key = FlowKey {
            peer: left,
            assoc_id,
        };
        let idx = self.shard_index(&key);
        // Admission parity with the single-packet path. S2 is not a flood
        // vector today, so this is a cheap constant check per packet, but
        // the mapping below stays correct if that ever changes.
        let mut admitted: Vec<bool> = Vec::with_capacity(slices.len());
        let mut paths: Vec<DigestPath> = Vec::with_capacity(slices.len());
        for (slice, view) in slices.iter().zip(views) {
            let view = view.as_ref().expect("run built from parsed views");
            admitted.push(self.admit(idx, &key, view.packet_type(), slice.len(), now));
            let BodyView::S2 { path, .. } = &view.body else {
                unreachable!("run contains only S2 views");
            };
            paths.push(path.to_path());
        }
        let mut items: Vec<S2BatchItem<'_>> = Vec::with_capacity(slices.len());
        for (k, view) in views.iter().enumerate() {
            if !admitted[k] {
                continue;
            }
            let view = view.as_ref().expect("run built from parsed views");
            let BodyView::S2 {
                key: mac_key,
                seq,
                payload,
                ..
            } = &view.body
            else {
                unreachable!("run contains only S2 views");
            };
            items.push(S2BatchItem {
                alg: view.alg,
                chain_index: view.chain_index,
                key: *mac_key,
                seq: *seq,
                path: paths[k].as_slice(),
                payload,
            });
        }
        if items.is_empty() {
            return;
        }
        let first_len = slices
            .iter()
            .zip(&admitted)
            .find(|&(_, &a)| a)
            .map_or(0, |(s, _)| s.len());
        let mut shard = self.shards.write(idx);
        let entry = shard
            .flows
            .entry(key)
            .or_insert_with(|| self.new_relay_flow(first_len, now));
        let FlowState::Relay { relay, buffered } = &mut entry.state else {
            for _ in &items {
                self.metrics.record_drop(DropReason::UnknownAssociation);
            }
            return;
        };
        let decisions = relay.observe_s2_batch(assoc_id, &items, now);
        let new_buffered = relay.total_buffered_bytes();
        let delta = new_buffered as i64 - *buffered as i64;
        *buffered = new_buffered;
        drop(shard);
        if delta != 0 {
            self.buffered.fetch_add(delta, Ordering::Relaxed);
        }
        let mut decisions = decisions.into_iter();
        for (k, slice) in slices.iter().enumerate() {
            if !admitted[k] {
                continue;
            }
            let (decision, outcome) = decisions.next().expect("one decision per admitted packet");
            if outcome.verified_s2.is_some() {
                if let Some(BodyView::S2 { payload, .. }) = views[k].as_ref().map(|v| &v.body) {
                    self.metrics.s2_verified.fetch_add(1, Ordering::Relaxed);
                    out.extracted.push((assoc_id, payload.to_vec()));
                }
            }
            match decision {
                RelayDecision::Forward => {
                    pass[*npass] = slice;
                    *npass += 1;
                }
                RelayDecision::Drop(reason) => self.metrics.record_drop(reason),
            }
        }
    }

    /// A fresh relay-role flow entry, charged for the packet that created
    /// it (established flows were charged in [`EngineCore::admit`]).
    fn new_relay_flow(&self, wire_len: usize, now: Timestamp) -> FlowEntry {
        self.metrics.flows_active.fetch_add(1, Ordering::Relaxed);
        let limiter = SharedS1Limiter::new(self.cfg.s1_bytes_per_sec);
        limiter.allow(wire_len as u64, now);
        FlowEntry {
            limiter,
            state: FlowState::Relay {
                relay: Box::new(Relay::new(self.cfg.relay)),
                buffered: 0,
            },
        }
    }

    fn host_packet(
        &self,
        from: SocketAddr,
        slice: &[u8],
        view: &PacketView<'_>,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        let key = FlowKey {
            peer: from,
            assoc_id: view.assoc_id,
        };
        let idx = self.shard_index(&key);
        if !self.admit(idx, &key, view.packet_type(), slice.len(), now) {
            return;
        }
        // Peek the flow's kind under a read lock, then dispatch; each
        // handler re-checks under its own write lock, so a racing
        // transition is handled, not corrupted.
        enum Kind {
            Missing,
            Connecting,
            Host,
            Hibernated,
            Relay,
        }
        let kind = match self.shards.read(idx).flows.get(&key) {
            None => Kind::Missing,
            Some(e) => match e.state {
                FlowState::Connecting { .. } => Kind::Connecting,
                FlowState::Host { .. } => Kind::Host,
                FlowState::Hibernated => Kind::Hibernated,
                FlowState::Relay { .. } => Kind::Relay,
            },
        };
        match kind {
            Kind::Missing => self.accept_handshake(key, view, slice.len(), now, rng, out),
            Kind::Connecting => self.complete_handshake(idx, key, view, now, out),
            Kind::Host => self.host_handle(idx, key, view, now, rng, out),
            Kind::Hibernated => self.host_thaw(idx, key, view, now, rng, out),
            Kind::Relay => self.metrics.record_drop(DropReason::UnknownAssociation),
        }
    }

    /// Established host flow: feed the packet to the association. S2
    /// packets — the data path — go through the field-level borrowed
    /// interface; the rare control packets materialise an owned
    /// [`Packet`].
    fn host_handle(
        &self,
        idx: usize,
        key: FlowKey,
        view: &PacketView<'_>,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        let mut guard = self.shards.write(idx);
        let shard = &mut *guard;
        let Some(FlowEntry {
            state:
                FlowState::Host {
                    assoc,
                    inflight_since,
                    adapt,
                    last_seen,
                    renewal,
                    ..
                },
            ..
        }) = shard.flows.get_mut(&key)
        else {
            self.metrics.record_drop(DropReason::UnknownAssociation);
            return;
        };
        if let Some(a) = adapt.as_mut() {
            if view.packet_type() == PacketType::A1 {
                a.on_a1(now);
            }
        }
        let result = match &view.body {
            BodyView::S2 {
                key: mac_key,
                seq,
                path,
                payload,
            } => {
                let path = path.to_path();
                assoc.handle_s2_fields(
                    view.assoc_id,
                    view.chain_index,
                    mac_key,
                    *seq,
                    &path,
                    payload,
                    now,
                )
            }
            _ => assoc.handle(&view.to_packet(), now, rng),
        };
        match result {
            Ok(resp) => {
                *last_seen = now;
                if inflight_since.is_some() && assoc.signer().is_idle() {
                    // Allowlist: guarded by `is_some()` on the line above.
                    let started = inflight_since.take().expect("checked above");
                    self.metrics.rtt_us.record(now.since(started));
                }
                if let Some(a) = adapt.as_mut() {
                    let before = a.switches_total();
                    a.observe(&resp.packets, &resp.signer_events);
                    self.metrics
                        .adapt_switches
                        .fetch_add(a.switches_total() - before, Ordering::Relaxed);
                    if let Some(rto) = a.rto_us() {
                        assoc.set_rto_micros(rto);
                    }
                }
                // Renewal lifecycle: the signer admits one exchange at a
                // time, so while an offer is outstanding the next
                // completion/abandonment verdict is the renewal's.
                if matches!(renewal, RenewalSlot::Offered(_)) {
                    if resp
                        .signer_events
                        .iter()
                        .any(|e| matches!(e, SignerEvent::ExchangeComplete))
                    {
                        if let RenewalSlot::Offered(offer) =
                            std::mem::replace(renewal, RenewalSlot::Idle)
                        {
                            let _ = assoc.commit_renewal(*offer);
                        }
                    } else if resp
                        .signer_events
                        .iter()
                        .any(|e| matches!(e, SignerEvent::ExchangeAbandoned))
                    {
                        *renewal = RenewalSlot::Idle;
                    }
                }
                // Arm a jittered renewal deadline when the chain runs
                // low (deterministic per-flow spread, see alpha-store).
                if matches!(renewal, RenewalSlot::Idle)
                    && assoc.signer().is_idle()
                    && assoc.signer().remaining_exchanges() <= self.cfg.renew_below
                {
                    let due = now.plus_micros(self.pacer.lock().jitter_us(key.stable_hash()));
                    *renewal = RenewalSlot::Scheduled(due);
                    shard.wheel.schedule(due, key);
                }
                self.metrics
                    .s2_verified
                    .fetch_add(resp.deliveries.len() as u64, Ordering::Relaxed);
                if let Some(t) = assoc.poll_at() {
                    shard.wheel.schedule(t, key);
                }
                self.cache_deadline(idx, shard);
                drop(guard);
                out.delivered.extend(
                    resp.deliveries
                        .into_iter()
                        .map(|(seq, p)| (key.assoc_id, seq, p)),
                );
                self.push_packets(out, key.peer, &resp.packets);
            }
            Err(e) => {
                drop(guard);
                self.metrics.record_drop(protocol_drop_reason(e));
            }
        }
    }

    /// Wake a hibernated flow: pull its frozen record, thaw the
    /// association, and feed it this datagram *before* re-admitting the
    /// flow to the table. Only a packet that verifies against the
    /// thawed chains wakes the flow — a forged datagram aimed at a
    /// frozen flow gets the record re-frozen untouched, so hibernation
    /// adds no spoofing surface. The thawed flow resumes mid-stream
    /// with no handshake and decisions identical to a never-slept one.
    fn host_thaw(
        &self,
        idx: usize,
        key: FlowKey,
        view: &PacketView<'_>,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        // Wall-clock latency of the wake itself (metrics only; protocol
        // decisions still run on the caller-supplied Timestamp).
        let wake_timer = std::time::Instant::now();
        let mut guard = self.shards.write(idx);
        let shard = &mut *guard;
        match shard.flows.get(&key).map(|e| &e.state) {
            Some(FlowState::Hibernated) => {}
            Some(FlowState::Host { .. }) => {
                // A racing datagram already woke it.
                drop(guard);
                self.host_handle(idx, key, view, now, rng, out);
                return;
            }
            _ => {
                drop(guard);
                self.metrics.record_drop(DropReason::UnknownAssociation);
                return;
            }
        }
        let mut store = self.store.lock();
        let record = store.remove(&key);
        self.metrics
            .store
            .bytes_frozen
            .store(store.bytes(), Ordering::Relaxed);
        drop(store);
        let Some(record) = record else {
            // Tombstone without a record: the budget evicted this flow
            // (it is gone for good); reap the tombstone.
            shard.flows.remove(&key);
            self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
            self.metrics
                .store
                .flows_hibernated
                .fetch_sub(1, Ordering::Relaxed);
            self.metrics.record_drop(DropReason::UnknownAssociation);
            return;
        };
        let Some((frozen, frozen_adapt)) = decode_frozen_record(&record) else {
            // Unreachable for records this engine wrote; fail closed
            // rather than panicking mid-datapath.
            shard.flows.remove(&key);
            self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
            self.metrics
                .store
                .flows_hibernated
                .fetch_sub(1, Ordering::Relaxed);
            self.metrics.record_drop(DropReason::Malformed);
            return;
        };
        let mut assoc = Box::new(Association::thaw(self.cfg.protocol, &frozen));
        let result = match &view.body {
            BodyView::S2 {
                key: mac_key,
                seq,
                path,
                payload,
            } => {
                let path = path.to_path();
                assoc.handle_s2_fields(
                    view.assoc_id,
                    view.chain_index,
                    mac_key,
                    *seq,
                    &path,
                    payload,
                    now,
                )
            }
            _ => assoc.handle(&view.to_packet(), now, rng),
        };
        match result {
            Ok(resp) => {
                let mut adapt = match (self.cfg.adapt, &frozen_adapt) {
                    (Some(cfg), Some(fa)) => Some(Box::new(FlowAdapt::restore(cfg, fa))),
                    (Some(cfg), None) => Some(Box::new(FlowAdapt::new(cfg))),
                    (None, _) => None,
                };
                if let Some(a) = adapt.as_mut() {
                    a.observe(&resp.packets, &resp.signer_events);
                    if let Some(rto) = a.rto_us() {
                        assoc.set_rto_micros(rto);
                    }
                }
                self.metrics
                    .s2_verified
                    .fetch_add(resp.deliveries.len() as u64, Ordering::Relaxed);
                // Re-admit the woken flow and re-arm its timers: poll
                // deadline, idle clock, and — if the thaw landed near
                // chain exhaustion — a jittered renewal deadline.
                let poll_at = assoc.poll_at();
                let renewal = if assoc.signer().is_idle()
                    && assoc.signer().remaining_exchanges() <= self.cfg.renew_below
                {
                    let due = now.plus_micros(self.pacer.lock().jitter_us(key.stable_hash()));
                    shard.wheel.schedule(due, key);
                    RenewalSlot::Scheduled(due)
                } else {
                    RenewalSlot::Idle
                };
                let idle_deadline = self.idle_deadline_from(now);
                if let Some(entry) = shard.flows.get_mut(&key) {
                    entry.state = FlowState::Host {
                        assoc,
                        inflight_since: None,
                        adapt,
                        last_seen: now,
                        idle_deadline,
                        renewal,
                    };
                }
                if let Some(t) = poll_at {
                    shard.wheel.schedule(t, key);
                }
                if self.cfg.hibernate_after.is_some() {
                    shard.wheel.schedule(idle_deadline, key);
                }
                self.cache_deadline(idx, shard);
                self.metrics.store.thawed.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .store
                    .flows_hibernated
                    .fetch_sub(1, Ordering::Relaxed);
                self.metrics
                    .store
                    .thaw_latency_us
                    .record(wake_timer.elapsed().as_micros() as u64);
                drop(guard);
                out.delivered.extend(
                    resp.deliveries
                        .into_iter()
                        .map(|(seq, p)| (key.assoc_id, seq, p)),
                );
                self.push_packets(out, key.peer, &resp.packets);
            }
            Err(e) => {
                // Forged or stale: re-freeze the record exactly as it
                // was. Same-size reinsertion cannot exceed the budget,
                // but route any eviction through the normal reaper.
                let mut store = self.store.lock();
                let evicted = store.insert(key, record);
                self.metrics
                    .store
                    .bytes_frozen
                    .store(store.bytes(), Ordering::Relaxed);
                drop(store);
                self.metrics
                    .store
                    .thaw_rejected
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics.record_drop(protocol_drop_reason(e));
                drop(guard);
                self.reap_evicted(evicted);
            }
        }
    }

    /// Freeze one idle host flow into the store, leaving a
    /// [`FlowState::Hibernated`] tombstone in the table. Caller holds
    /// the shard's write lock. Returns records evicted by the byte
    /// budget, which the caller must pass to
    /// [`EngineCore::reap_evicted`] *after* releasing the shard lock
    /// (victims can live in any shard).
    fn freeze_flow(
        &self,
        shard: &mut Shard,
        key: FlowKey,
        now: Timestamp,
    ) -> Vec<(FlowKey, Vec<u8>)> {
        let idle_us = self.cfg.hibernate_after.unwrap_or(0);
        let Some(entry) = shard.flows.get_mut(&key) else {
            return Vec::new();
        };
        let FlowState::Host {
            assoc,
            adapt,
            idle_deadline,
            renewal,
            ..
        } = &mut entry.state
        else {
            return Vec::new();
        };
        // A flow mid-renewal holds fresh chains outside the record;
        // let it finish — re-arm so the idle timer comes back around.
        if matches!(renewal, RenewalSlot::Offered(_)) {
            let t = now.plus_micros(idle_us.max(1));
            *idle_deadline = t;
            shard.wheel.schedule(t, key);
            return Vec::new();
        }
        let frozen = match assoc.freeze() {
            Ok(frozen) => frozen,
            Err(_) => {
                // Signer exchange outstanding; retry a period later.
                let t = now.plus_micros(idle_us.max(1));
                *idle_deadline = t;
                shard.wheel.schedule(t, key);
                return Vec::new();
            }
        };
        let record =
            encode_frozen_record(&frozen, adapt.as_deref().map(FlowAdapt::freeze).as_ref());
        entry.state = FlowState::Hibernated;
        let mut store = self.store.lock();
        let evicted = store.insert(key, record);
        self.metrics
            .store
            .bytes_frozen
            .store(store.bytes(), Ordering::Relaxed);
        drop(store);
        self.metrics.store.frozen.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .store
            .flows_hibernated
            .fetch_add(1, Ordering::Relaxed);
        evicted
    }

    /// Remove the table tombstones of records the byte budget evicted.
    /// Must be called with no shard lock held.
    fn reap_evicted(&self, evicted: Vec<(FlowKey, Vec<u8>)>) {
        for (key, _record) in evicted {
            let idx = self.shard_index(&key);
            let mut shard = self.shards.write(idx);
            if matches!(
                shard.flows.get(&key).map(|e| &e.state),
                Some(FlowState::Hibernated)
            ) {
                shard.flows.remove(&key);
                self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
                self.metrics
                    .store
                    .flows_hibernated
                    .fetch_sub(1, Ordering::Relaxed);
            }
            self.metrics.store.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Unknown flow: if it is an HS1 and this engine accepts
    /// handshakes, stand up a new host association and reply with HS2.
    fn accept_handshake(
        &self,
        key: FlowKey,
        view: &PacketView<'_>,
        wire_len: usize,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        let is_hs1 = matches!(&view.body, BodyView::Handshake(h) if h.role == HandshakeRole::Init);
        if !self.cfg.accept_handshakes || !is_hs1 {
            self.metrics.record_drop(DropReason::UnknownAssociation);
            return;
        }
        // Handshakes are rare and carry owned blobs anyway: materialise.
        let pkt = view.to_packet();
        match bootstrap::respond(self.cfg.protocol, &pkt, None, AuthRequirement::None, rng) {
            Ok((assoc, reply, _key)) => {
                let idx = self.shard_index(&key);
                let limiter = SharedS1Limiter::new(self.cfg.s1_bytes_per_sec);
                limiter.allow(wire_len as u64, now); // charge the HS1
                let mut shard = self.shards.write(idx);
                let idle_deadline = self.idle_deadline_from(now);
                shard.flows.insert(
                    key,
                    FlowEntry {
                        limiter,
                        state: FlowState::Host {
                            assoc: Box::new(assoc),
                            inflight_since: None,
                            adapt: self.new_adapt(),
                            last_seen: now,
                            idle_deadline,
                            renewal: RenewalSlot::Idle,
                        },
                    },
                );
                if self.cfg.hibernate_after.is_some() {
                    shard.wheel.schedule(idle_deadline, key);
                    self.cache_deadline(idx, &mut shard);
                }
                drop(shard);
                self.metrics.flows_active.fetch_add(1, Ordering::Relaxed);
                self.metrics.handshakes.fetch_add(1, Ordering::Relaxed);
                out.completed.push(key);
                self.push_packets(out, key.peer, &[reply]);
            }
            Err(_) => self.metrics.record_drop(DropReason::Malformed),
        }
    }

    /// Connecting flow: try to finish the handshake with this packet.
    fn complete_handshake(
        &self,
        idx: usize,
        key: FlowKey,
        view: &PacketView<'_>,
        now: Timestamp,
        out: &mut EngineOutput,
    ) {
        let is_hs2 = matches!(&view.body, BodyView::Handshake(h) if h.role == HandshakeRole::Reply)
            && view.assoc_id == key.assoc_id;
        if !is_hs2 {
            // Everything but an HS2 reply is noise while connecting
            // (e.g. a duplicated HS1 reflection).
            self.metrics.record_drop(DropReason::Unsolicited);
            return;
        }
        let mut shard = self.shards.write(idx);
        let Some(entry) = shard.flows.get_mut(&key) else {
            return; // reaped by the retry budget in the meantime
        };
        let FlowState::Connecting { hs, started, .. } = &mut entry.state else {
            return; // a racing packet already completed it
        };
        let started = *started;
        let Some(hs) = hs.take() else {
            return;
        };
        match hs.complete(&view.to_packet(), AuthRequirement::None) {
            Ok((assoc, _peer_key)) => {
                let idle_deadline = self.idle_deadline_from(now);
                entry.state = FlowState::Host {
                    assoc: Box::new(assoc),
                    inflight_since: None,
                    adapt: self.new_adapt(),
                    last_seen: now,
                    idle_deadline,
                    renewal: RenewalSlot::Idle,
                };
                if self.cfg.hibernate_after.is_some() {
                    shard.wheel.schedule(idle_deadline, key);
                    self.cache_deadline(idx, &mut shard);
                }
                self.metrics.handshakes.fetch_add(1, Ordering::Relaxed);
                self.metrics.handshake_us.record(now.since(started));
                out.completed.push(key);
            }
            Err(_) => {
                // Unrecoverable (the handshaker is consumed): drop the
                // flow; a caller-level retry starts a fresh connect.
                shard.flows.remove(&key);
                self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
                self.metrics.record_drop(DropReason::Malformed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest timer deadline across all shards, if any. Lock-free:
    /// reads the per-shard deadline caches maintained under the shard
    /// write locks.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Timestamp> {
        self.deadlines
            .iter()
            .map(|d| d.load(Ordering::Acquire))
            .min()
            .filter(|&v| v != u64::MAX)
            .map(Timestamp::from_micros)
    }

    /// Earliest timer deadline of one shard (workers size their socket
    /// read timeouts from the shards they own, not the whole engine).
    /// Lock-free, same cache as [`EngineCore::next_deadline`].
    #[must_use]
    pub fn shard_next_deadline(&self, idx: usize) -> Option<Timestamp> {
        let v = self.deadlines[idx].load(Ordering::Acquire);
        (v != u64::MAX).then_some(Timestamp::from_micros(v))
    }

    /// Advance every shard's timers to `now`.
    pub fn poll(&self, now: Timestamp, rng: &mut dyn RngCore) -> EngineOutput {
        let mut out = EngineOutput::default();
        for idx in 0..self.shards.len() {
            self.poll_shard(idx, now, rng, &mut out);
        }
        out
    }

    /// Advance one shard's timers to `now` (workers poll only the
    /// shards they own).
    pub fn poll_shard(
        &self,
        idx: usize,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        // Lock-free fast path: nothing can be due before the cached
        // earliest deadline, and workers call this once per loop
        // iteration — skipping the write lock here is what keeps the
        // timer scan off the per-datagram cost.
        if self.deadlines[idx].load(Ordering::Acquire) > now.micros() {
            return;
        }
        let mut fired = Vec::new();
        let mut guard = self.shards.write(idx);
        let shard = &mut *guard;
        shard.wheel.advance(now, &mut fired);
        if fired.is_empty() {
            self.cache_deadline(idx, shard);
            return;
        }
        self.metrics
            .timer_fires
            .fetch_add(fired.len() as u64, Ordering::Relaxed);
        let mut staged: Vec<(SocketAddr, Vec<Packet>)> = Vec::new();
        let mut dead: Vec<FlowKey> = Vec::new();
        let mut to_freeze: Vec<FlowKey> = Vec::new();
        for key in fired {
            let Some(entry) = shard.flows.get_mut(&key) else {
                continue;
            };
            match &mut entry.state {
                FlowState::Connecting {
                    wire,
                    backoff,
                    next_resend,
                    ..
                } => {
                    if now < *next_resend {
                        shard.wheel.schedule(*next_resend, key);
                        continue;
                    }
                    if backoff.attempts() > self.cfg.handshake_retries {
                        dead.push(key);
                        continue;
                    }
                    self.push_bytes(out, key.peer, wire);
                    *next_resend = now.plus_micros(backoff.next_delay(rng).as_micros() as u64);
                    shard.wheel.schedule(*next_resend, key);
                }
                FlowState::Host {
                    assoc,
                    inflight_since,
                    adapt,
                    last_seen,
                    idle_deadline,
                    renewal,
                } => {
                    // A wheel fire is just a wake-up; the flow decides
                    // which of its deadlines (renewal, idle check,
                    // protocol poll) is actually due.
                    if let RenewalSlot::Scheduled(due) = *renewal {
                        if due <= now && assoc.signer().is_idle() {
                            if self.pacer.lock().admit(now.micros()) {
                                match assoc.begin_renewal(now, rng) {
                                    Ok((offer, s1)) => {
                                        *renewal = RenewalSlot::Offered(Box::new(offer));
                                        *inflight_since = Some(now);
                                        self.metrics
                                            .store
                                            .renewals_started
                                            .fetch_add(1, Ordering::Relaxed);
                                        staged.push((key.peer, vec![s1]));
                                    }
                                    Err(_) => *renewal = RenewalSlot::Idle,
                                }
                            } else {
                                // Pacer said not now: back off with the
                                // flow's own jitter so the herd spreads
                                // instead of re-stampeding.
                                let retry = now.plus_micros(
                                    100_000 + self.pacer.lock().jitter_us(key.stable_hash()),
                                );
                                *renewal = RenewalSlot::Scheduled(retry);
                                shard.wheel.schedule(retry, key);
                                self.metrics
                                    .store
                                    .renewals_deferred
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                        } else if due <= now {
                            // Signer busy mid-exchange; revisit soon.
                            let retry = now.plus_micros(100_000);
                            *renewal = RenewalSlot::Scheduled(retry);
                            shard.wheel.schedule(retry, key);
                        }
                    }
                    if self.cfg.hibernate_after.is_some() && *idle_deadline <= now {
                        // The armed idle entry has fired; freeze if the
                        // flow really has been quiet, otherwise re-arm
                        // at the honest next idle deadline.
                        let idle_us = self.cfg.hibernate_after.unwrap_or(0);
                        let idle_due = last_seen.plus_micros(idle_us);
                        if idle_due <= now
                            && assoc.signer().is_idle()
                            && !matches!(renewal, RenewalSlot::Offered(_))
                        {
                            to_freeze.push(key);
                            continue;
                        }
                        // Mid-exchange flows retry after a full quiet
                        // period; active flows re-arm at last_seen + h.
                        let t = idle_due.max(now.plus_micros(idle_us.max(1)));
                        *idle_deadline = t;
                        shard.wheel.schedule(t, key);
                    }
                    let Some(due) = assoc.poll_at() else {
                        continue;
                    };
                    if due > now {
                        shard.wheel.schedule(due, key);
                        continue;
                    }
                    let resp = assoc.poll(now);
                    if inflight_since.is_some() && assoc.signer().is_idle() {
                        // Allowlist: guarded by `is_some()` on the line above.
                        let started = inflight_since.take().expect("checked above");
                        self.metrics.rtt_us.record(now.since(started));
                    }
                    if let Some(a) = adapt.as_mut() {
                        let before = a.switches_total();
                        a.observe(&resp.packets, &resp.signer_events);
                        self.metrics
                            .adapt_switches
                            .fetch_add(a.switches_total() - before, Ordering::Relaxed);
                    }
                    // A renewal S1 abandoned by the retry budget frees
                    // the slot for a future (re-jittered) attempt.
                    if matches!(renewal, RenewalSlot::Offered(_))
                        && resp
                            .signer_events
                            .iter()
                            .any(|e| matches!(e, SignerEvent::ExchangeAbandoned))
                    {
                        *renewal = RenewalSlot::Idle;
                    }
                    out.delivered.extend(
                        resp.deliveries
                            .into_iter()
                            .map(|(seq, p)| (key.assoc_id, seq, p)),
                    );
                    if !resp.packets.is_empty() {
                        staged.push((key.peer, resp.packets));
                    }
                    if let Some(t) = assoc.poll_at() {
                        shard.wheel.schedule(t, key);
                    }
                }
                FlowState::Hibernated => {}
                FlowState::Relay { .. } => {}
            }
        }
        for key in dead {
            shard.flows.remove(&key);
            self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
        }
        let mut evicted = Vec::new();
        for key in to_freeze {
            evicted.extend(self.freeze_flow(shard, key, now));
        }
        self.cache_deadline(idx, shard);
        drop(guard);
        self.reap_evicted(evicted);
        for (dst, packets) in staged {
            self.push_packets(out, dst, &packets);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Per-flow adaptation snapshots (sorted by peer then association,
    /// capped at `limit` entries). Empty when adaptation is disabled.
    fn adapt_snapshots(&self, limit: usize) -> Vec<serde::Value> {
        let mut rows: Vec<(String, u64, serde::Value)> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.read();
            for (key, entry) in &shard.flows {
                if let FlowState::Host { adapt: Some(a), .. } = &entry.state {
                    rows.push((key.peer.to_string(), key.assoc_id, a.snapshot()));
                }
            }
        }
        rows.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        rows.truncate(limit);
        rows.into_iter()
            .map(|(peer, assoc_id, snap)| {
                serde::Value::object([
                    ("peer".to_owned(), serde::Value::Str(peer)),
                    ("assoc_id".to_owned(), serde::Value::U64(assoc_id)),
                    ("adapt".to_owned(), snap),
                ])
            })
            .collect()
    }

    /// Snapshot engine state + metrics as a JSON value. When adaptation
    /// is enabled, `adapt_flows` carries per-flow controller state (up
    /// to 64 flows, sorted by peer address).
    #[must_use]
    pub fn snapshot(&self) -> serde::Value {
        serde::Value::object([
            (
                "flows".to_owned(),
                serde::Value::U64(self.flow_count() as u64),
            ),
            (
                "shards".to_owned(),
                serde::Value::U64(self.shards.len() as u64),
            ),
            (
                "buffered_bytes".to_owned(),
                serde::Value::I64(self.buffered.load(Ordering::Relaxed)),
            ),
            (
                "digest_backend".to_owned(),
                serde::Value::Str(alpha_crypto::backend::active().name().to_owned()),
            ),
            (
                "udp_backend".to_owned(),
                serde::Value::Str(self.metrics.io.backend_name().to_owned()),
            ),
            (
                "wait_backend".to_owned(),
                serde::Value::Str(self.metrics.io.wait_backend_name().to_owned()),
            ),
            (
                "chain_storage".to_owned(),
                serde::Value::Str(chainstore::name(self.cfg.protocol.chain_storage).to_owned()),
            ),
            (
                "adapt_flows".to_owned(),
                serde::Value::Array(self.adapt_snapshots(64)),
            ),
            ("runtime".to_owned(), self.runtime_snapshot()),
            ("metrics".to_owned(), self.metrics.snapshot()),
        ])
    }

    /// Live-runtime ownership + lock-discipline snapshot: which worker
    /// owns each shard (null = unclaimed) and how many counted lock
    /// acquisitions ever found a shard held by another thread. A
    /// healthy share-nothing runtime keeps `lock_contended` at (or
    /// within noise of) zero.
    fn runtime_snapshot(&self) -> serde::Value {
        let owners = self.owners.snapshot();
        let claimed = owners.iter().filter(|o| o.is_some()).count() as u64;
        serde::Value::object([
            (
                "lock_contended".to_owned(),
                serde::Value::U64(self.shards.contended()),
            ),
            ("shards_claimed".to_owned(), serde::Value::U64(claimed)),
            (
                "shard_owners".to_owned(),
                serde::Value::Array(
                    owners
                        .into_iter()
                        .map(|o| match o {
                            Some(w) => serde::Value::U64(u64::from(w)),
                            None => serde::Value::Null,
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Snapshot rendered as a JSON string.
    #[must_use]
    pub fn stats_json(&self) -> String {
        // Allowlist: serialising an in-memory value we just built; no
        // network input reaches this.
        serde_json::to_string(&self.snapshot()).expect("stats serialize")
    }
}

/// Map a host-side protocol rejection onto the drop taxonomy.
fn protocol_drop_reason(e: ProtocolError) -> DropReason {
    match e {
        ProtocolError::Chain(_) => DropReason::BadChainElement,
        ProtocolError::BadMac | ProtocolError::BadAuth => DropReason::BadMac,
        ProtocolError::UnexpectedPacket | ProtocolError::NoExchange => DropReason::Unsolicited,
        ProtocolError::WrongAssociation => DropReason::UnknownAssociation,
        _ => DropReason::Malformed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_crypto::Algorithm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> EngineConfig {
        EngineConfig::new(Config::new(Algorithm::Sha1).with_chain_len(64))
    }

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    /// Drive two engines against each other in memory: `a`'s datagrams
    /// to `a_addr`'s counterpart are handed to `b` and vice versa.
    fn pump(
        a: &EngineCore,
        a_addr: SocketAddr,
        b: &EngineCore,
        b_addr: SocketAddr,
        mut pending: Vec<(SocketAddr, Frame)>,
        now: Timestamp,
        rng: &mut StdRng,
    ) -> (EngineOutput, EngineOutput) {
        let mut out_a = EngineOutput::default();
        let mut out_b = EngineOutput::default();
        let mut hops = 0;
        while !pending.is_empty() {
            hops += 1;
            assert!(hops < 64, "in-memory exchange did not converge");
            let mut next = Vec::new();
            for (dst, bytes) in pending.drain(..) {
                let o = if dst == a_addr {
                    let o = a.handle_datagram(b_addr, &bytes, now, rng);
                    next.extend(o.datagrams.iter().cloned());
                    out_a.absorb(o);
                    continue;
                } else {
                    assert_eq!(dst, b_addr, "unexpected destination");
                    b.handle_datagram(a_addr, &bytes, now, rng)
                };
                next.extend(o.datagrams.iter().cloned());
                out_b.absorb(o);
            }
            pending = next;
        }
        (out_a, out_b)
    }

    #[test]
    fn connect_accept_and_exchange_in_memory() {
        let client = EngineCore::new(cfg());
        let server = EngineCore::new(cfg());
        let ca = addr(1000);
        let sa = addr(2000);
        let mut rng = StdRng::seed_from_u64(7);
        let now = Timestamp::from_millis(1);

        let (key, out) = client.connect(sa, 42, now, &mut rng);
        let (from_client, from_server) =
            pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
        assert_eq!(
            from_client.completed,
            vec![key],
            "client handshake completed"
        );
        assert_eq!(from_server.completed.len(), 1, "server stood up the flow");
        assert_eq!(client.flow_count(), 1);
        assert_eq!(server.flow_count(), 1);
        assert_eq!(server.metrics().handshakes.load(Ordering::Relaxed), 1);

        let out = client
            .sign_batch(key, &[b"engine hello".as_slice()], Mode::Base, now)
            .expect("sign");
        let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
        assert_eq!(from_server.delivered.len(), 1);
        assert_eq!(from_server.delivered[0].2, b"engine hello");
        assert!(client.flow_is_idle(key), "exchange finished");
        assert_eq!(client.metrics().rtt_us.count(), 1, "RTT sampled");
    }

    #[test]
    fn owned_steady_state_s2_path_zero_contended_locks() {
        // The share-nothing claim, pinned: when the receiving worker
        // owns the flow's shard (single-toucher via handoff rings), the
        // steady-state S2 verify path acquires zero *shared* (blocking,
        // contended) locks — and in debug builds the per-thread lock
        // counter bounds the uncontended CAS acquisitions to the
        // documented budget of at most two per datagram (kind peek +
        // state update).
        let client = EngineCore::new(cfg());
        let server = EngineCore::new(cfg());
        let ca = addr(1310);
        let sa = addr(2310);
        let mut rng = StdRng::seed_from_u64(99);
        let now = Timestamp::from_millis(1);
        let (key, out) = client.connect(sa, 77, now, &mut rng);
        let _ = pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);

        // The live runtime's first-receiver claim.
        let shard = server.shard_of_source(ca);
        assert_eq!(server.claim_shard(shard, 0), 0);
        assert_eq!(server.shard_owner(shard), Some(0));

        // Stage one steady-state exchange by hand: S1 -> A1 -> S2.
        let batch_of = |from: SocketAddr, out: &EngineOutput| -> Vec<(SocketAddr, Vec<u8>)> {
            out.datagrams
                .iter()
                .map(|(_, b)| (from, b.to_vec()))
                .collect()
        };
        let s1 = client
            .sign_batch(key, &[b"steady-state".as_slice()], Mode::Base, now)
            .expect("sign");
        let s1b = batch_of(ca, &s1);
        let s1r: Vec<(SocketAddr, &[u8])> = s1b.iter().map(|(a, b)| (*a, &b[..])).collect();
        let a1 = server.handle_datagrams(&s1r, now, &mut rng);
        let a1b = batch_of(sa, &a1);
        let a1r: Vec<(SocketAddr, &[u8])> = a1b.iter().map(|(a, b)| (*a, &b[..])).collect();
        let s2 = client.handle_datagrams(&a1r, now, &mut rng);
        assert!(!s2.datagrams.is_empty(), "client staged its S2");

        // Measure the S2 verify path alone, as the owning worker.
        crate::shard::reset_thread_lock_count();
        let contended_before = server.lock_contended();
        let s2b = batch_of(ca, &s2);
        let s2r: Vec<(SocketAddr, &[u8])> = s2b.iter().map(|(a, b)| (*a, &b[..])).collect();
        let out = server.handle_datagrams(&s2r, now, &mut rng);
        assert_eq!(out.delivered.len(), 1, "payload delivered");
        assert_eq!(
            server.lock_contended() - contended_before,
            0,
            "owned S2 path is contention-free"
        );
        #[cfg(debug_assertions)]
        {
            let taken = crate::shard::locks_taken_on_thread();
            assert!(
                taken >= 1 && taken <= 2 * s2r.len() as u64,
                "single-toucher lock budget: {taken} acquisitions for {} datagrams",
                s2r.len()
            );
        }
        // The runtime snapshot carries the same discipline counters.
        let snap = server.snapshot();
        let runtime = snap.get("runtime").expect("runtime section");
        assert_eq!(
            runtime.get("lock_contended").and_then(serde::Value::as_u64),
            Some(server.lock_contended())
        );
        assert_eq!(
            runtime.get("shards_claimed").and_then(serde::Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn host_exchange_hash_cost_is_constant_on_default_chains() {
        // The default 1024-element chains resolve to √n storage. A host
        // discloses an A1 pair from its acknowledgment chain on every S1;
        // that must read the cached cursor segment, not recompute up to
        // ⌈√n⌉ − 1 hashes per element from the checkpoint below.
        let default_cfg = || EngineConfig::new(Config::new(Algorithm::Sha1));
        assert_eq!(
            default_cfg().protocol.chain_storage,
            alpha_core::ChainStorage::Sqrt,
            "default chains are expected in √n storage"
        );
        let client = EngineCore::new(default_cfg());
        let server = EngineCore::new(default_cfg());
        let ca = addr(1320);
        let sa = addr(2320);
        let mut rng = StdRng::seed_from_u64(64);
        let now = Timestamp::from_millis(1);
        let (key, out) = client.connect(sa, 64, now, &mut rng);
        let _ = pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);

        let exchanges = 64u64;
        let mut host_hashes = 0u64;
        for i in 0..exchanges {
            let payload = format!("exchange {i}");
            let s1 = client
                .sign_batch(key, &[payload.as_bytes()], Mode::Base, now)
                .expect("sign");
            let scope = alpha_crypto::counting::Scope::start();
            let mut a1 = EngineOutput::default();
            for (_, bytes) in &s1.datagrams {
                a1.absorb(server.handle_datagram(ca, bytes, now, &mut rng));
            }
            host_hashes += scope.finish().invocations;
            let mut s2 = EngineOutput::default();
            for (_, bytes) in &a1.datagrams {
                s2.absorb(client.handle_datagram(sa, bytes, now, &mut rng));
            }
            let scope = alpha_crypto::counting::Scope::start();
            let mut delivered = EngineOutput::default();
            for (_, bytes) in &s2.datagrams {
                delivered.absorb(server.handle_datagram(ca, bytes, now, &mut rng));
            }
            host_hashes += scope.finish().invocations;
            assert_eq!(delivered.delivered.len(), 1, "exchange {i} delivered");
            assert_eq!(delivered.delivered[0].2, payload.as_bytes());
        }
        let per_exchange = host_hashes as f64 / exchanges as f64;
        assert!(
            per_exchange <= 8.0,
            "host hashes per S1→S2 exchange: {per_exchange:.2} (total {host_hashes})"
        );
    }

    #[test]
    fn relay_flow_verifies_and_forwards() {
        let client = EngineCore::new(cfg());
        let server = EngineCore::new(cfg());
        let relay = EngineCore::new(cfg());
        let ca = addr(1100);
        let sa = addr(2100);
        relay.add_route(ca, sa);
        let mut rng = StdRng::seed_from_u64(8);
        let now = Timestamp::from_millis(1);

        // Every datagram passes through the relay engine.
        let relay_hop =
            |pending: Vec<(SocketAddr, Frame)>, rng: &mut StdRng| -> Vec<(SocketAddr, Frame)> {
                let mut forwarded = Vec::new();
                for (dst, bytes) in pending {
                    let from = if dst == sa { ca } else { sa };
                    let o = relay.handle_datagram(from, &bytes, now, rng);
                    forwarded.extend(o.datagrams);
                }
                forwarded
            };

        let (key, out) = client.connect(sa, 9, now, &mut rng);
        let mut pending = relay_hop(out.datagrams, &mut rng);
        let mut done = false;
        for _ in 0..16 {
            if pending.is_empty() {
                break;
            }
            let mut next = Vec::new();
            for (dst, bytes) in pending.drain(..) {
                let o = if dst == sa {
                    server.handle_datagram(ca, &bytes, now, &mut rng)
                } else {
                    client.handle_datagram(sa, &bytes, now, &mut rng)
                };
                done |= !o.completed.is_empty() && o.completed[0] == key;
                next.extend(relay_hop(o.datagrams, &mut rng));
            }
            pending = next;
        }
        assert!(done, "handshake completed through the relay");
        assert_eq!(relay.flow_count(), 1, "one relay flow for the pair");

        let out = client
            .sign_batch(key, &[b"via relay".as_slice()], Mode::Base, now)
            .unwrap();
        let mut pending = relay_hop(out.datagrams, &mut rng);
        for _ in 0..16 {
            if pending.is_empty() {
                break;
            }
            let mut next = Vec::new();
            for (dst, bytes) in pending.drain(..) {
                let o = if dst == sa {
                    server.handle_datagram(ca, &bytes, now, &mut rng)
                } else {
                    client.handle_datagram(sa, &bytes, now, &mut rng)
                };
                next.extend(relay_hop(o.datagrams, &mut rng));
            }
            pending = next;
        }
        assert_eq!(relay.metrics().s2_verified.load(Ordering::Relaxed), 1);
        assert_eq!(server.metrics().s2_verified.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn mesh_filter_rejects_unregistered_sources() {
        let relay = EngineCore::new(cfg());
        let ca = addr(1150);
        let sa = addr(2150);
        let intruder = addr(6666);
        relay.add_route(ca, sa);
        relay.mesh_register_peer(ca);
        relay.mesh_register_peer(sa);
        relay.mesh_enable(true);
        let mut rng = StdRng::seed_from_u64(21);
        let now = Timestamp::from_millis(1);

        // A legitimate HS1 from the registered upstream passes.
        let client = EngineCore::new(cfg());
        let (_key, out) = client.connect(sa, 9, now, &mut rng);
        let hs1 = out.datagrams[0].1.clone();
        let o = relay.handle_datagram(ca, &hs1, now, &mut rng);
        assert_eq!(o.datagrams.len(), 1, "registered upstream forwarded");

        // The same bytes from an unregistered source are rejected
        // before any flow-table work.
        let flows_before = relay.flow_count();
        let o = relay.handle_datagram(intruder, &hs1, now, &mut rng);
        assert!(o.datagrams.is_empty(), "bypass attempt not forwarded");
        assert_eq!(relay.flow_count(), flows_before, "no flow stood up");
        assert_eq!(
            relay
                .metrics()
                .mesh
                .upstream_rejects
                .load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn mesh_replicates_handshakes_and_standby_absorbs_learn_only() {
        let client = EngineCore::new(cfg());
        let server = EngineCore::new(cfg());
        let relay = EngineCore::new(cfg());
        let standby = EngineCore::new(cfg());
        let ca = addr(1160);
        let sa = addr(2160);
        let sb = addr(3160);
        relay.add_route(ca, sa);
        relay.mesh_add_standby(sb);
        standby.add_route(ca, sa);
        let mut rng = StdRng::seed_from_u64(22);
        let now = Timestamp::from_millis(1);

        // HS1 through the relay: forwarded to the server AND replicated
        // (wrapped) to the standby.
        let (key, out) = client.connect(sa, 11, now, &mut rng);
        let o = relay.handle_datagram(ca, &out.datagrams[0].1, now, &mut rng);
        let fwd: Vec<_> = o.datagrams.iter().filter(|(d, _)| *d == sa).collect();
        let rep: Vec<_> = o.datagrams.iter().filter(|(d, _)| *d == sb).collect();
        assert_eq!((fwd.len(), rep.len()), (1, 1));
        let inner_hs1 = mesh::parse_replica(&rep[0].1)
            .expect("replica wrapped")
            .to_vec();
        standby.absorb_replica(ca, &inner_hs1, now, &mut rng);

        // HS2 back through the relay: same replication, then both the
        // client and the standby see it.
        let o2 = server.handle_datagram(ca, &fwd[0].1, now, &mut rng);
        let o3 = relay.handle_datagram(sa, &o2.datagrams[0].1, now, &mut rng);
        let fwd2: Vec<_> = o3.datagrams.iter().filter(|(d, _)| *d == ca).collect();
        let rep2: Vec<_> = o3.datagrams.iter().filter(|(d, _)| *d == sb).collect();
        assert_eq!((fwd2.len(), rep2.len()), (1, 1));
        let inner_hs2 = mesh::parse_replica(&rep2[0].1)
            .expect("replica wrapped")
            .to_vec();
        standby.absorb_replica(ca, &inner_hs2, now, &mut rng);
        client.handle_datagram(sa, &fwd2[0].1, now, &mut rng);
        assert_eq!(
            standby
                .metrics()
                .mesh
                .replicas_absorbed
                .load(Ordering::Relaxed),
            2
        );
        assert_eq!(standby.flow_count(), 1, "standby learned the pair");

        // The standby can now verify live traffic it never handshook:
        // an S2 bundle fed straight at it passes verification.
        let out = client
            .sign_batch(key, &[b"failover data".as_slice()], Mode::Base, now)
            .unwrap();
        let o = standby.handle_datagram(ca, &out.datagrams[0].1, now, &mut rng);
        assert_eq!(o.datagrams.len(), 1, "S1 forwarded by the standby");
        assert_eq!(
            standby.metrics().handshakes.load(Ordering::Relaxed),
            1,
            "association learned from replicas alone"
        );
    }

    #[test]
    fn reroute_moves_relay_pair_with_buffered_state() {
        // Addresses chosen so the canonical pair key IS the old next
        // hop: reroute must re-key the relay flow, preserving buffered
        // pre-signatures.
        let client = EngineCore::new(cfg());
        let server = EngineCore::new(cfg());
        let relay = EngineCore::new(cfg());
        let ca = addr(2170); // client ranks ABOVE both next hops
        let sa = addr(1170); // primary next hop = canonical left
        let sa2 = addr(1171); // standby next hop
        relay.add_route(ca, sa);
        let mut rng = StdRng::seed_from_u64(23);
        let now = Timestamp::from_millis(1);

        // Handshake + one buffered S1 through the relay.
        let (key, _out) = relay_pair_handshake(&client, &server, &relay, ca, sa, now, &mut rng);
        let s1 = client
            .sign_batch(key, &[b"inflight".as_slice()], Mode::Base, now)
            .unwrap()
            .datagrams
            .remove(0)
            .1;
        relay.handle_datagram(ca, &s1, now, &mut rng);
        let buffered = relay.buffered_bytes();
        assert!(buffered > 0, "pre-signature buffered before failover");

        // Failover: the pair's flow moves to the new canonical key with
        // its buffered state intact, and forwarding retargets sa2.
        let moved = relay.reroute(sa, sa2);
        assert_eq!(moved, 1, "one relay flow moved");
        assert_eq!(relay.buffered_bytes(), buffered, "buffer state moved");
        assert_eq!(relay.metrics().mesh.failovers.load(Ordering::Relaxed), 1);
        let o = relay.handle_datagram(ca, &s1, now, &mut rng);
        assert!(
            o.datagrams.iter().all(|(d, _)| *d == sa2),
            "traffic re-routed to the standby"
        );
        // Reverse direction follows the back-pointer.
        let o2 = server.handle_datagram(ca, &s1, now, &mut rng);
        for (_, frame) in o2.datagrams {
            let o = relay.handle_datagram(sa2, &frame, now, &mut rng);
            assert!(o.datagrams.iter().all(|(d, _)| *d == ca));
        }
    }

    #[test]
    fn reroute_moves_host_flows_to_new_peer() {
        // Verifier-side failover: established host flows keyed to the
        // old upstream re-key to the new one and keep delivering.
        let client = EngineCore::new(cfg());
        let server = EngineCore::new(cfg());
        let ca = addr(1180);
        let ca2 = addr(1181);
        let sa = addr(2180);
        let mut rng = StdRng::seed_from_u64(24);
        let now = Timestamp::from_millis(1);
        let (key, out) = client.connect(sa, 31, now, &mut rng);
        pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
        assert_eq!(server.flow_count(), 1);

        let moved = server.reroute(ca, ca2);
        assert_eq!(moved, 1, "host flow moved to the new peer key");
        // Traffic now arrives from ca2 (the standby path) and is
        // handled by the moved association; replies target ca2.
        let out = client
            .sign_batch(key, &[b"after failover".as_slice()], Mode::Base, now)
            .unwrap();
        let mut pending = out.datagrams;
        let mut delivered = 0;
        for _ in 0..16 {
            if pending.is_empty() {
                break;
            }
            let mut next = Vec::new();
            for (dst, frame) in pending.drain(..) {
                if dst == sa {
                    let o = server.handle_datagram(ca2, &frame, now, &mut rng);
                    delivered += o.delivered.len();
                    assert!(o.datagrams.iter().all(|(d, _)| *d == ca2));
                    next.extend(o.datagrams);
                } else {
                    assert_eq!(dst, ca2, "server replies to the new peer");
                    let o = client.handle_datagram(sa, &frame, now, &mut rng);
                    next.extend(o.datagrams);
                }
            }
            pending = next;
        }
        assert_eq!(delivered, 1, "flow completed after the move");
    }

    /// Complete a handshake for `client`→`server` through `relay`
    /// (routed `ca`↔`sa`), returning the client's flow key.
    fn relay_pair_handshake(
        client: &EngineCore,
        server: &EngineCore,
        relay: &EngineCore,
        ca: SocketAddr,
        sa: SocketAddr,
        now: Timestamp,
        rng: &mut StdRng,
    ) -> (FlowKey, EngineOutput) {
        let (key, out) = client.connect(sa, 13, now, rng);
        let o = relay.handle_datagram(ca, &out.datagrams[0].1, now, rng);
        let o2 = server.handle_datagram(ca, &o.datagrams[0].1, now, rng);
        let o3 = relay.handle_datagram(sa, &o2.datagrams[0].1, now, rng);
        let out = client.handle_datagram(sa, &o3.datagrams[0].1, now, rng);
        assert_eq!(out.completed, vec![key], "handshake completed via relay");
        (key, out)
    }

    #[test]
    fn tx_frames_recycle_through_the_pool() {
        let client = EngineCore::new(cfg());
        let server = EngineCore::new(cfg());
        let ca = addr(1600);
        let sa = addr(2600);
        let mut rng = StdRng::seed_from_u64(13);
        let now = Timestamp::from_millis(1);
        let (key, out) = client.connect(sa, 4, now, &mut rng);
        pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
        // Each exchange checks frames out of both engines' pools and the
        // pump drops them again: steady state must reuse, not allocate.
        for i in 0..8u8 {
            let out = client
                .sign_batch(key, &[[i; 16].as_slice()], Mode::Base, now)
                .expect("sign");
            pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
        }
        for (name, core) in [("client", &client), ("server", &server)] {
            let s = core.frame_pool().stats();
            assert!(s.returned > 0, "{name} frames returned, got {s:?}");
            assert!(s.reused > 0, "{name} frames reused, got {s:?}");
        }
    }

    #[test]
    fn handshake_resends_use_backoff_and_give_up() {
        let client = EngineCore::new(cfg());
        let sa = addr(2200);
        let mut rng = StdRng::seed_from_u64(9);
        let (_key, out) = client.connect(sa, 5, Timestamp::from_millis(1), &mut rng);
        assert_eq!(out.datagrams.len(), 1, "HS1 sent immediately");
        // No reply ever arrives: polling far in the future must resend
        // (with growing gaps) and eventually abandon the flow.
        let mut resends = 0;
        let mut t = Timestamp::from_millis(1);
        for _ in 0..4000 {
            t = t.plus_micros(20_000);
            let o = client.poll(t, &mut rng);
            resends += o.datagrams.len();
            if client.flow_count() == 0 {
                break;
            }
        }
        assert!(
            resends > 3,
            "multiple resends before giving up, got {resends}"
        );
        assert!(
            resends <= client.config().handshake_retries as usize + 1,
            "bounded by the retry budget, got {resends}"
        );
        assert_eq!(client.flow_count(), 0, "abandoned flow was reaped");
    }

    #[test]
    fn admission_limiter_sheds_s1_floods() {
        let mut c = cfg();
        c.s1_bytes_per_sec = Some(512); // tiny budget
        let server = EngineCore::new(c);
        let client = EngineCore::new(cfg());
        let ca = addr(1300);
        let sa = addr(2300);
        let mut rng = StdRng::seed_from_u64(10);
        let now = Timestamp::from_millis(1);
        let (key, out) = client.connect(sa, 77, now, &mut rng);
        pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
        // Replay one S1 far past the 512 B/s budget: the engine must
        // start shedding without write-locking the shard.
        let s1 = client
            .sign_batch(key, &[b"flood".as_slice()], Mode::Base, now)
            .unwrap()
            .datagrams
            .remove(0)
            .1;
        for _ in 0..64 {
            server.handle_datagram(ca, &s1, now, &mut rng);
        }
        let shed = server.metrics().admission_drops.load(Ordering::Relaxed);
        assert!(shed > 32, "flood was shed by admission, got {shed}");
    }

    #[test]
    fn backpressure_valve_sheds_when_buffers_full() {
        let mut c = cfg();
        c.max_buffered_bytes = Some(0); // valve closed as soon as anything buffers
        let relay = EngineCore::new(c);
        let client = EngineCore::new(cfg());
        let ca = addr(1400);
        let sa = addr(2400);
        relay.add_route(ca, sa);
        let mut rng = StdRng::seed_from_u64(11);
        let now = Timestamp::from_millis(1);
        // Learn the association at the relay via the handshake pair.
        let (key, out) = client.connect(sa, 3, now, &mut rng);
        let hs1 = out.datagrams[0].1.clone();
        let o = relay.handle_datagram(ca, &hs1, now, &mut rng);
        // Fabricate the HS2 by letting a server engine answer.
        let server = EngineCore::new(cfg());
        let hs2 = server.handle_datagram(ca, &o.datagrams[0].1, now, &mut rng);
        relay.handle_datagram(sa, &hs2.datagrams[0].1, now, &mut rng);
        client.handle_datagram(sa, &hs2.datagrams[0].1, now, &mut rng);
        // First S1 buffers a pre-signature; gauge goes positive; the
        // next S1 must hit the valve.
        let s1a = client
            .sign_batch(key, &[b"one".as_slice()], Mode::Base, now)
            .unwrap()
            .datagrams
            .remove(0)
            .1;
        relay.handle_datagram(ca, &s1a, now, &mut rng);
        assert!(relay.buffered_bytes() > 0, "pre-signature buffered");
        relay.handle_datagram(ca, &s1a, now, &mut rng);
        assert!(
            relay.metrics().backpressure_drops.load(Ordering::Relaxed) >= 1,
            "valve shed the second S1"
        );
    }

    #[test]
    fn stats_json_roundtrips() {
        let engine = EngineCore::new(cfg());
        let v: serde::Value = serde_json::from_str(&engine.stats_json()).unwrap();
        assert_eq!(v.get("flows").unwrap().as_u64(), Some(0));
        assert!(v.get("metrics").unwrap().get("packets_in").is_some());
    }

    #[test]
    fn adaptive_flow_escalates_under_loss_and_reports_in_snapshot() {
        let proto = Config::new(Algorithm::Sha1).with_chain_len(512);
        let acfg = alpha_adapt::AdaptConfig {
            dwell: 2,
            ..alpha_adapt::AdaptConfig::default()
        };
        let client = EngineCore::new(EngineConfig::new(proto).with_adapt(acfg));
        let server = EngineCore::new(EngineConfig::new(proto));
        let ca = addr(1500);
        let sa = addr(2500);
        let mut rng = StdRng::seed_from_u64(12);
        let mut now = Timestamp::from_millis(1);

        let (key, out) = client.connect(sa, 21, now, &mut rng);
        pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);

        // Clean phase: offer a full buffer each exchange; AIMD must walk
        // the bundle size up to the cap on the Cumulative rung.
        let msgs: Vec<Vec<u8>> = (0..acfg.max_n).map(|i| vec![i as u8; 32]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mut last_take = 0;
        for _ in 0..12 {
            now = now.plus_micros(10_000);
            let (take, out) = client.sign_adaptive(key, &refs, now).expect("sign");
            last_take = take;
            pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
            assert!(client.flow_is_idle(key), "clean exchange must finish");
        }
        assert_eq!(last_take, acfg.max_n, "AIMD grew the bundle to the cap");
        client
            .with_adapt(key, |a| {
                assert_eq!(a.decision().kind, alpha_adapt::ModeKind::Cumulative);
                assert!(a.estimator().srtt_us().is_some(), "RTT sampled");
            })
            .expect("adaptive flow state");

        // Loss phase: sign and then drop every datagram on the floor; the
        // signer retries through the timer wheel until it abandons, and
        // each abandoned exchange drives the loss estimate up the ladder.
        for _ in 0..10 {
            now = now.plus_micros(10_000);
            let (_take, _out) = client.sign_adaptive(key, &refs, now).expect("sign");
            let mut spins = 0;
            while !client.flow_is_idle(key) {
                now = now.plus_micros(250_000);
                let _ = client.poll(now, &mut rng); // datagrams dropped
                spins += 1;
                assert!(spins < 200, "exchange never abandoned");
            }
        }
        let (kind, n) = client
            .with_adapt(key, |a| (a.decision().kind, a.decision().n))
            .expect("adaptive flow state");
        assert_eq!(
            kind,
            alpha_adapt::ModeKind::Merkle,
            "sustained loss tops out the ladder"
        );
        assert!(n <= acfg.merkle_max_n);
        assert!(
            client.metrics().adapt_switches.load(Ordering::Relaxed) >= 2,
            "switches surfaced in metrics"
        );

        // The JSON snapshot carries the per-flow controller state.
        let snap: serde::Value = serde_json::from_str(&client.stats_json()).unwrap();
        let flows = snap.get("adapt_flows").unwrap();
        let serde::Value::Array(rows) = flows else {
            panic!("adapt_flows should be an array")
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("assoc_id").unwrap().as_u64(), Some(21));
        let adapt = rows[0].get("adapt").unwrap();
        assert_eq!(adapt.get("mode").unwrap().as_str(), Some("merkle"));
        assert!(adapt.get("switches").unwrap().as_u64().unwrap() >= 2);
        // An engine without adaptation reports an empty array.
        let snap: serde::Value = serde_json::from_str(&server.stats_json()).unwrap();
        let serde::Value::Array(rows) = snap.get("adapt_flows").unwrap() else {
            panic!("adapt_flows should be an array")
        };
        assert!(rows.is_empty());
    }

    /// Store metric loads, in one tuple: (frozen, thawed, evicted,
    /// thaw_rejected).
    fn store_counts(e: &EngineCore) -> (u64, u64, u64, u64) {
        let s = &e.metrics().store;
        (
            s.frozen.load(Ordering::Relaxed),
            s.thawed.load(Ordering::Relaxed),
            s.evicted.load(Ordering::Relaxed),
            s.thaw_rejected.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn idle_flow_hibernates_and_wakes_on_next_datagram() {
        let client = EngineCore::new(cfg());
        let server = EngineCore::new(cfg().with_hibernate_after(Some(50_000)));
        let ca = addr(1700);
        let sa = addr(2700);
        let mut rng = StdRng::seed_from_u64(31);
        let t0 = Timestamp::from_millis(1);

        let (key, out) = client.connect(sa, 42, t0, &mut rng);
        pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
        let out = client
            .sign_batch(key, &[b"before sleep".as_slice()], Mode::Base, t0)
            .unwrap();
        let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
        assert_eq!(from_server.delivered.len(), 1);

        // 60 ms of silence: the idle check fires and freezes the flow.
        let t1 = t0.plus_micros(60_000);
        let _ = server.poll(t1, &mut rng);
        assert_eq!(store_counts(&server), (1, 0, 0, 0), "flow froze");
        assert_eq!(server.flow_count(), 1, "tombstone stays in the table");
        let m = server.metrics();
        assert_eq!(m.store.flows_hibernated.load(Ordering::Relaxed), 1);
        assert!(m.store.bytes_frozen.load(Ordering::Relaxed) > 0);

        // The next datagram wakes it mid-stream: no handshake, same
        // verifier decisions, payload delivered.
        let t2 = t1.plus_micros(1_000);
        let out = client
            .sign_batch(key, &[b"after wake".as_slice()], Mode::Base, t2)
            .unwrap();
        let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t2, &mut rng);
        assert_eq!(from_server.delivered.len(), 1);
        assert_eq!(from_server.delivered[0].2, b"after wake");
        assert_eq!(store_counts(&server), (1, 1, 0, 0), "woke exactly once");
        let m = server.metrics();
        assert_eq!(m.store.flows_hibernated.load(Ordering::Relaxed), 0);
        assert_eq!(m.store.bytes_frozen.load(Ordering::Relaxed), 0);
        assert_eq!(m.store.thaw_latency_us.count(), 1);
        assert_eq!(
            m.handshakes.load(Ordering::Relaxed),
            1,
            "wake needed no re-handshake"
        );

        // The woken flow keeps working like it never slept.
        let out = client
            .sign_batch(key, &[b"steady state".as_slice()], Mode::Base, t2)
            .unwrap();
        let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t2, &mut rng);
        assert_eq!(from_server.delivered[0].2, b"steady state");
    }

    #[test]
    fn forged_datagram_cannot_force_a_thaw() {
        let client = EngineCore::new(cfg());
        let server = EngineCore::new(cfg().with_hibernate_after(Some(50_000)));
        let ca = addr(1710);
        let sa = addr(2710);
        let mut rng = StdRng::seed_from_u64(32);
        let t0 = Timestamp::from_millis(1);
        let (key, out) = client.connect(sa, 42, t0, &mut rng);
        pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
        let t1 = t0.plus_micros(60_000);
        let _ = server.poll(t1, &mut rng);
        assert_eq!(store_counts(&server), (1, 0, 0, 0), "flow frozen");

        // An attacker who observed the flow key forges an S1 from a
        // different association claiming the same id and source.
        let mallory = EngineCore::new(cfg());
        let decoy = EngineCore::new(cfg());
        let ma = addr(1711);
        let da = addr(2711);
        let (mkey, out) = mallory.connect(da, 42, t0, &mut rng);
        pump(&mallory, ma, &decoy, da, out.datagrams, t0, &mut rng);
        let forged = mallory
            .sign_batch(mkey, &[b"let me in".as_slice()], Mode::Base, t1)
            .unwrap()
            .datagrams;
        let t2 = t1.plus_micros(1_000);
        let o = server.handle_datagram(ca, &forged[0].1, t2, &mut rng);
        assert!(o.delivered.is_empty() && o.datagrams.is_empty());
        let (frozen, thawed, evicted, rejected) = store_counts(&server);
        assert_eq!(
            (frozen, thawed, evicted, rejected),
            (1, 0, 0, 1),
            "forgery bounced off the frozen record"
        );
        assert_eq!(server.flow_count(), 1, "tombstone intact");
        assert_eq!(
            server
                .metrics()
                .store
                .flows_hibernated
                .load(Ordering::Relaxed),
            1
        );

        // The record survived untouched: the real peer still wakes it.
        let out = client
            .sign_batch(key, &[b"genuine".as_slice()], Mode::Base, t2)
            .unwrap();
        let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t2, &mut rng);
        assert_eq!(from_server.delivered[0].2, b"genuine");
        assert_eq!(store_counts(&server), (1, 1, 0, 1));
    }

    #[test]
    fn frozen_budget_evicts_coldest_and_reaps_tombstones() {
        let client = EngineCore::new(cfg());
        // A one-byte budget cannot hold two records: each freeze evicts
        // the previous (soft budget keeps the newest resident).
        let server = EngineCore::new(
            cfg()
                .with_hibernate_after(Some(50_000))
                .with_frozen_budget(Some(1)),
        );
        let ca = addr(1720);
        let sa = addr(2720);
        let mut rng = StdRng::seed_from_u64(33);
        let t0 = Timestamp::from_millis(1);
        for id in 1..=3 {
            let (_, out) = client.connect(sa, id, t0, &mut rng);
            pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
        }
        assert_eq!(server.flow_count(), 3);

        let t1 = t0.plus_micros(60_000);
        let _ = server.poll(t1, &mut rng);
        let (frozen, _, evicted, _) = store_counts(&server);
        assert_eq!(frozen, 3, "all three idle flows froze");
        assert_eq!(evicted, 2, "budget kept only the newest record");
        assert_eq!(server.flow_count(), 1, "evicted tombstones were reaped");
        assert_eq!(
            server
                .metrics()
                .store
                .flows_hibernated
                .load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn chain_renewal_is_armed_jitter_free_and_commits() {
        let pacer = PacerConfig {
            max_jitter_us: 0,
            rate_per_sec: 256,
            burst: 64,
        };
        // renew_below above the whole chain: every completed exchange
        // arms a renewal, so one exchange is enough to trigger it.
        let client = EngineCore::new(cfg().with_renew_below(64).with_pacer(pacer));
        let server = EngineCore::new(cfg());
        let ca = addr(1730);
        let sa = addr(2730);
        let mut rng = StdRng::seed_from_u64(34);
        let t0 = Timestamp::from_millis(1);
        let (key, out) = client.connect(sa, 7, t0, &mut rng);
        pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
        let out = client
            .sign_batch(key, &[b"spend the chain".as_slice()], Mode::Base, t0)
            .unwrap();
        pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
        let before = client
            .with_association(key, |a| a.signer().remaining_exchanges())
            .unwrap();

        // The jitter-free renewal deadline is already due; the poll
        // starts it and the exchange commits the fresh chains.
        let t1 = t0.plus_micros(2_000);
        let out = client.poll(t1, &mut rng);
        assert!(!out.datagrams.is_empty(), "renewal S1 went out");
        pump(&client, ca, &server, sa, out.datagrams, t1, &mut rng);
        let m = client.metrics();
        assert_eq!(m.store.renewals_started.load(Ordering::Relaxed), 1);
        let after = client
            .with_association(key, |a| a.signer().remaining_exchanges())
            .unwrap();
        assert!(
            after > before,
            "renewal replenished the chain ({before} -> {after})"
        );
    }

    #[test]
    fn renewal_pacer_defers_when_bucket_is_empty() {
        let pacer = PacerConfig {
            max_jitter_us: 0,
            rate_per_sec: 0,
            burst: 0,
        };
        let client = EngineCore::new(cfg().with_renew_below(64).with_pacer(pacer));
        let server = EngineCore::new(cfg());
        let ca = addr(1740);
        let sa = addr(2740);
        let mut rng = StdRng::seed_from_u64(35);
        let t0 = Timestamp::from_millis(1);
        let (key, out) = client.connect(sa, 8, t0, &mut rng);
        pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
        let out = client
            .sign_batch(key, &[b"idle now".as_slice()], Mode::Base, t0)
            .unwrap();
        pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);

        let out = client.poll(t0.plus_micros(2_000), &mut rng);
        assert!(out.datagrams.is_empty(), "no renewal admitted");
        let m = client.metrics();
        assert_eq!(m.store.renewals_started.load(Ordering::Relaxed), 0);
        assert!(m.store.renewals_deferred.load(Ordering::Relaxed) >= 1);
    }
}
