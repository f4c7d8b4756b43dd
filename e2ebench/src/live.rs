//! The untraced live run: the engine's own worker loop
//! (`alpha_transport::Engine`, one worker) against the generator over
//! loopback sockets, through set-up, warm-up, the fixed-rate window, the
//! saturation window and the drain.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use alpha_core::DropReason;
use alpha_engine::{EngineConfig, EngineCore, EngineMetrics, IoTotals};
use alpha_transport::{DeliverySink, Engine};

use crate::gen::Gen;
use crate::stats::{engine_thread_cpu_ns, heap_bytes, own_cpu_ns, rss_bytes, udp_drops};
use crate::workload::{Role, Schedule};

/// A host delivery as the sink reports it: time, association, sequence
/// number, payload length and payload bytes.
type Delivery = (u64, u64, u32, u8, [u8; MAX_HOST_PAYLOAD]);
/// Largest payload a host workload delivers.
const MAX_HOST_PAYLOAD: usize = 64;
/// Deliveries the sink can queue ahead of the generator.
const DELIVERY_QUEUE: usize = 4096;

/// Engine worker threads: with one, server and generator fit two cores.
pub const WORKERS: usize = 1;
/// HS1s in flight during set-up.
pub const HS_WINDOW: usize = 64;
/// Longest a set-up, the freeze wave or the drain may take.
const PATIENCE: Duration = Duration::from_secs(60);
const DRAIN: Duration = Duration::from_secs(2);
/// Engine instances brought up per run, at least and at most; between the
/// two, set-ups repeat until together they have taken [`SETUP_TIME`], so
/// that the median of a cheap set-up rests on many samples.
const SETUPS: (usize, usize) = (5, 100);
const SETUP_TIME: Duration = Duration::from_secs(1);
/// The saturation window closes when its pool is spent, or at this many
/// times its nominal length if the engine is slower than the pool assumes.
const SAT_OVERRUN: u64 = 3;

/// Engine configuration for a schedule.
#[must_use]
pub fn engine_config(s: &Schedule) -> EngineConfig {
    let w = &s.workload;
    let mut cfg =
        EngineConfig::new(w.protocol(s.chain_len)).with_hibernate_after(w.hibernate_after_us);
    cfg.accept_handshakes = w.role == Role::Host;
    cfg
}

/// Counter readings at one instant.
#[derive(Clone)]
pub struct Snap {
    /// ns since the run's epoch.
    pub t: u64,
    /// Engine-thread CPU by tid.
    pub cpu: HashMap<u32, u64>,
    /// The generator thread's own CPU, ns.
    pub gen_cpu: u64,
    /// Socket I/O totals.
    pub io: IoTotals,
    /// `s2_verified`.
    pub s2_verified: u64,
    /// `timer_fires`.
    pub timer_fires: u64,
    /// All protocol drops.
    pub drops: u64,
    /// `BadMac` drops.
    pub bad_mac: u64,
    /// Admission, back-pressure and parse drops.
    pub refused: u64,
    /// Store: freezes.
    pub frozen: u64,
    /// Store: thaws.
    pub thawed: u64,
    /// Store: thaws rejected.
    pub thaw_rejected: u64,
    /// Store: bytes held by frozen records.
    pub bytes_frozen: u64,
    /// Store: flows hibernated now.
    pub flows_hibernated: u64,
    /// Store: renewals started.
    pub renewals: u64,
    /// Engine TX frame pool: frames allocated fresh.
    pub fresh_frames: u64,
    /// Process RSS.
    pub rss: u64,
    /// Live heap bytes.
    pub heap: u64,
    /// Datagrams the generator sent the engine.
    pub sent: u64,
}

impl Snap {
    fn take(core: &EngineCore, gen: &Gen<'_>) -> Snap {
        let m: &EngineMetrics = core.metrics();
        let ld = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Snap {
            t: gen.now(),
            cpu: engine_thread_cpu_ns(),
            gen_cpu: own_cpu_ns(),
            io: m.io.totals(),
            s2_verified: ld(&m.s2_verified),
            timer_fires: ld(&m.timer_fires),
            drops: m.total_drops(),
            bad_mac: m.drops(DropReason::BadMac),
            refused: ld(&m.admission_drops) + ld(&m.backpressure_drops) + ld(&m.parse_errors),
            frozen: ld(&m.store.frozen),
            thawed: ld(&m.store.thawed),
            thaw_rejected: ld(&m.store.thaw_rejected),
            bytes_frozen: ld(&m.store.bytes_frozen),
            flows_hibernated: ld(&m.store.flows_hibernated),
            renewals: ld(&m.store.renewals_started),
            fresh_frames: core.frame_pool().stats().fresh,
            rss: rss_bytes(),
            heap: heap_bytes(),
            sent: gen.sent_to_server,
        }
    }
}

/// What one round measured.
pub struct Live {
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Fixed-rate-window latencies, ns, sorted.
    pub lat_ns: Vec<u64>,
    /// Readings at the start of the fixed-rate window.
    pub fixed0: Snap,
    /// Readings at its end.
    pub fixed1: Snap,
    /// Readings after the drain.
    pub end: Snap,
    /// RSS and live heap bytes just before the handshakes.
    pub before_hs: (u64, u64),
    /// Saturation messages verified and the window's length in seconds.
    pub sat: (u64, f64),
    /// Readings at the end of the saturation window.
    pub sat1: Snap,
    /// Legitimate messages attempted / verified (fixed + saturation).
    pub attempted: u64,
    /// Verified by the end of the drain.
    pub verified: u64,
    /// Generator S1 lateness, ns, sorted.
    pub late_ns: Vec<u64>,
    /// Kernel drops on the generator's sockets.
    pub gen_sink_drops: u64,
    /// Kernel drops on the engine's socket.
    pub server_sock_drops: u64,
    /// Forged S2s sent; S2 packets sent in the two windows.
    pub forged_sent: u64,
    /// S2 packets sent during the fixed-rate window.
    pub s2_sent_fixed: u64,
    /// Generator send retries.
    pub gen_send_retries: u64,
    /// Oracle violations and the first few verbatim.
    pub violations: u64,
    /// First violations.
    pub errors: Vec<String>,
    /// Unexplained datagrams at the generator's client side.
    pub unexpected: u64,
    /// Backends the engine resolved.
    pub backends: (String, String),
}

struct Bound<'s> {
    engine: Engine,
    gen: Gen<'s>,
    deliveries: Option<mpsc::Receiver<Delivery>>,
}

impl Bound<'_> {
    fn pump(&mut self) {
        self.gen.poll_rx();
        if let Some(rx) = &self.deliveries {
            while let Ok((t, assoc, seq, len, payload)) = rx.try_recv() {
                let payload = payload.get(..usize::from(len)).unwrap_or(&[]);
                self.gen.on_delivery(t, assoc, seq, payload);
            }
        }
    }
}

/// Bind an engine and bring every association up over the sockets.
/// Returns the bound pair, the set-up time, and RSS and live heap bytes
/// before the handshakes.
fn set_up(s: &Schedule) -> Result<(Bound<'_>, f64, (u64, u64)), String> {
    let epoch = Instant::now();
    let mut gen = Gen::bind(s, epoch).map_err(|e| format!("generator bind: {e}"))?;
    let (sink, deliveries): (Option<DeliverySink>, _) = if s.workload.role == Role::Host {
        // A bounded channel's slots are allocated and touched up front, so
        // reporting deliveries neither allocates on the engine's worker nor
        // grows the process during the window.
        let (tx, rx) = mpsc::sync_channel::<Delivery>(DELIVERY_QUEUE);
        let sink: DeliverySink = Box::new(move |out| {
            if out.delivered.is_empty() {
                return;
            }
            let t = epoch.elapsed().as_nanos() as u64 + 1;
            for (assoc, seq, p) in &out.delivered {
                let mut copy = [0u8; MAX_HOST_PAYLOAD];
                // A payload too long to copy is reported empty, which the
                // oracle then rejects as differing from the one sent.
                let len = if p.len() <= MAX_HOST_PAYLOAD {
                    copy[..p.len()].copy_from_slice(p);
                    p.len() as u8
                } else {
                    0
                };
                let _ = tx.send((t, *assoc, *seq, len, copy));
            }
        });
        (Some(sink), Some(rx))
    } else {
        (None, None)
    };
    let t0 = Instant::now();
    let core = EngineCore::new(engine_config(s));
    let engine = Engine::bind_with_sink("127.0.0.1:0", core, WORKERS, sink)
        .map_err(|e| format!("engine bind: {e}"))?;
    for (client, far) in gen.route_pairs() {
        engine.core().add_route(client, far);
    }
    let server: SocketAddr = engine.local_addr().map_err(|e| e.to_string())?;
    gen.set_server(server);
    let before = (rss_bytes(), heap_bytes());
    let mut b = Bound {
        engine,
        gen,
        deliveries,
    };
    while b.gen.established < s.flows.len() {
        if t0.elapsed() > PATIENCE {
            return Err(format!(
                "set-up: {}/{} associations after {PATIENCE:?}",
                b.gen.established,
                s.flows.len()
            ));
        }
        b.gen.connect_step(HS_WINDOW);
        b.pump();
    }
    Ok((b, t0.elapsed().as_secs_f64(), before))
}

/// One round: a fresh engine instance through set-up, warm-up, the
/// fixed-rate window, the saturation window and the drain.
pub fn round(s: &Schedule) -> Result<Live, String> {
    let (mut b, setup_s, before_hs) = set_up(s)?;
    let core = std::sync::Arc::clone(b.engine.core());
    let flows = s.flows.len() as u64;

    // Hibernation: the window opens after the initial freeze wave.
    if s.workload.hibernate_after_us.is_some() {
        let wait = Instant::now();
        while core
            .metrics()
            .store
            .flows_hibernated
            .load(Ordering::Relaxed)
            < flows
        {
            if wait.elapsed() > PATIENCE {
                return Err("freeze wave did not complete".to_owned());
            }
            b.pump();
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let ph = s.phases;
    b.gen.begin_run();
    let (fixed_start, fixed_end, sat_end) = (
        b.gen.at(ph.warm_ns),
        b.gen.at(ph.warm_ns + ph.fixed_ns),
        b.gen.at(ph.warm_ns + ph.fixed_ns + SAT_OVERRUN * ph.sat_ns),
    );
    let mut fixed0 = None;
    let mut fixed1 = None;
    let mut s2_sent_fixed = 0;
    let mut pool_spent_at = None;
    loop {
        b.pump();
        let now = b.gen.now();
        if now < fixed_end {
            if fixed0.is_none() && now >= fixed_start {
                fixed0 = Some(Snap::take(&core, &b.gen));
                s2_sent_fixed = b.gen.s2_sent;
            }
            b.gen.release_due();
        } else if now < sat_end {
            if fixed1.is_none() {
                fixed1 = Some(Snap::take(&core, &b.gen));
                s2_sent_fixed = b.gen.s2_sent - s2_sent_fixed;
            }
            if !b.gen.fill_sat(s.workload.sat_cap) {
                pool_spent_at.get_or_insert(now);
                if b.gen.inflight == 0 {
                    break;
                }
            }
        } else {
            break;
        }
    }
    // Saturation throughput up to the moment the pool ran dry; after that
    // the exchanges in flight only drain.
    let sat1 = Snap::take(&core, &b.gen);
    let sat_to = pool_spent_at.unwrap_or(sat_end);
    let sat = (
        b.gen.sat_verified_between(fixed_end, sat_to),
        (sat_to - fixed_end) as f64 / 1e9,
    );
    let drain = Instant::now();
    while b.gen.inflight > 0 && drain.elapsed() < DRAIN {
        b.pump();
    }
    // Let anything still in a socket queue land before the final count.
    let settle = Instant::now();
    while settle.elapsed() < Duration::from_millis(20) {
        b.pump();
    }
    let end = Snap::take(&core, &b.gen);
    let mut ports = b.gen.ports();
    let gen_sink_drops = udp_drops(&ports);
    ports.clear();
    ports.push(b.engine.local_addr().map_err(|e| e.to_string())?.port());
    let server_sock_drops = udp_drops(&ports);
    let (attempted, verified) = b.gen.outcomes();
    let mut late_ns = std::mem::take(&mut b.gen.late_ns);
    late_ns.sort_unstable();
    let backends = (
        core.metrics().io.backend_name().to_owned(),
        core.metrics().io.wait_backend_name().to_owned(),
    );
    let live = Live {
        setup_s,
        lat_ns: b.gen.latencies_due_between(fixed_start, fixed_end),
        fixed0: fixed0.ok_or("fixed-rate window never opened")?,
        fixed1: fixed1.ok_or("fixed-rate window never closed")?,
        end,
        before_hs,
        sat,
        sat1,
        attempted,
        verified,
        late_ns,
        gen_sink_drops,
        server_sock_drops,
        forged_sent: b.gen.forged_sent,
        s2_sent_fixed,
        gen_send_retries: b.gen.send_retries,
        violations: b.gen.violations,
        errors: std::mem::take(&mut b.gen.errors),
        unexpected: b.gen.unexpected,
        backends,
    };
    drop(core);
    b.engine.shutdown();
    Ok(live)
}

/// Set-up times of further engine instances, brought up and torn down
/// with no traffic, after the set-ups in `done`, per [`SETUPS`].
pub fn more_setups(s: &Schedule, done: &[f64]) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    let mut spent: f64 = done.iter().sum();
    while done.len() + out.len() < SETUPS.1
        && (done.len() + out.len() < SETUPS.0 || spent < SETUP_TIME.as_secs_f64())
    {
        let (again, setup, _) = set_up(s)?;
        again.engine.shutdown();
        spent += setup;
        out.push(setup);
    }
    Ok(out)
}
