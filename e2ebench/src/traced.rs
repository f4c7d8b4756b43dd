//! The traced run: the same seed's inputs replayed through an in-process
//! server loop this file writes itself — `UdpIo::recv_batch` →
//! `EngineCore::handle_datagrams` → `UdpIo::send_batch`, plus
//! `EngineCore::poll` — with a span around every call into a layer.
//! Spans are kept in memory and written out when the run ends. The
//! per-layer ledger is built from them and reconciled against the
//! untraced run's server CPU per datagram; the gap is the engine worker
//! loop's own share (wait, dispatch, wake-up) plus tracing overhead.

use std::io::Write as _;
use std::net::UdpSocket;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use alpha_core::Timestamp;
use alpha_crypto::{counting, Algorithm};
use alpha_engine::{EngineCore, EngineOutput};
use alpha_transport::{RxDatagram, UdpIo};
use alpha_wire::{bundle, FramePool, PacketView};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{header, packets, s2_seq, Gen};
use crate::live::engine_config;
use crate::stats::{median, ratio};
use crate::workload::{Role, Schedule};

const POLL_EVERY_NS: u64 = 1_000_000;
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Recv,
    Dgram,
    Parse,
    Handle,
    Send,
    Poll,
}

/// What the benchmark sent in a datagram (its first packet), so a span
/// can be charged to a message class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Handshake,
    S1,
    A1,
    S2,
    S2Forged,
    Other,
}

const CLASSES: usize = 6;

#[derive(Clone, Copy)]
struct Rec {
    kind: Kind,
    class: Class,
    measured: bool,
    start: u64,
    end: u64,
    parent: u32,
    exchange: u32,
}

#[derive(Default, Clone, Copy)]
struct Acc {
    dgrams: u64,
    handle_ns: u64,
    hashes: u64,
    hashed_bytes: u64,
    macs: u64,
}

/// The per-layer ledger of one workload.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Datagrams the traced server received in the measured window.
    pub dgrams: u64,
    /// `UdpIo::recv_batch` (calls that returned datagrams), ns/datagram.
    pub recv_ns: f64,
    /// `bundle::split` + `PacketView::parse`, ns/datagram (a sub-span of
    /// the engine's own handling, timed separately).
    pub parse_ns: f64,
    /// `EngineCore::handle_datagrams`, ns/datagram.
    pub handle_ns: f64,
    /// `UdpIo::send_batch`, ns/datagram.
    pub send_ns: f64,
    /// `EngineCore::poll`, ns per second of window.
    pub poll_ns_per_s: f64,
    /// The same, per datagram.
    pub poll_ns: f64,
    /// Mean handle span of S1 datagrams.
    pub handle_ns_per_s1: f64,
    /// Mean handle span of legitimate S2 datagrams.
    pub handle_ns_per_s2: f64,
    /// Mean handle span of datagrams carrying a forged S2.
    pub forged_drop_ns: f64,
    /// Mean handle span of handshake datagrams during set-up.
    pub handshake_ns: f64,
    /// Hash invocations per verified S2.
    pub hashes_per_s2: f64,
    /// Hashed bytes per verified S2.
    pub hashed_bytes_per_s2: f64,
    /// MACs per verified S2.
    pub macs_per_s2: f64,
    /// Hash invocations per datagram that thawed a flow.
    pub hashes_per_thaw: f64,
    /// Median handle span of thawing datagrams minus the hot baseline.
    pub thaw_ns: f64,
    /// Store cost per datagram: thawing datagrams × `thaw_ns`, plus the
    /// time of timer polls that froze flows.
    pub store_ns: f64,
    /// Crypto estimate: hashes counted in datagrams that did not thaw a
    /// flow, priced at this host's measured single-call SHA-1 cost,
    /// ns/datagram.
    pub crypto_ns: f64,
    /// Traced sum: recv + handle + send + poll, ns/datagram.
    pub traced_ns: f64,
    /// Untraced server CPU per datagram from the live run.
    pub untraced_ns: f64,
    /// Untraced minus traced: the worker loop's wait/dispatch/wake share.
    pub runtime_ns: f64,
    /// Cost of the spans themselves, ns/datagram.
    pub overhead_ns: f64,
    /// Whether traced layers plus the residual reconcile with the live CPU.
    pub reconciles: bool,
    /// Largest layer share.
    pub dominant: &'static str,
    /// Layer predicted to dominate on this workload.
    pub predicted: &'static str,
    /// Where the spans were written.
    pub spans_file: String,
    /// Layer table: `(layer, ns per datagram)`.
    pub table: Vec<(&'static str, f64)>,
}

struct Tracer<'s> {
    s: &'s Schedule,
    core: EngineCore,
    io: UdpIo,
    pool: FramePool,
    rx: Vec<RxDatagram>,
    rng: StdRng,
    epoch: Instant,
    spans: Vec<Rec>,
    measuring: bool,
    acc: [Acc; CLASSES],
    thaw_spans: Vec<u64>,
    /// Hash invocations and hashed bytes of datagrams that thawed a flow.
    thaw_hashes: (u64, u64),
    s1_hot_spans: Vec<u64>,
    s2_spans: Vec<u64>,
    hs_spans: Vec<u64>,
    /// Poll time spent in calls that froze flows.
    freeze_poll_ns: u64,
    last_poll: u64,
}

impl Tracer<'_> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    fn ts(&self) -> Timestamp {
        Timestamp::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn span(
        &mut self,
        kind: Kind,
        class: Class,
        start: u64,
        end: u64,
        parent: u32,
        exchange: u32,
    ) -> u32 {
        self.spans.push(Rec {
            kind,
            class,
            measured: self.measuring,
            start,
            end,
            parent,
            exchange,
        });
        (self.spans.len() - 1) as u32
    }

    fn classify(&self, gen: &Gen<'_>, frame: &[u8]) -> Class {
        let Some(list) = packets(frame) else {
            return Class::Other;
        };
        let Some((kind, _)) = list.first().and_then(|p| header(p)) else {
            return Class::Other;
        };
        match kind {
            5 | 6 => Class::Handshake,
            1 => Class::S1,
            2 => Class::A1,
            3 => {
                let s = self.s;
                let forged = gen.exchange_of(frame).is_some_and(|e| {
                    list.iter().any(|p| {
                        s2_seq(p).is_some_and(|seq| {
                            seq < s.per_exchange()
                                && !s.is_msg(s.ex[e as usize].first_msg as usize + seq, p)
                        })
                    })
                });
                if forged {
                    Class::S2Forged
                } else {
                    Class::S2
                }
            }
            _ => Class::Other,
        }
    }

    fn dispatch(&mut self, gen: &mut Gen<'_>, out: EngineOutput, parent: u32, exchange: u32) {
        let t = self.now();
        if !out.datagrams.is_empty() {
            let _ = self.io.send_batch(&out.datagrams);
            let end = self.now();
            self.span(Kind::Send, Class::Other, t, end, parent, exchange);
        }
        for (assoc, seq, payload) in &out.delivered {
            gen.on_delivery(t, *assoc, *seq, payload);
        }
    }

    /// One pass of the server loop: a receive burst, each datagram through
    /// the engine, and the timer poll when due.
    fn serve(&mut self, gen: &mut Gen<'_>) {
        self.rx.clear();
        let t0 = self.now();
        let n = self
            .io
            .recv_batch(&self.pool, &mut self.rx, 32)
            .unwrap_or(0);
        if n > 0 {
            let t1 = self.now();
            self.span(Kind::Recv, Class::Other, t0, t1, NONE, NONE);
        }
        let rx = std::mem::take(&mut self.rx);
        for d in &rx {
            let class = self.classify(gen, &d.frame);
            let exchange = gen.exchange_of(&d.frame).unwrap_or(NONE);
            let root = self.span(Kind::Dgram, class, self.now(), 0, NONE, exchange);
            let t = self.now();
            let mut slices: [&[u8]; alpha_wire::limits::MAX_BUNDLE] =
                [&[]; alpha_wire::limits::MAX_BUNDLE];
            if let Ok(k) = bundle::split(&d.frame, &mut slices) {
                for slice in &slices[..k] {
                    std::hint::black_box(PacketView::parse(slice).is_ok());
                }
            }
            let end = self.now();
            self.span(Kind::Parse, class, t, end, root, exchange);

            let thawed = self.core.metrics().store.thawed.load(Ordering::Relaxed);
            let scope = counting::Scope::start();
            let ts = self.ts();
            let t = self.now();
            let out = self
                .core
                .handle_datagrams(&[(d.from, &d.frame[..])], ts, &mut self.rng);
            let end = self.now();
            let counts = scope.finish();
            self.span(Kind::Handle, class, t, end, root, exchange);
            let took = end - t;
            let thaw = self.core.metrics().store.thawed.load(Ordering::Relaxed) > thawed;
            if self.measuring {
                let a = &mut self.acc[class as usize];
                a.dgrams += 1;
                a.handle_ns += took;
                a.hashes += counts.invocations;
                a.hashed_bytes += counts.input_bytes;
                a.macs += counts.mac_invocations;
                if thaw {
                    self.thaw_spans.push(took);
                    self.thaw_hashes.0 += counts.invocations;
                    self.thaw_hashes.1 += counts.input_bytes;
                } else if class == Class::S1 {
                    self.s1_hot_spans.push(took);
                } else if class == Class::S2 {
                    self.s2_spans.push(took);
                }
            } else if class == Class::Handshake {
                self.hs_spans.push(took);
            }
            self.dispatch(gen, out, root, exchange);
            let end = self.now();
            self.spans[root as usize].end = end;
        }
        self.rx = rx;
        let now = self.now();
        if now - self.last_poll >= POLL_EVERY_NS {
            self.last_poll = now;
            let frozen = self.core.metrics().store.frozen.load(Ordering::Relaxed);
            let ts = self.ts();
            let out = self.core.poll(ts, &mut self.rng);
            let end = self.now();
            if self.measuring && self.core.metrics().store.frozen.load(Ordering::Relaxed) > frozen {
                self.freeze_poll_ns += end - now;
            }
            let root = self.span(Kind::Poll, Class::Other, now, end, NONE, NONE);
            self.dispatch(gen, out, root, NONE);
        }
    }
}

/// Cost of one `Instant::now()` on this host, ns.
fn clock_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// `(ns per short hash call, ns per extra input byte)` for SHA-1 through
/// the crypto crate's single-call API.
fn hash_cost() -> (f64, f64) {
    let time = |len: usize, n: u32| {
        let data = vec![0x5Au8; len];
        let t = Instant::now();
        for _ in 0..n {
            std::hint::black_box(Algorithm::Sha1.hash(std::hint::black_box(&data)));
        }
        t.elapsed().as_nanos() as f64 / f64::from(n)
    };
    let short = time(32, 50_000);
    let long = time(1056, 10_000);
    (short, ((long - short) / 1024.0).max(0.0))
}

/// Replay `s` through the traced loop and build the ledger against the
/// live run's `untraced_ns` server CPU per datagram.
pub fn run(s: &Schedule, seed: u64, untraced_ns: f64, out_dir: &str) -> Result<Ledger, String> {
    let core = EngineCore::new(engine_config(s));
    let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    sock.set_nonblocking(true).map_err(|e| e.to_string())?;
    crate::stats::deepen_recv_buffer(&sock, 4 << 20);
    let server = sock.local_addr().map_err(|e| e.to_string())?;
    let counters = core.metrics().io.register_worker();
    let epoch = Instant::now();
    let mut gen = Gen::bind(s, epoch).map_err(|e| e.to_string())?;
    gen.set_server(server);
    for (client, far) in gen.route_pairs() {
        core.add_route(client, far);
    }
    let mut tr = Tracer {
        s,
        core,
        io: UdpIo::new(sock, counters),
        pool: FramePool::new(alpha_transport::io::MAX_DATAGRAM, 64),
        rx: Vec::with_capacity(32),
        rng: StdRng::seed_from_u64(seed),
        epoch,
        spans: Vec::with_capacity(1 << 20),
        measuring: false,
        acc: [Acc::default(); CLASSES],
        thaw_spans: Vec::new(),
        thaw_hashes: (0, 0),
        s1_hot_spans: Vec::new(),
        s2_spans: Vec::new(),
        hs_spans: Vec::new(),
        freeze_poll_ns: 0,
        last_poll: 0,
    };
    let patience = Instant::now();
    while gen.established < s.flows.len() {
        if patience.elapsed() > Duration::from_secs(60) {
            return Err("traced set-up did not complete".to_owned());
        }
        gen.connect_step(crate::live::HS_WINDOW);
        gen.poll_rx();
        tr.serve(&mut gen);
    }
    let flows = s.flows.len() as u64;
    if s.workload.hibernate_after_us.is_some() {
        while tr
            .core
            .metrics()
            .store
            .flows_hibernated
            .load(Ordering::Relaxed)
            < flows
        {
            if patience.elapsed() > Duration::from_secs(120) {
                return Err("traced freeze wave did not complete".to_owned());
            }
            gen.poll_rx();
            tr.serve(&mut gen);
        }
    }

    // Replay warm-up and the fixed-rate window; spans of the latter count.
    let ph = s.phases;
    gen.begin_run();
    let (fixed_start, fixed_end) = (gen.at(ph.warm_ns), gen.at(ph.warm_ns + ph.fixed_ns));
    let mut s2_before = 0;
    let mut window = (0, 0);
    loop {
        gen.poll_rx();
        let now = gen.now();
        if now >= fixed_end {
            break;
        }
        if !tr.measuring && now >= fixed_start {
            tr.measuring = true;
            s2_before = tr.core.metrics().s2_verified.load(Ordering::Relaxed);
            window.0 = tr.now();
        }
        gen.release_due();
        tr.serve(&mut gen);
    }
    tr.measuring = false;
    window.1 = tr.now();
    let verified = tr.core.metrics().s2_verified.load(Ordering::Relaxed) - s2_before;
    let drain = Instant::now();
    while gen.inflight > 0 && drain.elapsed() < Duration::from_secs(2) {
        gen.poll_rx();
        tr.serve(&mut gen);
    }
    if gen.violations > 0 {
        return Err(format!("traced replay failed the oracle: {:?}", gen.errors));
    }

    // Sum spans of the measured window.
    let mut sum = [0u64; 6];
    let mut n_spans = 0u64;
    for r in tr.spans.iter().filter(|r| r.measured) {
        sum[r.kind as usize] += r.end - r.start;
        n_spans += 1;
    }
    let dgrams: u64 = tr.acc.iter().map(|a| a.dgrams).sum();
    let d = dgrams as f64;
    let window_s = (window.1 - window.0) as f64 / 1e9;
    let mean = |c: Class| {
        ratio(
            tr.acc[c as usize].handle_ns as f64,
            tr.acc[c as usize].dgrams as f64,
        )
    };
    let all = tr.acc.iter().fold(Acc::default(), |mut t, a| {
        t.hashes += a.hashes;
        t.hashed_bytes += a.hashed_bytes;
        t.macs += a.macs;
        t
    });
    let hot = if tr.s1_hot_spans.len() >= 10 {
        median(&tr.s1_hot_spans)
    } else {
        median(&tr.s2_spans)
    };
    let thaw_ns = if tr.thaw_spans.is_empty() {
        0.0
    } else {
        median(&tr.thaw_spans) as f64 - hot as f64
    };
    let (hash_short, hash_byte) = hash_cost();
    let clock = clock_cost_ns();

    let mut l = Ledger {
        dgrams,
        recv_ns: ratio(sum[Kind::Recv as usize] as f64, d),
        parse_ns: ratio(sum[Kind::Parse as usize] as f64, d),
        handle_ns: ratio(sum[Kind::Handle as usize] as f64, d),
        send_ns: ratio(sum[Kind::Send as usize] as f64, d),
        poll_ns_per_s: ratio(sum[Kind::Poll as usize] as f64, window_s),
        poll_ns: ratio(sum[Kind::Poll as usize] as f64, d),
        handle_ns_per_s1: mean(Class::S1),
        handle_ns_per_s2: mean(Class::S2),
        forged_drop_ns: mean(Class::S2Forged),
        handshake_ns: ratio(
            tr.hs_spans.iter().sum::<u64>() as f64,
            tr.hs_spans.len() as f64,
        ),
        hashes_per_s2: ratio(all.hashes as f64, verified as f64),
        hashed_bytes_per_s2: ratio(all.hashed_bytes as f64, verified as f64),
        macs_per_s2: ratio(all.macs as f64, verified as f64),
        hashes_per_thaw: ratio(tr.thaw_hashes.0 as f64, tr.thaw_spans.len() as f64),
        thaw_ns,
        store_ns: ratio(
            thaw_ns.max(0.0) * tr.thaw_spans.len() as f64 + tr.freeze_poll_ns as f64,
            d,
        ),
        crypto_ns: {
            // A thaw's hashing (its chain rebuild) is store work.
            let hashes = (all.hashes - tr.thaw_hashes.0) as f64;
            let bytes = (all.hashed_bytes - tr.thaw_hashes.1) as f64;
            ratio(
                hashes * hash_short + (bytes - 32.0 * hashes).max(0.0) * hash_byte,
                d,
            )
        },
        untraced_ns,
        overhead_ns: ratio(n_spans as f64 * 2.0 * clock, d),
        spans_file: String::new(),
        ..Ledger::default()
    };
    l.traced_ns = l.recv_ns + l.handle_ns + l.send_ns + l.poll_ns;
    l.runtime_ns = untraced_ns - l.traced_ns;
    // The traced layers may exceed the live worker's CPU by at most the
    // spans' own cost plus 25% (the traced loop runs on a colder, shared
    // core); a larger excess means the ledger misses or double-counts.
    l.reconciles = l.traced_ns <= untraced_ns * 1.25 + l.overhead_ns && l.traced_ns > 0.0;
    let engine_self = (l.handle_ns + l.poll_ns - l.parse_ns - l.crypto_ns - l.store_ns).max(0.0);
    l.table = vec![
        (
            "transport (recv+send+runtime loop)",
            l.recv_ns + l.send_ns + l.runtime_ns.max(0.0),
        ),
        ("wire (parse)", l.parse_ns),
        ("engine/core (handle + poll minus the rest)", engine_self),
        (
            "crypto (counted hashes x measured cost, thaws excluded)",
            l.crypto_ns,
        ),
        ("store (thaw + freezing polls)", l.store_ns),
    ];
    l.dominant = l
        .table
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(name, _)| name.split(' ').next().unwrap_or("none"));
    l.predicted = match (s.workload.role, s.workload.hibernate_after_us) {
        (Role::Relay, _) => "crypto",
        (Role::Host, Some(_)) => "store",
        (Role::Host, None) => "transport",
    };
    l.spans_file = write_spans(&tr.spans, s.workload.name, seed, out_dir)?;
    Ok(l)
}

fn write_spans(spans: &[Rec], workload: &str, seed: u64, out_dir: &str) -> Result<String, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let path = format!("{out_dir}/spans-{workload}-seed{seed}.csv");
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("{path}: {e}");
    writeln!(w, "id,name,class,measured,start_ns,end_ns,parent,exchange").map_err(io)?;
    for (i, r) in spans.iter().enumerate() {
        let opt = |v: u32| {
            if v == NONE {
                String::new()
            } else {
                v.to_string()
            }
        };
        writeln!(
            w,
            "{i},{:?},{:?},{},{},{},{},{}",
            r.kind,
            r.class,
            u8::from(r.measured),
            r.start,
            r.end,
            opt(r.parent),
            opt(r.exchange)
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)?;
    Ok(path)
}
