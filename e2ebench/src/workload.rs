//! Workload definitions and the seeded pre-generation of every byte the
//! generator sends.
//!
//! All client-side traffic (HS1, S1, S2, and for the relay workload the
//! far end's HS2 and A1) is produced here with the public
//! `bootstrap`/`Association` API before the engine binds. During the
//! measured window the generator only copies these bytes into sockets.
//!
//! For host workloads the far end is a shadow association that exists
//! only to drive the client signer through S1 → A1 → S2: the live host
//! verifies an S2 against the client's anchor from HS1 and the S1
//! pre-signature alone, so the shadow's A1 bytes are never sent and the
//! host's own A1 is only the cue to send the S2.

use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Config, Mode, Timestamp};
use alpha_crypto::Algorithm;
use alpha_wire::Packet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The engine's default `renew_below`; chains are sized so that no flow
/// gets within this many exchanges of its end.
pub const RENEW_BELOW: u64 = 8;
/// Distinct payload blocks per run; a message's payload is one of them.
const PAYLOAD_BLOCKS: usize = 64;

/// Which side of the protocol the engine under test plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// End host: accepts handshakes, verifies S2s and delivers them.
    Host,
    /// On-path relay between the generator's client and far sockets.
    Relay,
}

/// One traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Role of the engine under test.
    pub role: Role,
    /// Messages per exchange: 1 is Base mode, more is an ALPHA-M bundle.
    pub msgs_per_exchange: usize,
    /// Payload bytes per message.
    pub payload: usize,
    /// Associations.
    pub flows: usize,
    /// Poisson arrival rate of exchanges in warm-up and the fixed-rate
    /// window (exchanges per second). A constant, never measured.
    pub rate: f64,
    /// Exchanges in flight during the saturation window.
    pub sat_cap: usize,
    /// Exchanges pre-generated per second of nominal saturation window:
    /// about what the engine takes, so the window lasts about its nominal
    /// length. The window is a fixed amount of work.
    pub sat_pool_rate: f64,
    /// One S2 in this many is preceded by a forged copy (0: none).
    pub forge_one_in: u64,
    /// Engine hibernation threshold in microseconds.
    pub hibernate_after_us: Option<u64>,
    /// Hash-chain length of every association, client and engine side. A
    /// constant of the workload, so that every seed runs the same chain
    /// storage and thaw cost; doubled only if a schedule's busiest flow
    /// would come near renewal (longer `--seconds` than the default).
    pub chain_len: u64,
}

/// The three workloads, each stressing a different layer (see README).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "host_small",
        role: Role::Host,
        msgs_per_exchange: 1,
        payload: 64,
        flows: 256,
        rate: 6_000.0,
        sat_cap: 128,
        sat_pool_rate: 24_000.0,
        forge_one_in: 0,
        hibernate_after_us: None,
        chain_len: 1024,
    },
    Workload {
        name: "relay_bulk",
        role: Role::Relay,
        msgs_per_exchange: 32,
        payload: 1024,
        flows: 64,
        rate: 600.0,
        sat_cap: 8,
        sat_pool_rate: 4_500.0,
        forge_one_in: 8,
        hibernate_after_us: None,
        chain_len: 256,
    },
    Workload {
        name: "host_churn",
        role: Role::Host,
        msgs_per_exchange: 1,
        payload: 64,
        flows: 20_000,
        rate: 400.0,
        sat_cap: 64,
        sat_pool_rate: 22_000.0,
        forge_one_in: 0,
        hibernate_after_us: Some(30_000),
        chain_len: 64,
    },
];

/// Look up a workload by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Protocol configuration shared by the generator and the engine.
    #[must_use]
    pub fn protocol(&self, chain_len: u64) -> Config {
        Config::new(Algorithm::Sha1).with_chain_len(chain_len)
    }

    fn mode(&self) -> Mode {
        if self.msgs_per_exchange == 1 {
            Mode::Base
        } else {
            Mode::Merkle
        }
    }
}

/// Phase of a run an exchange belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Open-loop, not measured.
    Warm,
    /// Open-loop at the workload's fixed rate; latency and CPU come from here.
    Fixed,
    /// Closed-loop with a cap on exchanges in flight.
    Sat,
}

/// A byte range in [`Schedule::arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Offset.
    pub off: u32,
    /// Length.
    pub len: u32,
}

/// One pre-generated exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Flow index.
    pub flow: u32,
    /// Due time in nanoseconds after warm-up starts (open-loop phases).
    pub due_ns: u64,
    /// Phase.
    pub phase: Phase,
    /// S1 bytes.
    pub s1: Span,
    /// The far end's A1 bytes (relay workload only).
    pub a1: Span,
    /// Index of the first of this exchange's messages in [`Schedule::msgs`].
    pub first_msg: u32,
}

/// One message (one S2).
#[derive(Debug, Clone, Copy)]
pub struct Msg {
    /// The encoded S2 minus its trailing payload bytes.
    pub prefix: Span,
    /// Index into [`Schedule::blocks`] of the payload.
    pub block: u16,
    /// Sequence number the S2 carries (index within the bundle).
    pub seq: u32,
    /// If set, the S2 is preceded by a forged copy with the payload byte
    /// at `.0` XORed with `.1`.
    pub forge: Option<(u16, u8)>,
}

/// One association; its id is [`Schedule::assoc_base`] plus its index.
#[derive(Debug, Clone)]
pub struct Flow {
    /// HS1 bytes.
    pub hs1: Span,
    /// The far end's HS2 bytes (relay workload only).
    pub hs2: Span,
}

/// Durations of the measured phases, derived from `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Warm-up, nanoseconds.
    pub warm_ns: u64,
    /// Fixed-rate window, nanoseconds.
    pub fixed_ns: u64,
    /// Saturation window, nanoseconds.
    pub sat_ns: u64,
}

impl Phases {
    /// Split a run of `seconds` into 15% warm-up, 55% fixed rate and 30%
    /// saturation.
    #[must_use]
    pub fn of(seconds: f64) -> Phases {
        let ns = (seconds * 1e9) as u64;
        Phases {
            warm_ns: ns * 15 / 100,
            fixed_ns: ns * 55 / 100,
            sat_ns: ns * 30 / 100,
        }
    }
}

/// Everything a run sends, derived from the seed alone.
pub struct Schedule {
    /// The workload.
    pub workload: Workload,
    /// Phase durations.
    pub phases: Phases,
    /// Chain length of every association (client and engine side).
    pub chain_len: u64,
    /// Packet bytes.
    pub arena: Vec<u8>,
    /// Payload blocks.
    pub blocks: Vec<Vec<u8>>,
    /// Associations.
    pub flows: Vec<Flow>,
    /// Exchanges: open-loop ones sorted by due time, then the saturation pool.
    pub ex: Vec<Exchange>,
    /// Messages of all exchanges, in exchange order.
    pub msgs: Vec<Msg>,
    /// Number of open-loop (warm-up + fixed-rate) exchanges.
    pub open_loop: usize,
    /// High bits shared by every association id of this schedule.
    pub assoc_base: u64,
}

/// SplitMix64: the schedule's own generator for arrivals and flow draws,
/// so the schedule depends on nothing but the seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

impl Schedule {
    /// Pre-generate every exchange of a run of `seconds` on `workload`.
    ///
    /// # Panics
    /// If the protocol machines refuse their own in-memory traffic, which
    /// would be a bug in the code under test.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Schedule {
        let phases = Phases::of(seconds);
        let mut rng = SplitMix(seed ^ name_hash(workload.name));
        let flows_n = workload.flows as u64;

        // Open-loop arrivals: Poisson at the workload's fixed rate.
        let open_ns = phases.warm_ns + phases.fixed_ns;
        let mut ex = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += -(1.0 - rng.unit()).ln() / workload.rate;
            let due_ns = (t * 1e9) as u64;
            if due_ns >= open_ns {
                break;
            }
            let phase = if due_ns < phases.warm_ns {
                Phase::Warm
            } else {
                Phase::Fixed
            };
            ex.push((rng.below(flows_n) as u32, due_ns, phase));
        }
        let open_loop = ex.len();
        let sat_n = (workload.sat_pool_rate * phases.sat_ns as f64 / 1e9).ceil() as usize;
        for _ in 0..sat_n {
            ex.push((rng.below(flows_n) as u32, 0, Phase::Sat));
        }

        let mut per_flow: Vec<Vec<u32>> = vec![Vec::new(); workload.flows];
        for (i, e) in ex.iter().enumerate() {
            per_flow[e.0 as usize].push(i as u32);
        }
        let busiest = per_flow.iter().map(Vec::len).max().unwrap_or(0) as u64;
        let mut chain_len = workload.chain_len;
        while chain_len / 2 < busiest + RENEW_BELOW + 2 {
            chain_len *= 2;
        }

        let blocks: Vec<Vec<u8>> = (0..PAYLOAD_BLOCKS)
            .map(|_| {
                (0..workload.payload)
                    .map(|_| rng.next_u64() as u8)
                    .collect()
            })
            .collect();
        let m = workload.msgs_per_exchange;
        let mut msgs = Vec::with_capacity(ex.len() * m);
        for _ in 0..ex.len() {
            for seq in 0..m {
                let block = rng.below(PAYLOAD_BLOCKS as u64) as u16;
                let forge = (workload.forge_one_in > 0 && rng.below(workload.forge_one_in) == 0)
                    .then(|| {
                        let at = rng.below(workload.payload as u64) as u16;
                        (at, 1 + rng.below(255) as u8)
                    });
                msgs.push(Msg {
                    prefix: Span::default(),
                    block,
                    seq: seq as u32,
                    forge,
                });
            }
        }
        let mut ex: Vec<Exchange> = ex
            .into_iter()
            .enumerate()
            .map(|(i, (flow, due_ns, phase))| Exchange {
                flow,
                due_ns,
                phase,
                s1: Span::default(),
                a1: Span::default(),
                first_msg: (i * m) as u32,
            })
            .collect();

        let assoc_base = (rng.next_u64() & 0xFFFF_FFFF) << 24;
        let cfg = workload.protocol(chain_len);
        let mode = workload.mode();
        let mut arena = Vec::new();
        let push = |arena: &mut Vec<u8>, bytes: &[u8]| {
            let span = Span {
                off: arena.len() as u32,
                len: bytes.len() as u32,
            };
            arena.extend_from_slice(bytes);
            span
        };
        let mut flows = Vec::with_capacity(workload.flows);
        let mut enc = Vec::new();
        for (f, list) in per_flow.iter().enumerate() {
            let assoc = assoc_base | f as u64;
            let mut frng =
                StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(assoc));
            let (hs, hs1) = bootstrap::initiate(cfg, assoc, None, &mut frng);
            let (mut far, hs2, _) =
                bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut frng)
                    .expect("in-memory handshake");
            let (mut client, _) = hs
                .complete(&hs2, AuthRequirement::None)
                .expect("in-memory handshake");
            flows.push(Flow {
                hs1: push(&mut arena, &hs1.emit()),
                hs2: push(&mut arena, &hs2.emit()),
            });
            for (k, &i) in list.iter().enumerate() {
                let now = Timestamp::from_micros(k as u64 * 1_000);
                let e = &mut ex[i as usize];
                let first = e.first_msg as usize;
                let payloads: Vec<&[u8]> = msgs[first..first + m]
                    .iter()
                    .map(|msg| blocks[msg.block as usize].as_slice())
                    .collect();
                let s1 = client
                    .sign_batch(&payloads, mode, now)
                    .expect("chain sized for the schedule");
                e.s1 = push(&mut arena, &s1.emit());
                let a1 = single(far.handle(&s1, now, &mut frng).expect("own S1").packets);
                e.a1 = push(&mut arena, &a1.emit());
                let s2s = client.handle(&a1, now, &mut frng).expect("own A1").packets;
                assert_eq!(s2s.len(), m, "one S2 per message");
                for (j, s2) in s2s.iter().enumerate() {
                    enc.clear();
                    s2.encode_into(&mut enc);
                    let payload = payloads[j];
                    assert!(enc.ends_with(payload), "S2 ends with its payload");
                    let delivered = far.handle(s2, now, &mut frng).expect("own S2").deliveries;
                    assert_eq!(delivered.len(), 1, "each S2 delivers once");
                    assert_eq!(delivered[0].1, payload, "delivery is the payload");
                    let msg = &mut msgs[first + j];
                    assert_eq!(delivered[0].0, msg.seq, "seq is the bundle index");
                    msg.prefix = push(&mut arena, &enc[..enc.len() - payload.len()]);
                }
            }
            assert!(client.signer().remaining_exchanges() > RENEW_BELOW);
        }
        Schedule {
            workload,
            phases,
            chain_len,
            arena,
            blocks,
            flows,
            ex,
            msgs,
            open_loop,
            assoc_base,
        }
    }

    /// Bytes of a span.
    #[must_use]
    pub fn bytes(&self, span: Span) -> &[u8] {
        &self.arena[span.off as usize..(span.off + span.len) as usize]
    }

    /// Flow index of an association id, if it is one of this schedule's.
    #[must_use]
    pub fn flow_of(&self, assoc: u64) -> Option<usize> {
        let f = (assoc ^ self.assoc_base) as usize;
        (assoc & !0xFF_FFFF == self.assoc_base && f < self.flows.len()).then_some(f)
    }

    /// Append the legitimate encoding of message `m` to `out`.
    pub fn encode_msg(&self, m: usize, out: &mut Vec<u8>) {
        let msg = &self.msgs[m];
        out.extend_from_slice(self.bytes(msg.prefix));
        out.extend_from_slice(&self.blocks[msg.block as usize]);
    }

    /// Whether `bytes` is exactly the legitimate encoding of message `m`.
    #[must_use]
    pub fn is_msg(&self, m: usize, bytes: &[u8]) -> bool {
        let msg = &self.msgs[m];
        let prefix = self.bytes(msg.prefix);
        bytes.len() == prefix.len() + self.workload.payload
            && bytes.starts_with(prefix)
            && bytes[prefix.len()..] == self.blocks[msg.block as usize][..]
    }

    /// Messages per exchange.
    #[must_use]
    pub fn per_exchange(&self) -> usize {
        self.workload.msgs_per_exchange
    }
}

fn single(mut packets: Vec<Packet>) -> Packet {
    assert_eq!(packets.len(), 1, "exactly one reply packet");
    packets.remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let w = by_name("relay_bulk").unwrap();
        let a = Schedule::generate(w, 7, 0.2);
        let b = Schedule::generate(w, 7, 0.2);
        let c = Schedule::generate(w, 8, 0.2);
        assert!(!a.arena.is_empty());
        assert_eq!(a.arena, b.arena);
        assert_eq!(a.blocks, b.blocks);
        let due = |s: &Schedule| s.ex.iter().map(|e| (e.flow, e.due_ns)).collect::<Vec<_>>();
        assert_eq!(due(&a), due(&b));
        assert_ne!(a.arena, c.arena);
        assert_ne!(due(&a), due(&c));
    }

    #[test]
    fn arrivals_follow_the_fixed_rate_and_chains_cover_every_flow() {
        let w = by_name("host_small").unwrap();
        let s = Schedule::generate(w, 3, 1.0);
        // 0.7 s of open loop at the workload's rate; the Poisson count's
        // standard deviation is its square root, under 2% here.
        let expected = w.rate * 0.7;
        let got = s.open_loop as f64;
        assert!(
            (got - expected).abs() < 0.06 * expected,
            "{got} vs {expected}"
        );
        assert!(s.ex[..s.open_loop]
            .windows(2)
            .all(|p| p[0].due_ns <= p[1].due_ns));
        let mut count = vec![0u64; w.flows];
        for e in &s.ex {
            count[e.flow as usize] += 1;
        }
        let busiest = count.into_iter().max().unwrap();
        assert!(s.chain_len / 2 >= busiest + RENEW_BELOW);
        for (i, m) in s.msgs.iter().enumerate().take(50) {
            let mut out = Vec::new();
            s.encode_msg(i, &mut out);
            assert!(s.is_msg(i, &out));
            assert_eq!(m.seq, 0);
        }
    }
}
