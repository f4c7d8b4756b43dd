//! Live open-loop benchmark of the ALPHA engine.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload host_small --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` runs the engine's own worker loop against the generator
//! and prints the end-to-end metrics; `--trace 1` does the same run and
//! then the traced in-process replay, and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object. A
//! failed correctness check or an invalid run (the generator fell behind
//! its schedule or lost datagrams in its own sockets) exits non-zero
//! without metrics. See `README.md` for what each metric means.

mod gen;
mod idle;
mod live;
mod stats;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use stats::{cpu_delta_ns, median_f, percentile, ratio};
use workload::{Schedule, WORKLOADS};

/// A round whose open-loop S1s were sent later than this at the 90th
/// percentile measured the generator, not the engine. (Rarer lateness —
/// the virtual machine descheduling the generator for a few ms — delays
/// the engine alike and shows in the printed p99 and maximum.)
const LATE_P90_BOUND_US: f64 = 100.0;
/// Attempts at a valid round before the run is given up as invalid.
const ATTEMPTS: usize = 3;
/// Fresh engine instances a run measures, each replaying the run's
/// schedule for `--seconds / ROUNDS`. Metrics are medians over them: on a
/// shared virtual machine costs move by several percent from one instance
/// to the next and over tens of seconds.
const ROUNDS: usize = 12;
/// Where the traced run writes its spans (inside the working directory).
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 30.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = workload.ok_or(format!("--workload is required, one of {names:?}"))?;
    if !(6.0..=60.0).contains(&seconds) {
        return Err("--seconds must be within 6..=60".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `(name, value, unit)`.
type Metric = (&'static str, f64, &'static str);

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The per-round figures whose medians are the end-to-end metrics.
struct Figures {
    /// Engine and generator busy fractions in the saturation window.
    sat_busy: (f64, f64),
    lat_p50_us: f64,
    lat_p90_us: f64,
    cpu_us_per_s2: f64,
    sat_s2_per_s: f64,
    mem_bytes_per_flow: f64,
}

fn figures(l: &live::Live, flows: f64) -> Figures {
    let (f0, f1) = (&l.fixed0, &l.fixed1);
    let sat_ns = (l.sat1.t - f1.t) as f64;
    Figures {
        sat_busy: (
            ratio(cpu_delta_ns(&f1.cpu, &l.sat1.cpu) as f64, sat_ns),
            ratio((l.sat1.gen_cpu - f1.gen_cpu) as f64, sat_ns),
        ),
        lat_p50_us: percentile(&l.lat_ns, 0.5) as f64 / 1e3,
        lat_p90_us: percentile(&l.lat_ns, 0.9) as f64 / 1e3,
        cpu_us_per_s2: ratio(
            cpu_delta_ns(&f0.cpu, &f1.cpu) as f64 / 1e3,
            (f1.s2_verified - f0.s2_verified) as f64,
        ),
        sat_s2_per_s: ratio(l.sat.0 as f64, l.sat.1),
        mem_bytes_per_flow: (f1.heap as f64 - l.before_hs.1 as f64) / flows,
    }
}

/// One round that passed the oracle and the generator-headroom gate.
fn valid_round(s: &Schedule) -> Result<live::Live, String> {
    for attempt in 1..=ATTEMPTS {
        let l = live::round(s)?;
        let failures = oracle(&l);
        if !failures.is_empty() {
            for f in &failures {
                println!("ORACLE FAILURE: {f}");
            }
            return Err("correctness check failed".to_owned());
        }
        match headroom(&l) {
            None => return Ok(l),
            Some(why) => {
                println!("INVALID ROUND, not scored (attempt {attempt} of {ATTEMPTS}): {why}")
            }
        }
    }
    Err(format!(
        "INVALID RUN: no valid round in {ATTEMPTS} attempts"
    ))
}

#[allow(clippy::too_many_lines)] // one linear report
fn run(args: &Args) -> Result<String, String> {
    let w =
        workload::by_name(&args.workload).ok_or(format!("unknown workload {}", args.workload))?;
    let pregen = std::time::Instant::now();
    let s = Schedule::generate(w, args.seed, args.seconds / ROUNDS as f64);
    let flows = s.flows.len() as f64;
    println!(
        "workload {} seed {} seconds {}: {ROUNDS} rounds of {} flows, {} open-loop + {} saturation-pool exchanges of {} x {} B, chain_len {}, pre-generated in {:.2} s",
        w.name,
        args.seed,
        args.seconds,
        s.flows.len(),
        s.open_loop,
        s.ex.len() - s.open_loop,
        w.msgs_per_exchange,
        w.payload,
        s.chain_len,
        pregen.elapsed().as_secs_f64()
    );

    let spinners = idle::IdleSpinners::start();
    let mut rounds = Vec::with_capacity(ROUNDS);
    while rounds.len() < ROUNDS {
        rounds.push(valid_round(&s)?);
    }
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    setups.extend(live::more_setups(&s, &setups)?);
    let figs: Vec<Figures> = rounds.iter().map(|r| figures(r, flows)).collect();
    let med = |f: fn(&Figures) -> f64| median_f(&figs.iter().map(f).collect::<Vec<_>>());

    let l0 = &rounds[0];
    println!(
        "engine: {} worker, udp backend {}, wait backend {}, host cores {}",
        live::WORKERS,
        l0.backends.0,
        l0.backends.1,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    for (i, f) in figs.iter().enumerate() {
        println!(
            "round {i}: p50 {:.1} us, p90 {:.1} us, CPU {:.2} us/S2, saturation {:.0} S2/s (engine {:.0}% / generator {:.0}% busy), heap {:.0} B/flow, set-up {:.4} s",
            f.lat_p50_us,
            f.lat_p90_us,
            f.cpu_us_per_s2,
            f.sat_s2_per_s,
            100.0 * f.sat_busy.0,
            100.0 * f.sat_busy.1,
            f.mem_bytes_per_flow,
            rounds[i].setup_s
        );
    }
    let merged = |pick: fn(&live::Live) -> &Vec<u64>| {
        let mut all: Vec<u64> = rounds
            .iter()
            .flat_map(|r| pick(r).iter().copied())
            .collect();
        all.sort_unstable();
        all
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let lat = merged(|r| &r.lat_ns);
    println!(
        "fixed-rate windows at {} exchanges/s, all rounds: {} latency samples, p50 {:.1} us, p90 {:.1} us, p99 {:.1} us ({} samples above), p999 {:.1} us ({} above), max {:.1} us",
        w.rate,
        lat.len(),
        us(percentile(&lat, 0.5)),
        us(percentile(&lat, 0.9)),
        us(percentile(&lat, 0.99)),
        lat.len() / 100,
        us(percentile(&lat, 0.999)),
        lat.len() / 1000,
        us(lat.last().copied().unwrap_or(0)),
    );
    let late = merged(|r| &r.late_ns);
    println!(
        "generator lateness over {} on-time S1s: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, max {:.1} us; send retries {}",
        late.len(),
        us(percentile(&late, 0.5)),
        us(percentile(&late, 0.9)),
        us(percentile(&late, 0.99)),
        us(late.last().copied().unwrap_or(0)),
        rounds.iter().map(|r| r.gen_send_retries).sum::<u64>()
    );
    let sum = |f: fn(&live::Live) -> u64| rounds.iter().map(f).sum::<u64>();
    let attempted = sum(|r| r.attempted);
    let lost = attempted - sum(|r| r.verified);
    let legit_drops = sum(|r| r.end.drops - r.end.bad_mac.min(r.forged_sent));
    println!(
        "loss: {lost} of {attempted} messages; engine legit drops {legit_drops}, refused {}, engine socket drops {}, datagrams sent {} vs received {}; generator socket drops {}; {} unexplained datagrams at the client side",
        sum(|r| r.end.refused),
        sum(|r| r.server_sock_drops),
        sum(|r| r.end.sent),
        sum(|r| r.end.io.datagrams_in),
        sum(|r| r.gen_sink_drops),
        sum(|r| r.unexpected),
    );
    println!(
        "set-up: {} engine instances, median {:.4} s, min {:.4} s, max {:.4} s",
        setups.len(),
        median_f(&setups),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
    );

    let metrics: Vec<Metric> = if args.trace {
        // Per-layer counters come from the round with the median CPU cost.
        let mut order: Vec<usize> = (0..ROUNDS).collect();
        order.sort_by(|&a, &b| figs[a].cpu_us_per_s2.total_cmp(&figs[b].cpu_us_per_s2));
        let l = &rounds[order[ROUNDS / 2]];
        let (f0, f1) = (&l.fixed0, &l.fixed1);
        let window_s = (f1.t - f0.t) as f64 / 1e9;
        let s2 = (f1.s2_verified - f0.s2_verified) as f64;
        let dgrams_in = (f1.io.datagrams_in - f0.io.datagrams_in) as f64;
        let dgrams_out = (f1.io.datagrams_out - f0.io.datagrams_out) as f64;
        let untraced = ratio(cpu_delta_ns(&f0.cpu, &f1.cpu) as f64, dgrams_in);
        let ledger = traced::run(&s, args.seed, untraced, OUT_DIR)?;
        print_ledger(&ledger);
        let legit_drops = l.end.drops - l.end.bad_mac.min(l.forged_sent);
        vec![
            (
                "transport.syscalls_per_dgram",
                ratio(
                    (f1.io.recv_calls + f1.io.send_calls + f1.io.wait_calls
                        - f0.io.recv_calls
                        - f0.io.send_calls
                        - f0.io.wait_calls) as f64,
                    dgrams_in + dgrams_out,
                ),
                "ratio",
            ),
            (
                "transport.dgrams_per_wakeup",
                ratio(dgrams_in, (f1.io.wakeups - f0.io.wakeups) as f64),
                "ratio",
            ),
            (
                "transport.retries_per_kdgram",
                ratio(
                    1000.0
                        * (f1.io.send_retries + f1.io.eagain - f0.io.send_retries - f0.io.eagain)
                            as f64,
                    dgrams_in,
                ),
                "count",
            ),
            ("transport.recv_ns_per_dgram", ledger.recv_ns, "ns"),
            ("transport.send_ns_per_dgram", ledger.send_ns, "ns"),
            ("transport.runtime_ns_per_dgram", ledger.runtime_ns, "ns"),
            ("wire.parse_ns_per_dgram", ledger.parse_ns, "ns"),
            (
                "wire.fresh_frames_per_dgram",
                ratio((f1.fresh_frames - f0.fresh_frames) as f64, dgrams_in),
                "ratio",
            ),
            ("engine.handle_ns_per_s1", ledger.handle_ns_per_s1, "ns"),
            ("engine.handle_ns_per_s2", ledger.handle_ns_per_s2, "ns"),
            ("engine.handshake_ns", ledger.handshake_ns, "ns"),
            ("engine.poll_ns_per_s", ledger.poll_ns_per_s, "ns/s"),
            (
                "engine.timer_fires_per_s",
                ratio((f1.timer_fires - f0.timer_fires) as f64, window_s),
                "1/s",
            ),
            (
                "engine.legit_drops_per_kdgram",
                ratio(1000.0 * legit_drops as f64, l.end.io.datagrams_in as f64),
                "count",
            ),
            (
                "core.forged_drop_frac",
                ratio(l.end.bad_mac as f64, l.forged_sent as f64),
                "ratio",
            ),
            ("core.forged_drop_ns", ledger.forged_drop_ns, "ns"),
            (
                "core.verified_per_s2_rx",
                ratio(s2, l.s2_sent_fixed as f64),
                "ratio",
            ),
            ("crypto.hashes_per_s2", ledger.hashes_per_s2, "count"),
            (
                "crypto.hashed_bytes_per_s2",
                ledger.hashed_bytes_per_s2,
                "B",
            ),
            ("crypto.macs_per_s2", ledger.macs_per_s2, "count"),
            ("crypto.hashes_per_thaw", ledger.hashes_per_thaw, "count"),
            ("store.thaw_ns", ledger.thaw_ns, "ns"),
            (
                "store.thaws_per_s2",
                ratio((f1.thawed - f0.thawed) as f64, s2),
                "ratio",
            ),
            (
                "store.freezes_per_s2",
                ratio((f1.frozen - f0.frozen) as f64, s2),
                "ratio",
            ),
            (
                "store.bytes_per_frozen_flow",
                ratio(f1.bytes_frozen as f64, f1.flows_hibernated as f64),
                "B",
            ),
            (
                "store.thaw_rejected",
                sum(|r| r.end.thaw_rejected) as f64,
                "count",
            ),
            ("gen.late_p90_us", us(percentile(&late, 0.9)), "us"),
            ("gen.late_p99_us", us(percentile(&late, 0.99)), "us"),
            (
                "gen.late_max_us",
                us(late.last().copied().unwrap_or(0)),
                "us",
            ),
            ("ledger.traced_ns_per_dgram", ledger.traced_ns, "ns"),
            ("ledger.untraced_ns_per_dgram", ledger.untraced_ns, "ns"),
            (
                "ledger.trace_overhead_ns_per_dgram",
                ledger.overhead_ns,
                "ns",
            ),
            ("loss_frac", ratio(lost as f64, attempted as f64), "ratio"),
            (
                "mem.rss_bytes_per_flow",
                (f1.rss as f64 - l.before_hs.0 as f64) / flows,
                "B",
            ),
        ]
    } else {
        vec![
            ("setup_s", median_f(&setups), "s"),
            ("lat_p50_us", med(|f| f.lat_p50_us), "us"),
            ("lat_p90_us", med(|f| f.lat_p90_us), "us"),
            ("cpu_us_per_s2", med(|f| f.cpu_us_per_s2), "us"),
            ("sat_s2_per_s", med(|f| f.sat_s2_per_s), "1/s"),
            (
                "delivered_frac",
                ratio((attempted - lost) as f64, attempted as f64),
                "ratio",
            ),
            ("mem_bytes_per_flow", med(|f| f.mem_bytes_per_flow), "B"),
        ]
    };
    drop(spinners);
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    Ok(json(true, attempted, lost, &metrics))
}

/// The correctness oracle: every check that failed, verbatim.
fn oracle(l: &live::Live) -> Vec<String> {
    let mut failures = l.errors.clone();
    if l.violations > l.errors.len() as u64 {
        failures.push(format!("... {} violations in all", l.violations));
    }
    if l.end.bad_mac != l.forged_sent {
        failures.push(format!(
            "forged S2s sent {} but BadMac drops {}",
            l.forged_sent, l.end.bad_mac
        ));
    }
    if l.end.renewals != 0 {
        failures.push(format!(
            "{} chain renewals fired; chains are sized so none should",
            l.end.renewals
        ));
    }
    if l.end.thaw_rejected != 0 {
        failures.push(format!(
            "{} thaws rejected on clean traffic",
            l.end.thaw_rejected
        ));
    }
    failures
}

/// The generator-headroom gate: why the run measured the generator
/// rather than the engine, if it did.
fn headroom(l: &live::Live) -> Option<String> {
    let late_p90_us = percentile(&l.late_ns, 0.9) as f64 / 1e3;
    (late_p90_us > LATE_P90_BOUND_US || l.gen_sink_drops > 0 || l.late_ns.is_empty()).then(|| {
        format!(
            "generator lateness p90 {late_p90_us:.1} us (bound {LATE_P90_BOUND_US} us) over {} on-time S1s, \
             {} datagrams dropped in the generator's own sockets",
            l.late_ns.len(),
            l.gen_sink_drops
        )
    })
}

fn print_ledger(l: &traced::Ledger) {
    println!(
        "traced replay: {} datagrams; spans written to {}",
        l.dgrams, l.spans_file
    );
    println!(
        "  {:<56} {:>10}   share of untraced CPU",
        "layer", "ns/datagram"
    );
    for (name, ns) in &l.table {
        println!(
            "  {name:<56} {ns:>10.0}   {:>5.1}%",
            100.0 * ratio(*ns, l.untraced_ns)
        );
    }
    println!(
        "  traced sum (recv+handle+send+poll) {:.0} ns + runtime-loop residual {:.0} ns = untraced server CPU {:.0} ns/datagram; span overhead ~{:.0} ns/datagram",
        l.traced_ns, l.runtime_ns, l.untraced_ns, l.overhead_ns
    );
    println!(
        "  ledger {}",
        if l.reconciles {
            "reconciles with the untraced CPU figure"
        } else {
            "DOES NOT RECONCILE: traced layers exceed the untraced CPU beyond the tracing allowance"
        }
    );
    if l.dominant == l.predicted {
        println!("  dominant layer: {} (as predicted)", l.dominant);
    } else {
        println!(
            "  PREDICTION FAILED: dominant layer is {}, predicted {}",
            l.dominant, l.predicted
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = json(
            true,
            10,
            1,
            &[("setup_s", 0.25, "s"), ("x", f64::NAN, "ratio")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }

    /// A short round of every workload passes the oracle with nothing
    /// lost, and its traced replay builds a ledger.
    #[test]
    fn every_workload_passes_the_oracle() {
        let _spinners = idle::IdleSpinners::start();
        for w in WORKLOADS {
            let s = Schedule::generate(w, 5, 0.8);
            let l = live::round(&s).expect("live round");
            assert!(oracle(&l).is_empty(), "{}: {:?}", w.name, oracle(&l));
            assert!(l.attempted > 0, "{}", w.name);
            assert_eq!(l.verified, l.attempted, "{}: lost messages", w.name);
            assert_eq!(l.gen_sink_drops, 0, "{}", w.name);
            let f = figures(&l, s.flows.len() as f64);
            assert!(f.lat_p50_us > 0.0 && f.cpu_us_per_s2 > 0.0 && f.sat_s2_per_s > 0.0);
            let ledger = traced::run(&s, 5, 1e5, OUT_DIR).expect("traced replay");
            assert!(ledger.dgrams > 0 && ledger.traced_ns > 0.0, "{}", w.name);
            assert!(std::path::Path::new(&ledger.spans_file).exists());
        }
    }
}
