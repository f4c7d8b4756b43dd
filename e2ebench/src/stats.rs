//! Percentiles, the `/proc` readings the benchmark takes (per-thread
//! on-CPU time, resident memory, per-socket kernel drop counters) and the
//! receive-queue depth it asks for on its own sockets.

use std::collections::HashMap;
use std::net::UdpSocket;

/// Nearest-rank percentile of sorted `values` (`q` in `(0, 1]`); 0 when
/// empty.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values; 0 when empty.
#[must_use]
pub fn median(values: &[u64]) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5)
}

/// Median of floats (upper median for even counts); 0 when empty.
#[must_use]
pub fn median_f(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// On-CPU nanoseconds of every thread of this process except the main
/// one and the idle spinners, by thread id
/// (`/proc/self/task/<tid>/schedstat`, first field). The benchmark's only
/// other threads are the engine's.
#[must_use]
pub fn engine_thread_cpu_ns() -> HashMap<u32, u64> {
    let main = std::process::id();
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if tid == main || crate::idle::is_spinner(tid) {
            continue;
        }
        let path = entry.path().join("schedstat");
        if let Some(ns) = std::fs::read_to_string(path)
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        {
            out.insert(tid, ns);
        }
    }
    out
}

/// On-CPU nanoseconds of the calling thread.
#[must_use]
pub fn own_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// CPU the engine threads spent between two [`engine_thread_cpu_ns`]
/// readings; a thread born in between counts from zero.
#[must_use]
pub fn cpu_delta_ns(before: &HashMap<u32, u64>, after: &HashMap<u32, u64>) -> u64 {
    after
        .iter()
        .map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// Resident set size in bytes (`/proc/self/statm`, 4 KiB pages).
#[must_use]
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|f| f.parse::<u64>().ok())
        })
        .map_or(0, |pages| pages * 4096)
}

/// Bytes the allocator holds for live allocations, over all arenas
/// (glibc `mallinfo2`: `uordblks + hblkhd`); 0 where unavailable.
#[must_use]
pub fn heap_bytes() -> u64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        #[repr(C)]
        struct MallInfo2 {
            arena: usize,
            ordblks: usize,
            smblks: usize,
            hblks: usize,
            hblkhd: usize,
            usmblks: usize,
            fsmblks: usize,
            uordblks: usize,
            fordblks: usize,
            keepcost: usize,
        }
        extern "C" {
            fn mallinfo2() -> MallInfo2;
        }
        // SAFETY: mallinfo2 takes no arguments and returns a plain struct
        // by value; it only reads allocator bookkeeping.
        let m = unsafe { mallinfo2() };
        return (m.uordblks + m.hblkhd) as u64;
    }
    #[allow(unreachable_code)]
    0
}

/// Kernel receive-queue drops of the IPv4 UDP sockets bound to `ports`
/// on this host (`/proc/self/net/udp`, last column), summed.
#[must_use]
pub fn udp_drops(ports: &[u16]) -> u64 {
    let Ok(table) = std::fs::read_to_string("/proc/self/net/udp") else {
        return 0;
    };
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let port = fields.get(1)?.rsplit(':').next()?;
            let port = u16::from_str_radix(port, 16).ok()?;
            if !ports.contains(&port) {
                return None;
            }
            fields.last()?.parse::<u64>().ok()
        })
        .sum()
}

/// Ask for a deep kernel receive queue (clamped by `net.core.rmem_max`),
/// so that a short stall of the generator thread does not overflow it.
pub fn deepen_recv_buffer(sock: &UdpSocket, bytes: usize) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        const SOL_SOCKET: i32 = 1;
        const SO_RCVBUF: i32 = 8;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
        }
        let value = i32::try_from(bytes).unwrap_or(i32::MAX);
        // SAFETY: `fd` is a live socket owned by `sock` for the duration
        // of the call; `value` is a valid i32 whose size is passed as the
        // option length, as SO_RCVBUF expects.
        let _ = unsafe {
            setsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                std::ptr::addr_of!(value).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (sock, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(median(&[9, 1, 5]), 5);
        assert!((median_f(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn proc_readings_see_this_process() {
        assert!(rss_bytes() > 0);
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        deepen_recv_buffer(&sock, 1 << 20);
        let port = sock.local_addr().unwrap().port();
        assert_eq!(udp_drops(&[port]), 0);
        let before = engine_thread_cpu_ns();
        let t = std::thread::spawn(|| {
            let start = std::time::Instant::now();
            while start.elapsed().as_millis() < 20 {}
        });
        t.join().unwrap();
        let _ = cpu_delta_ns(&before, &engine_thread_cpu_ns());
    }
}
