//! Idle spinners: one lowest-priority (`SCHED_IDLE`) thread pinned to each
//! CPU, spinning whenever that CPU would otherwise idle.
//!
//! On a virtual machine an idle vCPU halts and must be woken by the
//! hypervisor, which puts the host's scheduling noise into every engine
//! wake-up (relay p90 ranged from 0.5 to 2 ms between identical runs
//! without spinners). A waking engine worker preempts a spinner at once,
//! so the effect is that of booting with `idle=poll` for a latency
//! benchmark. One spinner per CPU, because a single one may settle on the
//! generator's CPU, where it never runs, and leave the other CPU to halt.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Thread ids of the running spinners, excluded from engine CPU time.
static SPINNERS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Whether `tid` is one of the running spinners.
pub fn is_spinner(tid: u32) -> bool {
    SPINNERS.lock().map(|s| s.contains(&tid)).unwrap_or(false)
}

/// The running spinners; dropping stops and joins them.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    /// Start a spinner on every CPU this process may use; returns once
    /// each runs at idle priority on its CPU.
    #[must_use]
    pub fn start() -> IdleSpinners {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready, up) = std::sync::mpsc::channel();
        let cpus = allowed_cpus();
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let flag = Arc::clone(&stop);
                let ready = ready.clone();
                std::thread::spawn(move || {
                    let tid = std::fs::read_link("/proc/thread-self")
                        .ok()
                        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
                        .unwrap_or(0);
                    if let Ok(mut s) = SPINNERS.lock() {
                        s.push(tid);
                    }
                    pin_self(cpu);
                    set_idle_priority();
                    let _ = ready.send(());
                    while !flag.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        for _ in &cpus {
            let _ = up.recv();
        }
        IdleSpinners { stop, threads }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Ok(mut s) = SPINNERS.lock() {
            s.clear();
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    pub struct SchedParam {
        pub priority: i32,
    }
    pub const SCHED_IDLE: i32 = 5;
    /// Bits in the affinity masks passed below (1024 CPUs).
    pub const MASK_WORDS: usize = 16;
    extern "C" {
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; sys::MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc =
            unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..sys::MASK_WORDS * 64)
                .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
                .collect();
        }
    }
    Vec::new()
}

/// Pin the calling thread to `cpu` (best-effort).
fn pin_self(cpu: usize) {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; sys::MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread, so no other thread is affected.
        let _ = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpu;
}

/// Move the calling thread to the idle scheduling class (best-effort).
fn set_idle_priority() {
    #[cfg(target_os = "linux")]
    {
        let param = sys::SchedParam { priority: 0 };
        // SAFETY: `param` is a valid sched_param for the duration of the
        // call; pid 0 names the calling thread.
        let _ = unsafe { sys::sched_setscheduler(0, sys::SCHED_IDLE, &param) };
    }
}
