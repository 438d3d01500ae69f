//! Host-speed reference: a fixed piece of work, timed in thread CPU time
//! next to the programs under test, that the CPU metrics are scaled by.
//!
//! CPU time already leaves out the time a program waits for a CPU, but on
//! a shared host the speed of a CPU second itself drifts. Over 14 minutes
//! of alternating runs on a two-core virtual machine, the daemon's CPU
//! time per round varied by 7.2 % and the campaign's per unit by 5.9 %
//! (standard deviation of the logarithm, per episode or invocation). The
//! reference chunk slowed down with them, and the scaled figures varied by
//! 4.7 % and 4.5 %. Dependent-load chains over 256 KiB, 4 MiB and 64 MiB
//! and a multiply chain were tried as references too; none tracked both
//! workloads better. The reference is this file's own code, so a change to
//! the programs under test cannot speed it up.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The reference chunk's CPU time at the speed the normalised metrics are
/// quoted at, in milliseconds (about what it takes on the host the
/// benchmark was tuned on).
pub const NOMINAL_CHUNK_MS: f64 = 0.25;

/// `f64`s in the reference's buffer (8 MiB, larger than a core's L2).
const BUFFER: usize = 1 << 20;

/// Steps per chunk: a random gather and write-back plus a short dot
/// product each.
const STEPS: usize = 2000;

#[repr(C)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { secs: 0, nanos: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.secs as u64 * 1_000_000_000 + ts.nanos as u64
}

/// The reference work and its state (buffer contents and generator carry
/// over from chunk to chunk, so the work cannot be hoisted out).
pub struct Reference {
    buf: Vec<f64>,
    state: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            buf: (0..BUFFER).map(|i| (i % 97) as f64).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl Reference {
    /// Runs one chunk and returns its thread CPU time in nanoseconds.
    pub fn chunk(&mut self) -> u64 {
        let start = thread_cpu_ns();
        let n = self.buf.len();
        let mut x = self.state;
        let mut acc = 0.0f64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) % n;
            let v = self.buf[i];
            acc = acc * 0.999 + (v * v + 1.0).sqrt();
            self.buf[(i * 7 + 1) % n] = acc * 1e-3;
            let base = (x as usize >> 20) % (n - 32);
            let dot: f64 = self.buf[base..base + 32]
                .iter()
                .enumerate()
                .map(|(k, b)| b * k as f64)
                .sum();
            acc += dot * 1e-9;
        }
        self.state = x;
        std::hint::black_box(acc);
        thread_cpu_ns() - start
    }
}

thread_local! {
    static REFERENCE: RefCell<Option<Reference>> = const { RefCell::new(None) };
}

/// Runs one chunk of the calling thread's reference (made on first use)
/// and returns its CPU time in nanoseconds.
pub fn chunk() -> u64 {
    REFERENCE.with(|r| {
        r.borrow_mut()
            .get_or_insert_with(Reference::default)
            .chunk()
    })
}

/// Chunks run and their summed CPU time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Chunks run.
    pub chunks: u64,
    /// Their summed CPU time, nanoseconds.
    pub ns: u64,
}

impl Tally {
    /// Adds one chunk.
    pub fn add(&mut self, ns: u64) {
        self.chunks += 1;
        self.ns += ns;
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.chunks += other.chunks;
        self.ns += other.ns;
    }

    /// Mean CPU time of a chunk, milliseconds (`None` without chunks).
    pub fn chunk_ms(&self) -> Option<f64> {
        (self.chunks > 0).then(|| self.ns as f64 / self.chunks as f64 / 1e6)
    }

    /// Scales a CPU figure measured alongside these chunks to the nominal
    /// host speed: `cpu_ms` × nominal chunk time / measured chunk time.
    pub fn normalise(&self, cpu_ms: f64) -> Option<f64> {
        self.chunk_ms().map(|ms| cpu_ms * NOMINAL_CHUNK_MS / ms)
    }
}

/// Runs a chunk every few milliseconds on a thread of its own, for
/// programs that keep every core busy themselves (the campaign), so the
/// chunks share the cores with them.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Tally>,
}

impl Sampler {
    /// Pause between chunks.
    pub const EVERY: Duration = Duration::from_millis(10);

    /// Starts sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut reference = Reference::default();
            let mut tally = Tally::default();
            while !flag.load(Ordering::Relaxed) {
                tally.add(reference.chunk());
                std::thread::sleep(Self::EVERY);
            }
            tally
        });
        Sampler { stop, handle }
    }

    /// Stops sampling and returns the chunks run.
    pub fn finish(self) -> Tally {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread does not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work_not_with_sleep() {
        let start = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_ns() - start;
        let mut reference = Reference::default();
        let busy: u64 = (0..20).map(|_| reference.chunk()).sum();
        assert!(busy > 0);
        assert!(slept < 20_000_000, "sleeping used {slept} ns of CPU");
    }

    #[test]
    fn normalising_scales_by_nominal_over_measured_chunk_time() {
        let mut tally = Tally::default();
        tally.add(400_000);
        tally.add(600_000);
        assert_eq!(tally.chunk_ms(), Some(0.5));
        let scaled = tally.normalise(2.0).expect("chunks were run");
        assert!((scaled - 2.0 * NOMINAL_CHUNK_MS / 0.5).abs() < 1e-12);
        assert_eq!(Tally::default().normalise(2.0), None);
        let mut merged = Tally::default();
        merged.merge(tally);
        assert_eq!(merged, tally);
    }

    #[test]
    fn the_sampler_runs_chunks_until_stopped() {
        let sampler = Sampler::start();
        std::thread::sleep(Duration::from_millis(60));
        let tally = sampler.finish();
        assert!(tally.chunks >= 1 && tally.ns > 0, "{tally:?}");
    }
}
