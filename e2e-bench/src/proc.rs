//! Child processes: spawning the programs under test and sampling their
//! peak resident memory.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The machine's available parallelism: the worker threads the campaign
/// runs with.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A command for one of the programs under test: worker threads pinned to
/// `workers`, fault injection and model overrides cleared from the
/// environment.
pub fn program(binary: &Path, workers: usize) -> Command {
    let mut cmd = Command::new(binary);
    cmd.env("RAYON_NUM_THREADS", workers.to_string())
        .env_remove("ALIC_CHAOS")
        .env_remove("ALIC_MODEL")
        .env_remove("ALIC_SCALE")
        .env_remove("ALIC_CAMPAIGN_DIR")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// KiB.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// Current `VmHWM` of a live process in KiB; `None` once it has exited
/// (a zombie's status has no memory lines) or off Linux.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux architecture).
pub const CLOCK_TICKS: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` text, in clock ticks: the CPU
/// time of every thread of the process, the exited ones included. Fields
/// are counted after the closing parenthesis of the command name, which
/// may itself hold spaces or parentheses.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds a live (or exited but not yet reaped) process has used.
///
/// The kernel charges a thread only while it runs, not while it waits for
/// a CPU, so on a shared host this moves far less than wall time.
pub fn cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / CLOCK_TICKS)
}

/// Samples a child's `VmHWM` every few milliseconds until stopped. The
/// value is a high-water mark, so the last sample taken before the child
/// exits is its peak.
pub struct HwmSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Option<u64>>,
}

impl HwmSampler {
    /// Sampling interval.
    pub const EVERY: Duration = Duration::from_millis(5);

    /// Starts sampling `pid`.
    pub fn start(pid: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = None;
            while !flag.load(Ordering::Relaxed) {
                match vm_hwm_kb(pid) {
                    Some(kb) => peak = peak.max(Some(kb)),
                    None if peak.is_some() => break,
                    None => {}
                }
                std::thread::sleep(Self::EVERY);
            }
            peak
        });
        HwmSampler { stop, handle }
    }

    /// Stops sampling and returns the peak seen, in KiB.
    pub fn finish(self) -> Option<u64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread does not panic")
    }
}

/// Kills a child (if still running) and reaps it.
pub fn kill_and_wait(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vm_hwm_line() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(1234));
        assert_eq!(parse_vm_hwm("Name:\tzombie\nState:\tZ (zombie)\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_past_an_awkward_command_name() {
        let stat = "42 (a b) c)) S 1 42 42 0 -1 4194560 100 0 0 0 250 17 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(stat), Some(267));
        assert_eq!(parse_cpu_ticks("42 (x) S 1 2"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn reads_cpu_time_of_a_busy_child() {
        let mut child = Command::new("sh")
            .args(["-c", "while :; do :; done"])
            .spawn()
            .expect("sh runs");
        let first = cpu_s(child.id());
        std::thread::sleep(Duration::from_millis(300));
        let second = cpu_s(child.id());
        kill_and_wait(&mut child);
        let (first, second) = (first.expect("live"), second.expect("live"));
        assert!(second > 0.0 && second >= first, "{first} then {second}");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn samples_a_child_before_it_exits() {
        let mut child = Command::new("sleep")
            .arg("0.3")
            .spawn()
            .expect("sleep runs");
        let pid = child.id();
        let sampler = HwmSampler::start(pid);
        assert!(vm_hwm_kb(pid).is_some_and(|kb| kb > 0));
        child.wait().expect("sleep exits");
        let peak = sampler.finish();
        assert!(peak.is_some_and(|kb| kb > 0), "{peak:?}");
    }
}
