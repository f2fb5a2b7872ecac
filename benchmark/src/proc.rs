//! Subprocess runs with peak-memory sampling, and the driver's own
//! peak-memory reset.
//!
//! `VmHWM` in `/proc/<pid>/status` is a process's peak resident set and
//! never decreases, so a fresh child's value is its own peak and the
//! driver's value would otherwise carry over from the previous workload.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the watcher samples the child's `VmHWM`.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// A finished child process.
#[derive(Debug)]
pub struct ChildRun {
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// Exit status, stdout and stderr.
    pub output: Output,
    /// Highest `VmHWM` seen, in kB (0 if the child exited before the
    /// first sample).
    pub peak_kb: u64,
}

impl ChildRun {
    /// The child's stdout, or an error naming the failed command.
    pub fn stdout_if_ok(&self, what: &str) -> Result<String, String> {
        if !self.output.status.success() {
            return Err(format!(
                "{what} exited with {}: {}",
                self.output.status,
                String::from_utf8_lossy(&self.output.stderr).trim()
            ));
        }
        String::from_utf8(self.output.stdout.clone()).map_err(|e| format!("{what}: {e}"))
    }
}

/// The value printed after `label` on one of the lines of a `rim`
/// report.
pub fn field<'a>(out: &'a str, label: &str) -> Option<&'a str> {
    out.lines()
        .find_map(|l| l.strip_prefix(label))
        .map(str::trim)
}

/// `VmHWM` (kB) from a `/proc/<pid>/status` text.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn vm_hwm_of(pid: u32) -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Runs `cmd` to completion, capturing its output. One watcher thread
/// samples the child's `VmHWM` every 5 ms while this thread blocks in
/// the wait; the wall time stops at the wait, before the watcher joins.
pub fn run_watched(cmd: &mut Command) -> std::io::Result<ChildRun> {
    use std::process::Stdio;
    let start = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut peak = 0;
            // Stops once the child is reaped, before its pid can be
            // reused. The flag publishes no other data.
            while !done.load(Ordering::SeqCst) {
                peak = vm_hwm_of(pid).unwrap_or(0).max(peak);
                std::thread::park_timeout(SAMPLE_EVERY);
            }
            peak
        });
        let output = child.wait_with_output();
        let wall = start.elapsed();
        done.store(true, Ordering::SeqCst);
        watcher.thread().unpark();
        let peak_kb = watcher.join().expect("the VmHWM watcher does not panic");
        Ok(ChildRun {
            wall,
            output: output?,
            peak_kb,
        })
    })
}

/// Resets this process's `VmHWM` to its current RSS (Linux ≥ 4.0).
pub fn reset_own_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// This process's `VmHWM` in kB.
pub fn own_peak_kb() -> Result<u64, String> {
    rim_obs::peak_rss_kb().ok_or_else(|| "VmHWM is unavailable".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark() {
        let status = "Name:\trim\nVmPeak:\t  999 kB\nVmHWM:\t   123456 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(123_456));
        assert_eq!(parse_vm_hwm("Name:\trim\n"), None);
    }

    #[test]
    fn watched_child_reports_output_and_memory() {
        // `sleep` outlives several samples, so the watcher sees it.
        let run = run_watched(Command::new("sleep").arg("0.05")).unwrap();
        assert!(run.output.status.success());
        assert!(run.peak_kb > 0);
        assert!(run.wall >= Duration::from_millis(50));
        let bad = run_watched(Command::new("sh").args(["-c", "echo oops >&2; exit 3"])).unwrap();
        let err = bad.stdout_if_ok("sh").unwrap_err();
        assert!(err.contains("oops"), "{err}");
    }

    #[test]
    fn own_peak_resets_to_current_rss() {
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let high = own_peak_kb().unwrap();
        drop(big);
        reset_own_peak().unwrap();
        let low = own_peak_kb().unwrap();
        assert!(
            low + 32_000 < high,
            "{low} kB after reset vs {high} kB before"
        );
    }
}
