//! Per-thread CPU accounting from `/proc/self/task/*/{comm,stat}`,
//! attributed by thread name. `schedstat` (nanoseconds on CPU) is used
//! where the kernel provides it; otherwise `stat`'s utime + stime ticks.

use std::collections::BTreeMap;
use std::fs;

/// Thread-name prefixes the benchmark attributes CPU time to.
pub const RESOLVED: &str = "resolved-";
pub const AUTHD: &str = "authd-";
pub const CLIENT: &str = "perf-client";
pub const REPLAY: &str = "sim-replay";

/// CPU nanoseconds per live thread, keyed by thread id, with its name.
#[derive(Debug, Clone, Default)]
pub struct CpuSnapshot {
    threads: BTreeMap<u32, (String, u64)>,
}

/// Clock ticks per second for `stat` fields (`sysconf(_SC_CLK_TCK)` is
/// 100 on every Linux configuration in practice).
const CLK_TCK: u64 = 100;

fn thread_cpu_ns(dir: &str) -> Option<u64> {
    if let Ok(s) = fs::read_to_string(format!("{dir}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|v| v.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = fs::read_to_string(format!("{dir}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1_000_000_000 / CLK_TCK)
}

impl CpuSnapshot {
    /// Reads every thread of this process.
    pub fn take() -> CpuSnapshot {
        let mut threads = BTreeMap::new();
        if let Ok(entries) = fs::read_dir("/proc/self/task") {
            for e in entries.flatten() {
                let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let dir = format!("/proc/self/task/{tid}");
                let name = fs::read_to_string(format!("{dir}/comm"))
                    .map(|s| s.trim_end().to_string())
                    .unwrap_or_default();
                if let Some(ns) = thread_cpu_ns(&dir) {
                    threads.insert(tid, (name, ns));
                }
            }
        }
        CpuSnapshot { threads }
    }

    /// CPU nanoseconds spent since `earlier` by threads whose name starts
    /// with `prefix` (threads born in between count from zero).
    pub fn ns_since(&self, earlier: &CpuSnapshot, prefix: &str) -> u64 {
        self.threads
            .iter()
            .filter(|(_, (name, _))| name.starts_with(prefix))
            .map(|(tid, (_, ns))| {
                let before = earlier.threads.get(tid).map_or(0, |(_, b)| *b);
                ns.saturating_sub(before)
            })
            .sum()
    }
}

/// Spawns a thread under `name` (visible in `/proc/self/task/*/comm`).
pub fn spawn_named<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("spawn benchmark thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_cpu_to_named_threads() {
        let before = CpuSnapshot::take();
        let h = spawn_named("perf-client-t", || {
            let t = std::time::Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < 60 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            CpuSnapshot::take()
        });
        let inside = h.join().unwrap();
        let ns = inside.ns_since(&before, "perf-client-t");
        assert!(
            ns > 20_000_000,
            "busy thread should show CPU time, got {ns}"
        );
        assert_eq!(inside.ns_since(&before, "no-such-thread"), 0);
    }
}
