//! Process counters from `/proc`: CPU time, page faults, context switches
//! and peak resident memory — read without libc.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every supported architecture.
const TICKS_PER_S: f64 = 100.0;

/// A snapshot of this process's cumulative counters. CPU and fault counts
/// cover every thread, plus children that have been waited for (the proc
/// transport's workers are reaped when a run's transport drops).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User CPU seconds (self + reaped children).
    pub user_s: f64,
    /// System CPU seconds (self + reaped children).
    pub sys_s: f64,
    /// Minor page faults (self + reaped children).
    pub minor_faults: u64,
    /// Voluntary context switches of the main thread (the thread that joins
    /// every `par` scope and blocks on every socket window).
    pub vol_ctx_switches: u64,
}

impl ProcSample {
    /// Reads the counters now.
    pub fn now() -> ProcSample {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, so `rest[i]` is field `i + 3`.
        let rest: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, r)| r.split_whitespace().collect())
            .unwrap_or_default();
        let field = |n: usize| -> u64 { rest.get(n - 3).and_then(|t| t.parse().ok()).unwrap_or(0) };
        ProcSample {
            user_s: (field(14) + field(16)) as f64 / TICKS_PER_S,
            sys_s: (field(15) + field(17)) as f64 / TICKS_PER_S,
            minor_faults: field(10) + field(11),
            vol_ctx_switches: status_field("/proc/self/status", "voluntary_ctxt_switches"),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            vol_ctx_switches: self.vol_ctx_switches - earlier.vol_ctx_switches,
        }
    }

    /// User + system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Reads one `key:\t<number> [kB]` line of a `/proc/<pid>/status` file.
pub fn status_field(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// This process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_monotone() {
        let a = ProcSample::now();
        let mut v = vec![0u8; 8 << 20];
        for (i, b) in v.iter_mut().enumerate() {
            *b = i as u8;
        }
        std::hint::black_box(&v);
        let d = ProcSample::now().since(&a);
        assert!(d.minor_faults > 0, "touching 8 MB must fault pages in");
        assert!(peak_rss_mb() > 8.0);
    }
}
