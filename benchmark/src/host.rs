//! The host descriptor recorded with every result, and the process's peak
//! resident memory.

/// What a host-time number depends on besides the code.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores the process may use.
    pub nproc: usize,
    /// The `SOFA_THREADS` worker count the workloads ran at.
    pub sofa_threads: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the compiler on the path.
    pub rustc: String,
    /// Median host milliseconds of the reference pass timed before each
    /// set-up and run. Host times are reported scaled by
    /// `NOMINAL_MS / ref_loop_ms`, per pass.
    pub ref_loop_ms: f64,
}

impl Host {
    /// Describes this host for a run at `sofa_threads` workers whose
    /// reference passes took `ref_loop_ms` (median).
    pub fn probe(sofa_threads: usize, ref_loop_ms: f64) -> Host {
        Host {
            nproc: available_cores(),
            sofa_threads,
            cpu_model: cpu_model(),
            rustc: rustc_version(),
            ref_loop_ms,
        }
    }

    /// The descriptor as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"sofa_threads\":{},\"cpu_model\":{},\"rustc\":{},\"ref_loop_ms\":{}}}",
            self.nproc,
            self.sofa_threads,
            crate::json_string(&self.cpu_model),
            crate::json_string(&self.rustc),
            self.ref_loop_ms,
        )
    }
}

/// Cores the process may use (1 when unknown).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
