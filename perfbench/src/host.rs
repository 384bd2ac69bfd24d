//! What the host and the build were, printed with every report so that
//! runs from different hosts or builds are never compared, and the
//! process's peak resident memory.

use crate::metrics::json_string;

/// Worker threads finufft-cpu runs with in every workload.
pub const CPU_NTHREADS: usize = 2;

#[derive(Clone, Debug)]
pub struct HostInfo {
    pub nproc: usize,
    /// `Device::host_parallelism()` of a fresh device.
    pub gpu_sim_host_threads: usize,
    /// The `GPU_SIM_HOST_THREADS` environment variable, if set.
    pub gpu_sim_host_threads_env: Option<String>,
    pub finufft_cpu_nthreads: usize,
    pub profile: &'static str,
    pub rustc: &'static str,
}

impl HostInfo {
    pub fn probe() -> Self {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            gpu_sim_host_threads: gpu_sim::Device::v100().host_parallelism(),
            gpu_sim_host_threads_env: std::env::var("GPU_SIM_HOST_THREADS").ok(),
            finufft_cpu_nthreads: CPU_NTHREADS,
            profile: env!("PERFBENCH_PROFILE"),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"gpu_sim_host_parallelism\": {}, \"GPU_SIM_HOST_THREADS\": {}, \"finufft_cpu_nthreads\": {}, \"profile\": {}, \"rustc\": {}}}",
            self.nproc,
            self.gpu_sim_host_threads,
            self.gpu_sim_host_threads_env
                .as_deref()
                .map_or("null".to_string(), json_string),
            self.finufft_cpu_nthreads,
            json_string(self.profile),
            json_string(self.rustc)
        )
    }
}

/// Reset this process's resident-set high-water mark to its current
/// resident set (`echo 5 > /proc/self/clear_refs`); `false` where the
/// kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory over windows of a run (one op, or a few served
/// requests): each window starts by resetting the high-water mark and
/// ends by reading it. The median window peak repeats far better than a
/// whole-run peak, which one unlucky host schedule can set.
#[derive(Debug, Default, Clone)]
pub struct RssWindows {
    resettable: bool,
    peaks: Vec<f64>,
}

impl RssWindows {
    pub fn new() -> Self {
        RssWindows {
            resettable: reset_peak_rss(),
            peaks: Vec::new(),
        }
    }

    pub fn start(&mut self) {
        if self.resettable {
            reset_peak_rss();
        }
    }

    pub fn end(&mut self) {
        if self.resettable {
            if let Some(p) = peak_rss_bytes() {
                self.peaks.push(p as f64);
            }
        }
    }

    /// Median window peak, or the whole-process peak where the mark
    /// cannot be reset.
    pub fn median(&self) -> Option<f64> {
        crate::metrics::median(&self.peaks).or_else(|| peak_rss_bytes().map(|p| p as f64))
    }
}

/// Peak resident set size of this process in bytes (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}
