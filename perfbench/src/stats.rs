//! Order statistics, host facts, and the JSON metric record.

use serde_json::{Map, Value};

/// Percentile `q` (in `[0, 1]`) of `values`: the mean of the order
/// statistics within one binomial standard deviation, `sqrt(n q (1 - q))`
/// ranks, of the nearest rank. Averaging over the rank's own sampling
/// error steadies tail percentiles drawn from a few hundred samples;
/// `None` when there are no values.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let k = (n as f64 * q * (1.0 - q)).sqrt().round() as usize;
    let window = &sorted[rank.saturating_sub(k)..=(rank + k).min(n - 1)];
    Some(window.iter().sum::<f64>() / window.len() as f64)
}

/// The median ([`percentile`] 0.5).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Named metrics in output order, each with its unit and the number of
/// samples it was computed from.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str, usize)>,
}

impl Metrics {
    /// Records `name`; a metric with no samples is recorded as missing
    /// so the caller can refuse to report it.
    pub fn put(
        &mut self,
        name: impl Into<String>,
        value: Option<f64>,
        unit: &'static str,
        samples: usize,
    ) {
        self.entries
            .push((name.into(), value.unwrap_or(f64::NAN), unit, samples));
    }

    /// Names of metrics that have no finite value.
    pub fn missing(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, v, _, _)| !v.is_finite())
            .map(|(n, _, _, _)| n.as_str())
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}}`, the shape the result line
    /// carries, plus `"samples"` when `samples` is set. Missing values
    /// are left out.
    pub fn to_json(&self, samples: bool) -> Value {
        let mut map = Map::new();
        for (name, value, unit, n) in self.entries.iter().filter(|e| e.1.is_finite()) {
            let mut entry = serde_json::json!({"value": *value, "unit": *unit});
            if let (true, Value::Object(fields)) = (samples, &mut entry) {
                fields.insert("samples".into(), Value::from(*n));
            }
            map.insert(name.clone(), entry);
        }
        Value::Object(map)
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A Linux `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread held to one CPU; threads it spawns meanwhile
/// inherit that and keep it. Dropping the pin gives the calling thread
/// back its former CPU set.
pub struct CpuPin {
    saved: CpuSet,
    /// The CPU the thread is held to.
    pub cpu: usize,
}

impl CpuPin {
    /// Holds the calling thread to the lowest CPU it may run on.
    pub fn lowest() -> Result<CpuPin, String> {
        let mut saved: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `saved` is a live, writable buffer of exactly `size`
        // bytes; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut saved) } != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let cpu = (0..1024)
            .find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)
            .ok_or("the thread may run on no CPU")?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one)?;
        Ok(CpuPin { saved, cpu })
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        // Restoring a set the kernel handed out can only fail if CPUs
        // went offline meanwhile; the thread then stays pinned, which
        // slows the output checks but changes no result.
        let _ = set_affinity(&self.saved);
    }
}

fn set_affinity(mask: &CpuSet) -> Result<(), String> {
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Hardware threads available; the vendored rayon stand-in sizes its
/// pool to exactly this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_averages_one_rank_deviation_around_the_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 50, deviation 5: the mean of 45..=55.
        assert_eq!(median(&values), Some(50.0));
        // Rank 99, deviation 1: the mean of 98..=100.
        assert_eq!(percentile(&values, 0.99), Some(99.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
