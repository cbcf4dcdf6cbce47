//! Order statistics, the seeded request order and `/proc` sampling.

use std::io;

/// Nearest-rank percentile of an ascending slice, `q` in `0..=1`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same request order on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub fn shuffle(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// Linux reports `utime`/`stime` in USER_HZ ticks, which is 100 on every
/// architecture Linux supports.
const USER_HZ: f64 = 100.0;

/// Ticks the host took from this machine's vCPUs (`steal` in
/// `/proc/stat`) and all ticks, summed over CPUs: a run records the share
/// stolen during its timed phase, which is when its numbers are noisy.
pub fn host_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .ok_or_else(|| io::Error::other("malformed /proc/stat"))?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    Ok((
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    ))
}

/// What the benchmark reads about a process from `/proc/<pid>`.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    /// User plus system CPU time of all threads, in seconds.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`), in KiB.
    pub hwm_kib: u64,
    /// Live threads (`Threads:`).
    pub threads: u64,
}

pub fn sample(pid: u32) -> io::Result<ProcSample> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name, starting at field 3
    // (`state`); `utime` and `stime` are fields 14 and 15.
    let after_comm = stat
        .rsplit_once(')')
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?
        .1;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |k: usize| -> io::Result<f64> {
        fields
            .get(k)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    let cpu_s = (ticks(11)? + ticks(12)?) / USER_HZ;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let field = |name: &str| -> io::Result<u64> {
        status
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other(format!("no {name} in /proc status")))
    };
    Ok(ProcSample {
        cpu_s,
        hwm_kib: field("VmHWM:")?,
        threads: field("Threads:")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = Rng::new(7).shuffle(50);
        assert_eq!(a, Rng::new(7).shuffle(50));
        assert_ne!(a, Rng::new(8).shuffle(50));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn samples_this_process_and_host() {
        let s = sample(std::process::id()).unwrap();
        assert!(s.hwm_kib > 0 && s.threads >= 1);
        let (steal, total) = host_ticks().unwrap();
        assert!(total > 0 && steal <= total);
    }
}
