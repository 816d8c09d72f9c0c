//! Sample statistics, stream digests and `/proc` readers.

/// Fewest samples a p90 is reported from: at least 10 must lie beyond
/// it, so one stray sample cannot move it.
pub const MIN_P90_SAMPLES: usize = 100;

/// Nearest-rank quantile of `samples` (`0 < q <= 1`); `None` if empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// p90, or `None` below [`MIN_P90_SAMPLES`] samples.
pub fn p90(samples: &[f64]) -> Option<f64> {
    if samples.len() < MIN_P90_SAMPLES {
        return None;
    }
    quantile(samples, 0.9)
}

/// FNV-1a 64 over a record stream: every line followed by `\n`, exactly
/// as `JsonlSink` writes it and `/jobs/{id}/stream` serves it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn of_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Digest {
        let mut d = Digest::default();
        for l in lines {
            d.line(l);
        }
        d
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one)
/// in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user + system, all threads) a process has used, in
/// seconds, from `/proc/PID/stat`, which counts it in ticks of 1/100 s.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // After the parenthesised command name come fields 3, 4, …; utime
    // and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Cumulative (busy, steal) jiffies of all CPUs, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    let get = |i: usize| f.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal
    let busy = get(0) + get(1) + get(2) + get(5) + get(6);
    (busy, get(7))
}

/// The hypervisor's share of the CPU time this process's host wanted
/// since the meter started: steal / (busy + steal), all CPUs.
pub struct StealMeter((u64, u64));

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_jiffies())
    }

    pub fn share(&self) -> f64 {
        let (busy0, steal0) = self.0;
        let (busy1, steal1) = cpu_jiffies();
        let steal = steal1.saturating_sub(steal0);
        steal as f64 / (busy1.saturating_sub(busy0) + steal).max(1) as f64
    }
}

/// A cycle or block during which the hypervisor withheld more than
/// this share of the CPU time is disturbed: it measured the host, not
/// the program.
pub const STEAL_LIMIT: f64 = 0.05;

/// Fewest cycles or blocks a median is taken over.
pub const MIN_UNDISTURBED: usize = 3;

/// Which cycles, rounds or blocks to measure over: those with at most
/// [`STEAL_LIMIT`] steal when there are at least `min` of them holding
/// at least `min_samples` of the `samples` between them; else the least
/// disturbed, as many as it takes to reach both (or all there are).
/// Selection looks only at steal, never at what was measured.
pub fn least_disturbed(
    steal: &[f64],
    samples: &[usize],
    min: usize,
    min_samples: usize,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let clean = idx.iter().filter(|&&i| steal[i] <= STEAL_LIMIT).count();
    let mut take = clean.max(min).min(idx.len());
    while take < idx.len() && idx[..take].iter().map(|&i| samples[i]).sum::<usize>() < min_samples {
        take += 1;
    }
    idx.truncate(take);
    idx.sort_unstable();
    idx
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_omitted_below_100_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90(&few), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&enough), Some(90.0));
        assert_eq!(median(&enough), Some(50.0));
    }

    #[test]
    fn the_least_disturbed_entries_are_kept() {
        let three = |steal: &[f64]| least_disturbed(steal, &vec![0; steal.len()], 3, 0);
        assert_eq!(three(&[0.0, 0.5, 0.01, 0.02]), vec![0, 2, 3]);
        assert_eq!(three(&[0.0, 0.5, 0.01, 0.6, 0.3]), vec![0, 2, 4]);
        assert_eq!(three(&[0.4, 0.5]), vec![0, 1]);
        let none = [0; 4];
        assert_eq!(
            least_disturbed(&[0.3, 0.0, 0.2, 0.1], &none, 2, 0),
            vec![1, 3]
        );
        assert_eq!(
            least_disturbed(&[0.0, 0.0, 0.2, 0.0], &none, 2, 0),
            vec![0, 1, 3]
        );
        // Too few samples in the clean entries: the least disturbed join.
        let sizes = [40, 40, 40, 40];
        assert_eq!(
            least_disturbed(&[0.0, 0.3, 0.2, 0.0], &sizes, 2, 100),
            vec![0, 2, 3]
        );
        assert_eq!(
            least_disturbed(&[0.0, 0.3, 0.2, 0.0], &sizes, 2, 1000),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn digest_sees_every_byte() {
        let a = Digest::of_lines(["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(a, Digest::of_lines(["{\"a\":1}", "{\"b\":2}"]));
        assert_ne!(a, Digest::of_lines(["{\"a\":1}", "{\"b\":3}"]));
        assert_ne!(a, Digest::of_lines(["{\"a\":1}{\"b\":2}"]));
    }
}
