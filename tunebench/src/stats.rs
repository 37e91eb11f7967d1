//! Summary statistics and the few host facts the report needs.

/// Geometric mean of strictly positive values; `None` when `values` is
/// empty or holds a value that is not finite and positive.
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Median (the mean of the two middle values for an even count); `None`
/// for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; `None` for an
/// empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentiles the tail figure may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// `min_beyond` samples above it, as `(percentile, value)`; `None` when
/// even the median does not.
#[must_use]
pub fn tail_percentile(values: &[f64], min_beyond: usize) -> Option<(f64, f64)> {
    let n = values.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        (n.saturating_sub(rank) >= min_beyond).then(|| (p, percentile(values, p).expect("n > 0")))
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The peak resident set (`VmHWM`, KiB) from the text of
/// `/proc/<pid>/status`.
#[must_use]
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = line.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// Reset this process's peak resident set to its current size, so the
/// next [`peak_rss_mib`] reports the peak since now.
///
/// # Errors
/// When `/proc/self/clear_refs` cannot be written (Linux before 4.0).
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS: {e}"))
}

/// Peak resident memory of this process in MiB (since the last
/// [`reset_peak_rss`]). Child processes (the shard workers) are not
/// included.
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// FNV-1a over `bytes`: the digest pinned for tuned configs.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[4.0]), Some(4.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly 10 samples above it; p95 only 5.
        assert_eq!(tail_percentile(&v, 10), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 10), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&v[..15], 10), None);
        assert_eq!(tail_percentile(&v[..20], 10), Some((50.0, 10.0)));
    }

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status =
            "Name:\ttunebench\nVmPeak:\t  300000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51_234));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn peak_rss_resets_to_the_current_size() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mib().unwrap();
        reset_peak_rss().unwrap();
        let after = peak_rss_mib().unwrap();
        assert!(after > 0.0 && after + 32.0 < before, "{before} -> {after}");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
