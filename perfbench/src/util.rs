//! Small helpers the benchmark relies on: order statistics, the outcome
//! digest, seed mixing and `/proc` parsing for memory and CPU time.

use merlin_inject::{FaultEffect, FaultSpec};

/// Median of `values` (the mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Index of the `q`-quantile (`0 < q < 1`) in an ascending-sorted slice of
/// `n > 0` elements: the nearest-rank definition, `ceil(q·n) − 1`.
pub fn percentile_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    ((q * n as f64).ceil() as usize)
        .saturating_sub(1)
        .min(n - 1)
}

/// Samples strictly above the `q`-quantile's index in a sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - 1 - percentile_index(n, q)
}

/// The smallest sample size that leaves at least `beyond` samples above the
/// `q`-quantile, so the quantile is an order statistic with a tail behind it.
pub fn sample_size_for(q: f64, beyond: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= beyond)
        .expect("some finite sample size leaves the requested tail")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn effect_code(effect: FaultEffect) -> u8 {
    match effect {
        FaultEffect::Masked => 0,
        FaultEffect::Sdc => 1,
        FaultEffect::Due => 2,
        FaultEffect::Timeout => 3,
        FaultEffect::Crash => 4,
        FaultEffect::Assert => 5,
    }
}

/// Digest of a campaign's outcomes: `(fault index, fault, effect)` sorted by
/// the fault's index in the submitted list, then hashed (FNV-1a), so the
/// digest pins which fault was injected and what it did, and not the order
/// the engine reported it in.
pub fn outcome_digest(outcomes: impl IntoIterator<Item = (usize, FaultSpec, FaultEffect)>) -> u64 {
    let mut rows: Vec<(usize, [u64; 4], u8)> = outcomes
        .into_iter()
        .map(|(i, f, e)| {
            let site = [
                f.structure as u64,
                f.entry as u64,
                u64::from(f.bit),
                f.cycle,
            ];
            (i, site, effect_code(e))
        })
        .collect();
    rows.sort_unstable();
    rows.iter().fold(FNV_OFFSET, |mut h, (i, site, e)| {
        h = fnv1a(h, &(*i as u64).to_le_bytes());
        for word in site {
            h = fnv1a(h, &word.to_le_bytes());
        }
        fnv1a(h, &[*e])
    })
}

/// SplitMix64 finaliser: derives independent per-campaign seeds from the
/// benchmark seed.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size in kB (`VmHWM`) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// User plus system CPU time in clock ticks from the text of
/// `/proc/<pid>/stat` (fields 14 and 15).  The command name in field 2 may
/// hold spaces and parentheses, so fields are counted after its last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After the command name, field 3 (state) is the first token, so
    // utime (field 14) and stime (field 15) are tokens 11 and 12.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
const TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident memory of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// CPU time (user + system, all threads) this process has used, in seconds.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|t| t as f64 / TICKS_PER_SECOND)
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON with all its digits (Rust's shortest round-trip
/// form); non-finite values, which JSON cannot hold, become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_inject::Structure;

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        assert_eq!(percentile_index(1000, 0.99), 989);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(sample_size_for(0.99, 10), 1000);
        assert_eq!(percentile_index(1000, 0.5), 499);
        assert_eq!(percentile_index(1, 0.99), 0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_ignores_reporting_order_but_not_content() {
        let f = |entry, cycle| FaultSpec::new(Structure::RegisterFile, entry, 3, cycle);
        let a = [
            (0, f(1, 10), FaultEffect::Masked),
            (1, f(2, 20), FaultEffect::Sdc),
            (2, f(3, 30), FaultEffect::Masked),
        ];
        let mut b = a;
        b.reverse();
        assert_eq!(outcome_digest(a), outcome_digest(b));
        let mut c = a;
        c[1].2 = FaultEffect::Due;
        assert_ne!(outcome_digest(a), outcome_digest(c));
        let mut d = a;
        d[2].1 = f(3, 31);
        assert_ne!(outcome_digest(a), outcome_digest(d));
        let e = [
            (0, f(1, 10), FaultEffect::Sdc),
            (1, f(1, 10), FaultEffect::Masked),
        ];
        let g = [
            (0, f(1, 10), FaultEffect::Masked),
            (1, f(1, 10), FaultEffect::Sdc),
        ];
        assert_ne!(outcome_digest(e), outcome_digest(g));
    }

    #[test]
    fn proc_status_yields_peak_rss() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   81234 kB\nVmRSS:\t   80000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(81234));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn proc_stat_yields_cpu_ticks_even_with_odd_command_names() {
        let stat = "4242 (perf bench) (x)) R 1 4242 4242 0 -1 4194304 \
                    1234 0 0 0 250 37 0 0 20 0 3 0 100 1000000 2000";
        assert_eq!(parse_cpu_ticks(stat), Some(287));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
