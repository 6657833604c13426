//! Sample arithmetic for the report: percentiles from raw sorted samples,
//! medians across repetitions, and ratios that carry their base.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; otherwise the tail is not resolved.
pub const MIN_BEYOND: usize = 10;

/// Sort samples ascending. A failed request is an infinite sample, so it
/// sorts last and counts as a miss at every percentile it reaches.
///
/// # Panics
/// Panics on a NaN sample: no measurement produces one.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// Nearest-rank percentile of ascending `sorted` samples, with the
/// percentile given in basis points (`9900` is p99). The rank is
/// `ceil(bp * n / 10000)`, computed in integers so p99 of 1000 samples is
/// exactly the 990th. Returns `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond that rank.
pub fn percentile(sorted: &[f64], bp: u32) -> Option<f64> {
    assert!(
        bp > 0 && bp < 10_000,
        "percentile must lie strictly inside (0, 100)"
    );
    let n = sorted.len();
    let rank = (u64::from(bp) * n as u64).div_ceil(10_000) as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Percentiles tried, highest first, when a tail must be named.
pub const TAIL_CANDIDATES_BP: [u32; 6] = [9990, 9900, 9500, 9000, 7500, 5000];

/// The highest percentile of [`TAIL_CANDIDATES_BP`] that is resolved,
/// as `(basis points, value)`.
pub fn highest_resolved(sorted: &[f64]) -> Option<(u32, f64)> {
    TAIL_CANDIDATES_BP
        .iter()
        .find_map(|&bp| percentile(sorted, bp).map(|v| (bp, v)))
}

/// `"p99"`, `"p99.9"`, … for a basis-point percentile.
pub fn percentile_label(bp: u32) -> String {
    if bp.is_multiple_of(100) {
        format!("p{}", bp / 100)
    } else {
        format!("p{}", f64::from(bp) / 100.0)
    }
}

/// Median of unsorted values (mean of the middle two for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A ratio reported together with the base it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// `numerator / base`, or 0 when the base is 0 (nothing to divide).
    pub value: f64,
    /// The denominator.
    pub base: f64,
}

/// `numerator / base`, carrying the base; 0 over an empty base.
pub fn ratio(numerator: f64, base: f64) -> Ratio {
    Ratio {
        value: if base > 0.0 { numerator / base } else { 0.0 },
        base,
    }
}

/// `bp` percentile of sorted samples, falling back to the highest resolved
/// percentile (named on stdout) when the tail has too few samples; 0 for
/// an idle layer.
pub fn tail(sorted: &[f64], bp: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    match percentile(sorted, bp) {
        Some(v) => v,
        None => match highest_resolved(sorted) {
            Some((got, v)) => {
                println!(
                    "note: {} unresolved over {} samples; reporting {}",
                    percentile_label(bp),
                    sorted.len(),
                    percentile_label(got)
                );
                v
            }
            None => sorted[sorted.len() - 1],
        },
    }
}
