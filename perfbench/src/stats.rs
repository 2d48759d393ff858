//! Order statistics over samples.

/// Nearest-rank percentile `p` in `[0, 1]` of `v` (sorted in place);
/// 0 for no samples.
pub fn pct(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let idx = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

pub fn median(v: &mut [f64]) -> f64 {
    pct(v, 0.5)
}

/// Time windows of one run: a statistic is taken per window and the
/// median over windows reported, so a burst of outside load that slows
/// part of a run moves the result less.
pub const WINDOWS: usize = 5;

/// Values of time-stamped samples `(t_ns, v)`, split into [`WINDOWS`]
/// windows of equal duration.
fn windows(samples: &[(u64, f64)]) -> Vec<Vec<f64>> {
    let lo = samples.iter().map(|s| s.0).min().unwrap_or(0);
    let hi = samples.iter().map(|s| s.0).max().unwrap_or(0) + 1;
    let width = (hi - lo).div_ceil(WINDOWS as u64);
    let mut out = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples {
        out[((t - lo) / width) as usize].push(v);
    }
    out
}

/// Percentile `p` of the samples: the median of per-window percentiles
/// when every window has at least ten samples beyond it, else over all
/// samples at once.
pub fn windowed_pct(samples: &[(u64, f64)], p: f64) -> f64 {
    let ws = windows(samples);
    let need = (10.0 / (1.0 - p)).ceil() as usize;
    if ws.iter().all(|w| w.len() >= need) {
        let mut per: Vec<f64> = ws.into_iter().map(|mut w| pct(&mut w, p)).collect();
        median(&mut per)
    } else {
        let mut all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        pct(&mut all, p)
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
