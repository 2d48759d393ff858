//! A query stream's closing summary (a daemon connection, an `--updates`
//! script) reports exact nearest-rank percentiles over every answered
//! query, a cache hit counted at the timing it replays. `StreamTally`
//! keeps each computed timing and one count per replayed timing; this
//! test records random streams and checks `finish` bit for bit against
//! the rule applied to the whole list of recorded timings.
//!
//! Timings come from a small pool, so hits repeat values and hits and
//! misses share them; the pool holds both zeros, which compare equal
//! but sort apart under `f64::total_cmp`.

use dmcs::engine::ops::StreamTally;
use proptest::prelude::*;

const POOL: [f64; 8] = [0.0, -0.0, 1e-6, 2.5e-5, 2.5e-5 + 1e-12, 0.001, 0.25, 3.0];

/// The nearest-rank `p` percentile of `values`: sorted by `total_cmp`,
/// the value at 1-based rank `ceil(len·p)` clamped to `1..=len`; 0 for
/// no values.
fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Record `stream` — `(seconds, ok, cached)` per query — and check the
/// summary against the rule over the expanded list.
fn check(stream: &[(f64, bool, bool)]) -> Result<(), TestCaseError> {
    let mut tally = StreamTally::start();
    for &(seconds, ok, cached) in stream {
        tally.record(seconds, ok, cached);
    }
    prop_assert_eq!(tally.queries(), stream.len());
    let summary = tally.finish(None);
    let report = &summary.report;
    let seconds: Vec<f64> = stream.iter().map(|q| q.0).collect();
    let hits = stream.iter().filter(|q| q.2).count();
    prop_assert_eq!(summary.queries, stream.len());
    prop_assert_eq!(summary.ok, stream.iter().filter(|q| q.1).count());
    prop_assert_eq!(report.cache_hits, hits);
    prop_assert_eq!(report.cache_misses, stream.len() - hits);
    prop_assert_eq!(report.unique_queries, stream.len());
    prop_assert_eq!(
        report.p50_seconds.to_bits(),
        nearest_rank(&seconds, 0.50).to_bits(),
        "p50 of {:?}",
        stream
    );
    prop_assert_eq!(
        report.p95_seconds.to_bits(),
        nearest_rank(&seconds, 0.95).to_bits(),
        "p95 of {:?}",
        stream
    );
    Ok(())
}

/// One recorded query from a code: the pool index, then whether it
/// found a community and whether the cache answered it.
fn decode(code: u32) -> (f64, bool, bool) {
    (POOL[code as usize / 4], code & 1 == 1, code & 2 == 2)
}

#[test]
fn the_empty_stream_reports_zeros() {
    check(&[]).unwrap();
    let summary = StreamTally::start().finish(None);
    assert_eq!(
        (summary.report.p50_seconds, summary.report.p95_seconds),
        (0.0, 0.0)
    );
}

#[test]
fn a_hit_counts_at_its_replayed_timing() {
    // Nineteen hits replaying 0.25 s and one computed query of 3 s: p50
    // and p95 (rank 19 of 20) are the replayed timing.
    let mut stream = vec![(0.25, true, true); 19];
    stream.push((3.0, true, false));
    check(&stream).unwrap();
    let mut tally = StreamTally::start();
    for &(s, ok, cached) in &stream {
        tally.record(s, ok, cached);
    }
    let report = tally.finish(None).report;
    assert_eq!((report.p50_seconds, report.p95_seconds), (0.25, 0.25));
    assert_eq!((report.cache_hits, report.cache_misses), (19, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn finish_matches_nearest_rank_over_every_recorded_timing(
        codes in proptest::collection::vec(0..4 * POOL.len() as u32, 0..120),
    ) {
        let stream: Vec<(f64, bool, bool)> = codes.into_iter().map(decode).collect();
        check(&stream)?;
    }

    // Hit-heavy streams: a few computed timings, each replayed many
    // times, as a cached daemon connection records them.
    #[test]
    fn hit_heavy_streams_match_too(
        computed in proptest::collection::vec(0..POOL.len(), 1..4),
        hits in proptest::collection::vec(0..2000u32, 1..40),
    ) {
        let mut stream: Vec<(f64, bool, bool)> =
            computed.iter().map(|&i| (POOL[i], true, false)).collect();
        for h in hits {
            let seconds = POOL[computed[h as usize % computed.len()]];
            stream.extend(std::iter::repeat_n((seconds, h % 7 != 0, true), 1 + h as usize % 50));
        }
        check(&stream)?;
    }
}
