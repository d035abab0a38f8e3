//! Order statistics and due-time arithmetic.
//!
//! Every timing the benchmark reports is a median or a tail percentile of a
//! sample set, selected by one rule: a tail percentile counts only while at
//! least [`MIN_BEYOND`] samples lie beyond it.  With fewer samples the rank
//! is lowered to the highest one that still has `MIN_BEYOND` samples above
//! it, and never below the median — so a short run reports a lower
//! percentile than asked for instead of its noisiest few samples.

use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 0-based index of the median of `n` sorted samples (the lower median).
fn median_index(n: usize) -> usize {
    (n - 1) / 2
}

/// 0-based index of the `pct`-th percentile (nearest rank) of `n` sorted
/// samples, lowered until [`MIN_BEYOND`] samples lie beyond it, and never
/// below the median index.
pub fn tail_index(n: usize, pct: f64) -> usize {
    debug_assert!(n > 0, "no samples");
    let nearest = ((pct / 100.0) * n as f64).ceil() as usize;
    let wanted = nearest.clamp(1, n) - 1;
    let highest_valid = n.saturating_sub(MIN_BEYOND + 1);
    wanted.min(highest_valid).max(median_index(n))
}

/// The median of `values` (lower median), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    (!sorted.is_empty()).then(|| sorted[median_index(sorted.len())])
}

/// The `pct`-th percentile of `values` under the [`MIN_BEYOND`] rule, or
/// `None` when empty.
pub fn tail(values: &[f64], pct: f64) -> Option<f64> {
    let sorted = sorted(values);
    (!sorted.is_empty()).then(|| sorted[tail_index(sorted.len(), pct)])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// How long after its due time an operation was handed to `submit`
/// (zero when the generator was early — it waits for the due time).
pub fn lateness(due: Instant, submitted: Instant) -> Duration {
    submitted.saturating_duration_since(due)
}

/// An operation's latency from its due time to its durable commit: the
/// submit call's lateness plus the program's own submit→commit latency
/// (`PipelineReport::op_latencies_ns`, which starts inside `submit`).
pub fn due_to_commit(due: Instant, submitted: Instant, submit_to_commit_ns: u64) -> Duration {
    lateness(due, submitted) + Duration::from_nanos(submit_to_commit_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_telemetry::clock;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: nearest-rank p99 is the 990th value, and exactly ten
        // lie beyond it.
        assert_eq!(tail(&ramp(1000), 99.0), Some(990.0));
        // 500 samples: the nearest-rank p99 (495th) would have only five
        // beyond it, so the rank drops to the 490th value.
        assert_eq!(tail(&ramp(500), 99.0), Some(490.0));
    }

    #[test]
    fn p90_is_exact_with_enough_rounds_and_lowered_otherwise() {
        assert_eq!(tail(&ramp(100), 90.0), Some(90.0));
        assert_eq!(tail(&ramp(50), 90.0), Some(40.0));
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        // Twelve samples leave one rank with ten beyond it, below the median.
        assert_eq!(tail(&ramp(12), 99.0), median(&ramp(12)));
        assert_eq!(tail(&ramp(3), 90.0), Some(2.0));
        assert_eq!(tail(&ramp(1), 99.0), Some(1.0));
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut shuffled = ramp(1000);
        shuffled.reverse();
        shuffled.swap(3, 700);
        assert_eq!(tail(&shuffled, 99.0), Some(990.0));
        assert_eq!(median(&shuffled), Some(500.0));
    }

    #[test]
    fn median_is_the_lower_middle_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn due_time_latency_adds_lateness_to_commit_latency() {
        let due = clock::now();
        let late = due + Duration::from_millis(3);
        assert_eq!(lateness(due, late), Duration::from_millis(3));
        assert_eq!(
            due_to_commit(due, late, 2_000_000),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn an_early_submit_counts_from_the_due_time() {
        let submitted = clock::now();
        let due = submitted + Duration::from_millis(1);
        assert_eq!(lateness(due, submitted), Duration::ZERO);
        assert_eq!(
            due_to_commit(due, submitted, 4_000_000),
            Duration::from_millis(4)
        );
    }
}
