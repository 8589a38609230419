//! The benchmark's own arithmetic: order statistics, the percentile
//! support rule, span self time, runner parallel efficiency, and the
//! open-loop ladder rules behind `max_ok_rate`.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: a tail estimate resting on fewer is one outlier's value.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
/// On an empty slice: a metric with no samples is a harness bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `xs`, or `None` unless
/// at least [`MIN_BEYOND`] samples lie beyond the chosen rank. A
/// refused request enters as `f64::INFINITY`, so it sorts past every
/// limit.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile out of (0, 1)");
    let n = xs.len();
    // 1-based nearest rank: the smallest k with k/n >= p.
    let k = ((p * n as f64).ceil() as usize).max(1);
    if k > n || n - k < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[k - 1])
}

/// Samples needed before [`percentile`] reports `p`.
pub fn samples_needed(p: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - p)).ceil() as usize
}

/// Whether a measurement loop should start another pass: always until
/// `min` passes ran, then only while one more pass of the mean length
/// so far still ends within `seconds`, so a run measures for at most
/// about `seconds` however long its passes are.
pub fn another_pass(times: &[f64], min: usize, elapsed: f64, seconds: f64) -> bool {
    times.len() < min || elapsed + times.iter().sum::<f64>() / times.len() as f64 <= seconds
}

/// A closed time interval in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start.
    pub start: u64,
    /// End (`>= start`).
    pub end: u64,
}

/// Self time of a span: its duration minus the part of it that the
/// union of its children's intervals covers. Overlapping children are
/// counted once, and child time outside the span counts for nothing.
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.max(span.start),
            end: c.end.min(span.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0;
    let mut cursor = span.start;
    for c in clipped {
        let from = c.start.max(cursor);
        if c.end > from {
            covered += c.end - from;
            cursor = c.end;
        }
    }
    (span.end - span.start) - covered
}

/// Runner parallel efficiency: the summed single-thread run time of a
/// grid divided by `threads` × the grid's wall-clock at `threads`
/// workers. 1.0 is a perfect split; below it, workers idle or contend.
pub fn parallel_efficiency(single_thread_sum_s: f64, wall_s: f64, threads: usize) -> f64 {
    assert!(
        wall_s > 0.0 && threads > 0,
        "efficiency needs a positive wall and thread count"
    );
    single_thread_sum_s / (threads as f64 * wall_s)
}

/// Whether a client thread's backlog grew during one ladder step.
/// `queue_delays` are the per-request waits between the due time and
/// the moment the thread could start the request, in due order; `gap`
/// is the step's inter-arrival gap. The backlog grows when the second
/// half's median wait exceeds the first half's by more than one gap:
/// at a sustainable rate both halves wait alike, while past saturation
/// the wait climbs for the whole step.
pub fn backlog_grows(queue_delays: &[f64], gap: f64) -> bool {
    if queue_delays.len() < 4 {
        return false;
    }
    let (first, second) = queue_delays.split_at(queue_delays.len() / 2);
    median(second) - median(first) > gap
}

/// What one open-loop ladder step observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepVerdict {
    /// Offered analyst request rate (1/s).
    pub rate: f64,
    /// `false` when the generator itself fell more than one
    /// inter-arrival gap behind, so the step measured the client.
    pub valid: bool,
    /// Query p99 latency from the due time (µs), if enough samples.
    pub query_p99_us: Option<f64>,
    /// Whether the analyst thread's backlog grew.
    pub analyst_backlog_grows: bool,
    /// Whether the owner thread's backlog grew.
    pub owner_backlog_grows: bool,
}

/// Query latency limit behind `max_ok_rate` (µs).
pub const QUERY_P99_LIMIT_US: f64 = 1000.0;

impl StepVerdict {
    /// A step meets the service objective when it is valid, its query
    /// p99 is known and within the limit, and no backlog grew.
    pub fn ok(&self) -> bool {
        self.valid
            && self.query_p99_us.is_some_and(|p| p <= QUERY_P99_LIMIT_US)
            && !self.analyst_backlog_grows
            && !self.owner_backlog_grows
    }
}

/// The highest offered rate among the steps that meet the objective,
/// or `None` when none does.
pub fn max_ok_rate(steps: &[StepVerdict]) -> Option<f64> {
    steps
        .iter()
        .filter(|s| s.ok())
        .map(|s| s.rate)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000 leaves exactly 10 beyond it.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        // One sample fewer leaves only 9 beyond the p99 rank.
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn refused_requests_sort_past_every_limit() {
        let mut xs = vec![1.0; 985];
        xs.extend(std::iter::repeat_n(f64::INFINITY, 15));
        assert_eq!(percentile(&xs, 0.99), Some(f64::INFINITY));
        assert_eq!(percentile(&xs, 0.5), Some(1.0));
    }

    #[test]
    fn passes_stop_before_overrunning_the_budget() {
        assert!(another_pass(&[], 2, 0.0, 1.0));
        assert!(another_pass(&[5.0], 2, 5.0, 1.0));
        assert!(another_pass(&[1.0, 1.0], 2, 2.0, 3.0));
        assert!(!another_pass(&[1.0, 1.0], 2, 2.5, 3.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = Interval { start: 0, end: 100 };
        // Overlapping children [10, 30) and [20, 40) cover 30; a child
        // sticking out of the span counts only inside it.
        let children = [
            Interval { start: 10, end: 30 },
            Interval { start: 20, end: 40 },
            Interval {
                start: 90,
                end: 150,
            },
        ];
        assert_eq!(self_time(span, &children), 100 - 30 - 10);
        assert_eq!(self_time(span, &[]), 100);
        let outside = [Interval {
            start: 200,
            end: 300,
        }];
        assert_eq!(self_time(span, &outside), 100);
        let nested = [
            Interval { start: 10, end: 90 },
            Interval { start: 20, end: 30 },
        ];
        assert_eq!(self_time(span, &nested), 20);
    }

    #[test]
    fn parallel_efficiency_is_summed_work_over_thread_wall() {
        assert_eq!(parallel_efficiency(10.0, 5.0, 2), 1.0);
        assert_eq!(parallel_efficiency(10.0, 10.0, 2), 0.5);
        assert!((parallel_efficiency(9.0, 6.0, 2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn backlog_rule_compares_half_medians_against_one_gap() {
        let gap = 10.0;
        let steady: Vec<f64> = (0..100).map(|i| f64::from(i % 7)).collect();
        assert!(!backlog_grows(&steady, gap));
        let climbing: Vec<f64> = (0..100).map(|i| f64::from(i) * 2.0).collect();
        assert!(backlog_grows(&climbing, gap));
        // A climb of less than one gap between halves is not growth.
        let gentle: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.1).collect();
        assert!(!backlog_grows(&gentle, gap));
        assert!(!backlog_grows(&[0.0, 100.0], gap));
    }

    #[test]
    fn max_ok_rate_takes_the_highest_step_meeting_every_rule() {
        let step = |rate, valid, p99, a, o| StepVerdict {
            rate,
            valid,
            query_p99_us: p99,
            analyst_backlog_grows: a,
            owner_backlog_grows: o,
        };
        let steps = [
            step(100.0, true, Some(200.0), false, false),
            step(200.0, true, Some(900.0), false, false),
            step(400.0, true, Some(800.0), true, false),
            step(800.0, true, Some(2000.0), false, false),
        ];
        assert_eq!(max_ok_rate(&steps), Some(200.0));
        // An invalid step, an unsupported p99 or owner growth never counts.
        let bad = [
            step(100.0, false, Some(1.0), false, false),
            step(200.0, true, None, false, false),
            step(400.0, true, Some(1.0), false, true),
        ];
        assert_eq!(max_ok_rate(&bad), None);
    }
}
