//! Pure helpers the metrics are computed with: order statistics with the
//! ten-beyond rule, span self times from parent ids, and `/proc/stat`
//! steal accounting.

use std::collections::BTreeMap;
use telemetry::SpanRecord;

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile of `samples`, but only when at least
/// `min_beyond` samples lie strictly above its rank: a tail percentile
/// read from fewer samples than that is noise, not a measurement.
pub fn quantile_with_tail(samples: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Where the time inside `iteration` spans went: self time (duration
/// minus the durations of its children) per phase, the spans directly
/// under an iteration, plus the iteration spans' own self time. A span
/// nested deeper counts towards its phase, so a new span inside a phase
/// leaves the phase totals whole. By construction
/// `iteration_self_ns + Σ self_ns == iteration_total_ns` whenever every
/// descendant's parent is in the trace; [`Breakdown::balances`] checks it.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Breakdown {
    /// Number of `iteration` spans.
    pub iterations: u64,
    /// Summed duration of the `iteration` spans.
    pub iteration_total_ns: i64,
    /// Summed self time of the `iteration` spans.
    pub iteration_self_ns: i64,
    /// Self time of every span inside an iteration and call count of
    /// the phase spans, per phase name.
    pub phases: BTreeMap<&'static str, (i64, u64)>,
    /// Self time and call count per span name outside every iteration
    /// (`derive`, and the iteration-free spans of the harness).
    pub outside: BTreeMap<&'static str, (i64, u64)>,
}

impl Breakdown {
    /// Self time of `name` inside iterations, in ns (0 if absent).
    pub fn phase_ns(&self, name: &str) -> i64 {
        self.phases.get(name).map_or(0, |&(ns, _)| ns)
    }

    /// Self time of `name` outside iterations, in ns (0 if absent).
    pub fn outside_ns(&self, name: &str) -> i64 {
        self.outside.get(name).map_or(0, |&(ns, _)| ns)
    }

    /// Phase self times plus iteration self time equal the iteration total.
    pub fn balances(&self) -> bool {
        self.iteration_self_ns + self.phases.values().map(|&(ns, _)| ns).sum::<i64>()
            == self.iteration_total_ns
    }
}

/// Attribute every span's self time: inside an iteration to its phase,
/// outside every iteration to its own name. Children are matched by
/// parent id, on any thread.
pub fn breakdown<'a>(spans: impl IntoIterator<Item = &'a SpanRecord>) -> Breakdown {
    let spans: Vec<&SpanRecord> = spans.into_iter().collect();
    let dur = |s: &SpanRecord| s.end_ns.saturating_sub(s.begin_ns) as i64;
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, *s)).collect();
    let mut child_ns: BTreeMap<u64, i64> = BTreeMap::new();
    for s in &spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_insert(0) += dur(s);
        }
    }
    // The ancestor of `s` (or `s` itself) whose parent is an iteration.
    let phase_of = |s: &'a SpanRecord| {
        let mut node = s;
        while let Some(parent) = node.parent.and_then(|id| by_id.get(&id)) {
            if parent.name == "iteration" {
                return Some(node);
            }
            node = parent;
        }
        None
    };
    let mut out = Breakdown::default();
    for s in &spans {
        let self_ns = dur(s) - child_ns.get(&s.id).copied().unwrap_or(0);
        if s.name == "iteration" {
            out.iterations += 1;
            out.iteration_total_ns += dur(s);
            out.iteration_self_ns += self_ns;
            continue;
        }
        let (slot, call) = match phase_of(s) {
            Some(phase) => (
                out.phases.entry(phase.name).or_insert((0, 0)),
                phase.id == s.id,
            ),
            None => (out.outside.entry(s.name).or_insert((0, 0)), true),
        };
        slot.0 += self_ns;
        slot.1 += u64::from(call);
    }
    out
}

/// Cumulative CPU time from the aggregate `cpu` line of `/proc/stat`, in
/// clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTimes {
    /// Time stolen by the hypervisor.
    pub steal: u64,
    /// user + nice + system + idle + iowait + irq + softirq + steal (guest
    /// time is already inside user).
    pub total: u64,
}

/// Parse the aggregate `cpu` line of a `/proc/stat` dump. `None` when the
/// line is missing or has fewer than the eight fields up to `steal`.
pub fn parse_proc_stat(text: &str) -> Option<CpuTimes> {
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some("cpu"))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (fields.len() == 8).then(|| CpuTimes {
        steal: fields[7],
        total: fields.iter().sum(),
    })
}

/// Share of CPU time stolen between two readings (0 when no time passed).
pub fn steal_share(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::Payload;

    fn span(id: u64, parent: Option<u64>, name: &'static str, begin: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            tid: 0,
            begin_ns: begin,
            end_ns: end,
            payload: Payload::default(),
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_with_tail(&hundred, 0.9, 10), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(quantile_with_tail(&ninety_nine, 0.9, 10), None);
        assert_eq!(quantile_with_tail(&ninety_nine, 0.9, 9), Some(90.0));
        assert_eq!(quantile_with_tail(&[], 0.5, 0), None);
        assert_eq!(quantile_with_tail(&[7.0], 0.5, 0), Some(7.0));
    }

    #[test]
    fn quantile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=200).map(f64::from).collect();
        shuffled.reverse();
        assert_eq!(quantile_with_tail(&shuffled, 0.5, 10), Some(100.0));
    }

    #[test]
    fn self_time_subtracts_children_by_parent_id() {
        // iteration [0,100) holds rollout [10,40) and loss_backward
        // [40,90); loss_backward has a worker-thread child gemm [50,70)
        // with a child pack [55,60). derive [100,130) runs outside every
        // iteration.
        let spans = [
            span(2, Some(1), "rollout", 10, 40),
            span(4, Some(3), "gemm", 50, 70),
            span(6, Some(4), "pack", 55, 60),
            span(3, Some(1), "loss_backward", 40, 90),
            span(1, None, "iteration", 0, 100),
            span(5, None, "derive", 100, 130),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.iterations, 1);
        assert_eq!(b.iteration_total_ns, 100);
        assert_eq!(b.iteration_self_ns, 20);
        assert_eq!(b.phase_ns("rollout"), 30);
        // Its own 30 plus gemm's 15 and pack's 5: nested spans count
        // towards their phase and are not phases themselves.
        assert_eq!(b.phase_ns("loss_backward"), 50);
        assert_eq!(b.phases.get("loss_backward"), Some(&(50, 1)));
        assert_eq!(b.phase_ns("gemm"), 0);
        assert_eq!(b.phases.len(), 2);
        assert_eq!(b.outside_ns("derive"), 30);
        assert!(b.balances());
    }

    #[test]
    fn orphaned_spans_count_as_outside_iterations() {
        let spans = [
            span(1, None, "iteration", 0, 10),
            span(2, Some(99), "rollout", 0, 5),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.phase_ns("rollout"), 0);
        assert_eq!(b.outside_ns("rollout"), 5);
        assert!(b.balances());
    }

    #[test]
    fn proc_stat_parses_the_aggregate_line() {
        let text = "cpu  100 5 50 800 10 1 2 32 0 0\ncpu0 50 2 25 400 5 0 1 16 0 0\nintr 1\n";
        let t = parse_proc_stat(text).expect("aggregate line present");
        assert_eq!(
            t,
            CpuTimes {
                steal: 32,
                total: 1000
            }
        );
        let later = CpuTimes {
            steal: 132,
            total: 2000,
        };
        assert!((steal_share(t, later) - 0.1).abs() < 1e-12);
        assert_eq!(steal_share(t, t), 0.0);
    }

    #[test]
    fn proc_stat_rejects_short_or_missing_lines() {
        assert_eq!(parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3 4\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 x 4 5 6 7 8\n"), None);
    }
}
