//! Pure measurement helpers: medians, the tail-percentile rule, the
//! metric-name rule, failure accounting and per-query simulated latency.

use std::collections::BTreeMap;

/// A tail percentile is reported only when at least this many samples
/// rank beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A nearest-rank percentile together with how many samples rank beyond
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported.
    pub pct: u32,
    /// Its value.
    pub value: f64,
    /// Samples ranked after it (`n - rank`).
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
    /// Whether `beyond >= MIN_BEYOND`. When no percentile qualifies the
    /// requested one is returned unresolved.
    pub resolved: bool,
}

impl Tail {
    /// One-line description for the text report.
    pub fn describe(&self) -> String {
        let state = if self.resolved {
            ""
        } else {
            ", unresolved: fewer than 10 beyond"
        };
        format!(
            "p{} of {} samples, {} beyond{state}",
            self.pct, self.n, self.beyond
        )
    }
}

/// Nearest-rank rank (1-based) of percentile `pct` among `n` samples.
fn rank_of(pct: u32, n: usize) -> usize {
    ((pct as usize * n).div_ceil(100)).clamp(1, n)
}

/// The highest percentile `p <= want` that has at least
/// [`MIN_BEYOND`] samples ranked beyond it. If none has, the requested
/// percentile is returned with `resolved == false`.
pub fn tail(xs: &[f64], want: u32) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail {
            pct: want,
            value: 0.0,
            beyond: 0,
            n,
            resolved: false,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pick = |pct: u32, resolved: bool| {
        let rank = rank_of(pct, n);
        Tail {
            pct,
            value: v[rank - 1],
            beyond: n - rank,
            n,
            resolved,
        }
    };
    (1..=want)
        .rev()
        .find(|&p| n - rank_of(p, n) >= MIN_BEYOND)
        .map_or_else(|| pick(want, false), |p| pick(p, true))
}

/// A metric name starts with a letter or digit, has at most 64
/// characters, and uses only `[A-Za-z0-9_.-]`. The declared names are
/// constants, so the rule is checked by the tests.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operations attempted and failed in one run. A failure also records
/// why, and any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure or determinism error.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation and whether it succeeded.
    pub fn record(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            self.errors.push(why);
        }
    }

    /// Record an error that is not an operation (a determinism drift, a
    /// fidelity miss): it makes the run incorrect without changing the
    /// operation counts.
    pub fn error(&mut self, why: String) {
        self.errors.push(why);
    }

    /// Failed operations over attempted ones (0 when none attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether the run is correct: something ran and nothing went wrong.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.errors.is_empty()
    }
}

/// Per-query simulated latency in an open loop: the world time when the
/// query's arrival tick began, to the world time after the pump that
/// answered it.
#[derive(Debug, Default)]
pub struct LatencyBook {
    arrival: BTreeMap<u64, f64>,
}

impl LatencyBook {
    /// Query `id` arrived when the simulated clock read `t`.
    pub fn arrive(&mut self, id: u64, t: f64) {
        self.arrival.insert(id, t);
    }

    /// Query `id` was answered by a pump that left the clock at `t`.
    /// Returns its latency, or `None` for an unknown or already
    /// answered query.
    pub fn complete(&mut self, id: u64, t: f64) -> Option<f64> {
        self.arrival.remove(&id).map(|t0| t - t0)
    }

    /// Queries that arrived and were never answered.
    pub fn outstanding(&self) -> usize {
        self.arrival.len()
    }
}

/// 64-bit FNV-1a, for fingerprints of deterministic results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in a `u64`.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Mix in an `f64` by its exact bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Mix in a level array.
    pub fn levels(&mut self, levels: &[u32]) {
        let mut h = Fnv::default();
        for &l in levels {
            h.0 = (h.0 ^ u64::from(l)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.u64(h.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_p99_when_ten_samples_lie_beyond() {
        let xs: Vec<f64> = (1..=1024).map(f64::from).collect();
        let t = tail(&xs, 99);
        assert!(t.resolved);
        assert_eq!(t.pct, 99);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 1014.0);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 64 samples: p84 ranks 54th (10 beyond); p85 ranks 55th (9).
        let xs: Vec<f64> = (1..=64).map(f64::from).collect();
        let t = tail(&xs, 90);
        assert!(t.resolved);
        assert_eq!((t.pct, t.beyond, t.value), (84, 10, 54.0));
        // The rule never reports a percentile above the one asked for.
        assert_eq!(tail(&xs, 50).pct, 50);
    }

    #[test]
    fn tail_is_unresolved_with_ten_samples_or_fewer() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let t = tail(&xs, 99);
        assert!(!t.resolved);
        assert_eq!((t.pct, t.value, t.beyond), (99, 10.0, 0));
        assert!(t.describe().contains("unresolved"));
        assert!(!tail(&[], 50).resolved);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "query_sim_ms.p99",
            "phase.fold.sim_ms",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "p/q",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert!(!t.correct(), "nothing attempted is not a correct run");
        for _ in 0..3 {
            t.record(Ok(()));
        }
        assert!(t.correct());
        t.record(Err("wrong distance".into()));
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        assert!(!t.correct());

        // A determinism error spoils the run but is not an operation.
        let mut d = Tally::default();
        d.record(Ok(()));
        d.error("sim drift".into());
        assert_eq!((d.attempted, d.failed, d.failed_frac()), (1, 0, 0.0));
        assert!(!d.correct());
    }

    #[test]
    fn latency_on_a_three_tick_schedule() {
        // Tick 1: q0 and q1 arrive at t = 0; the pump ends at 1.5 ms and
        // answers q0. Tick 2: q2 arrives at 1.5 ms; the pump ends at
        // 2.0 ms and answers q1 and q2. Tick 3: nothing arrives and the
        // pump (2.25 ms) answers nothing.
        let mut book = LatencyBook::default();
        book.arrive(0, 0.0);
        book.arrive(1, 0.0);
        let tick1 = book.complete(0, 1.5e-3);
        book.arrive(2, 1.5e-3);
        let tick2 = [book.complete(1, 2.0e-3), book.complete(2, 2.0e-3)];
        assert_eq!(book.outstanding(), 0);
        assert_eq!(tick1, Some(1.5e-3));
        assert_eq!(tick2[0], Some(2.0e-3));
        assert!((tick2[1].expect("q2 arrived") - 0.5e-3).abs() < 1e-18);
        // A query is answered once; unknown ids have no latency.
        assert_eq!(book.complete(2, 2.25e-3), None);
        assert_eq!(book.complete(7, 2.25e-3), None);
    }

    #[test]
    fn fingerprints_see_every_bit() {
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a.0, b.0);
        let (mut c, mut d) = (Fnv::default(), Fnv::default());
        c.levels(&[0, 1, 2]);
        d.levels(&[0, 2, 1]);
        assert_ne!(c.0, d.0);
    }
}
