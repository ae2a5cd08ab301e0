//! Rate-limited progress heartbeats for long runs.

use std::time::{Duration, Instant};

/// Rate-limited progress reporter: at most one message per interval, with
/// events/second and an ETA extrapolated from the mean rate so far.
#[derive(Debug, Clone)]
pub struct Heartbeat {
    started: Instant,
    last_emit: Option<Instant>,
    interval: Duration,
}

impl Heartbeat {
    /// Creates a heartbeat emitting at most once per `interval`.
    pub fn new(interval: Duration) -> Self {
        Heartbeat {
            started: Instant::now(),
            last_emit: None,
            interval,
        }
    }

    /// Reports progress of `done` out of `total` units. Returns a formatted
    /// message when the interval has elapsed since the last emission,
    /// `None` otherwise.
    pub fn tick(&mut self, done: u64, total: u64) -> Option<String> {
        let now = Instant::now();
        if let Some(last) = self.last_emit {
            if now.duration_since(last) < self.interval {
                return None;
            }
        }
        self.last_emit = Some(now);
        let elapsed = now.duration_since(self.started).as_secs_f64().max(1e-9);
        let rate = done as f64 / elapsed;
        let msg = if total > 0 && rate > 0.0 {
            let eta = (total.saturating_sub(done)) as f64 / rate;
            format!(
                "{done}/{total} events ({:.1}%), {}/s, ETA {eta:.1} s",
                done as f64 / total as f64 * 100.0,
                fmt_rate(rate),
            )
        } else {
            format!("{done} events, {}/s", fmt_rate(rate))
        };
        Some(msg)
    }
}

fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_rate_limits() {
        let mut h = Heartbeat::new(Duration::from_secs(3600));
        let first = h.tick(10, 100);
        assert!(first.is_some());
        assert!(first.unwrap().contains("10/100"));
        assert!(h.tick(20, 100).is_none(), "second tick inside the interval");
    }

    #[test]
    fn heartbeat_zero_total_omits_eta() {
        let mut h = Heartbeat::new(Duration::ZERO);
        let msg = h.tick(5, 0).unwrap();
        assert!(!msg.contains("ETA"));
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(500.0), "500");
        assert_eq!(fmt_rate(2500.0), "2.5k");
        assert_eq!(fmt_rate(3_200_000.0), "3.20M");
    }
}
