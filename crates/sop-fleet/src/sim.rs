//! Fleet run parameters and the pieces the tick loop shares: the
//! operator [`Policy`] for damaged servers, the [`SimParams`] that
//! size a run, the fault-severity degradation curve, and exact FIFO
//! latency recording. The tick loop itself is
//! [`crate::resilience::simulate_resilience`]; a plain fleet run is that
//! loop under [`ResilienceParams::plain`](crate::ResilienceParams::plain).

use sop_obs::Histogram;
use sop_tco::DegradationCurve;

/// What a damaged server does until repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Leave rotation and drain the backlog at derated capacity.
    Drain,
    /// Stay in rotation at derated capacity.
    Derate,
}

impl Policy {
    /// Both policies, in report row order.
    pub const ALL: [Policy; 2] = [Policy::Drain, Policy::Derate];

    /// Stable lowercase label used in specs, reports, and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Drain => "drain",
            Policy::Derate => "derate",
        }
    }

    /// Parses a label produced by [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<Policy> {
        Policy::ALL.into_iter().find(|p| p.label() == s)
    }
}

/// The fleet a run simulates: sizes, chip-fault process, traffic, and
/// admission. Together with the engine presets
/// ([`ResilienceParams`](crate::ResilienceParams)) it determines a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Fleet size.
    pub servers: u32,
    /// Healthy per-server capacity in requests per tick (= QPS).
    pub per_server_qps: u64,
    /// Damaged-server posture.
    pub policy: Policy,
    /// Run seed; all RNG streams derive from it.
    pub seed: u64,
    /// Run length in ticks (1 tick = 1 simulated second); also the
    /// diurnal period, so every run sweeps one full day-shape.
    pub duration_ticks: u64,
    /// Statistics window length in ticks.
    pub window_ticks: u64,
    /// Diurnal-crest offered load as a fraction of nominal capacity.
    pub peak_util: f64,
    /// Per-server mean ticks between faults.
    pub mtbf_ticks: u64,
    /// Mean ticks to repair a fault.
    pub mttr_ticks: u64,
    /// Admission deadline: requests that would wait longer are dropped.
    pub deadline_ms: u64,
    /// Base service latency of an unqueued request.
    pub service_ms: u64,
}

impl SimParams {
    /// A full simulated day at ten-minute windows.
    pub fn standard(servers: u32, per_server_qps: u64, policy: Policy, seed: u64) -> SimParams {
        SimParams {
            servers,
            per_server_qps,
            policy,
            seed,
            duration_ticks: 86_400,
            window_ticks: 600,
            peak_util: 0.9,
            mtbf_ticks: 14_400,
            mttr_ticks: 900,
            deadline_ms: 4_000,
            service_ms: 20,
        }
    }

    /// A compressed two-hour day for CI and smoke runs: same shape,
    /// five-minute windows, proportionally faster failure process.
    pub fn quick(servers: u32, per_server_qps: u64, policy: Policy, seed: u64) -> SimParams {
        SimParams {
            duration_ticks: 7_200,
            window_ticks: 300,
            mtbf_ticks: 3_600,
            mttr_ticks: 600,
            ..SimParams::standard(servers, per_server_qps, policy, seed)
        }
    }

    /// Nominal (fault-free) fleet capacity in requests per tick.
    pub fn nominal_capacity(&self) -> u64 {
        u64::from(self.servers) * self.per_server_qps
    }
}

/// How a fault severity translates to remaining serving capacity: the
/// default degradation curve for a pod-organized chip. Losing a pod's
/// worth of resources (~1/16..1/8) costs roughly its share of
/// throughput; past half the chip, performance collapses faster than
/// linearly (interconnect and channel sharing break down).
pub fn severity_curve() -> DegradationCurve {
    DegradationCurve::new(vec![
        (0.0, 1.0),
        (0.0625, 0.93),
        (0.125, 0.86),
        (0.25, 0.70),
        (0.5, 0.40),
    ])
}

/// Records the latencies of `accepted` FIFO requests admitted behind a
/// backlog of `backlog` at per-tick capacity `cap`: request `j` waits
/// `(backlog + j) * 1000 / cap` ms behind the queue, plus the base
/// service time. Latencies are non-decreasing in `j`, so runs of
/// requests sharing a power-of-two bucket are recorded with
/// `record_n` — O(buckets), not O(requests). Bucket counts, quantile
/// estimates, and the recorded maximum are exactly those of recording
/// each latency individually; only the internal sum (hence `mean`) is
/// a lower-bound approximation, since a run is attributed to its first
/// latency (its last is recorded individually to keep `max` exact).
pub(crate) fn record_latencies(
    hist: &mut Histogram,
    backlog: u64,
    accepted: u64,
    cap: u64,
    service_ms: u64,
) {
    debug_assert!(cap > 0);
    let record_run = |hist: &mut Histogram, first: u64, j0: u64, j1: u64| {
        // Run of requests j0..j1 sharing a bucket; `first` is request
        // j0's latency. Record the last latency individually so the
        // histogram's max is the true maximum.
        let last = service_ms + (backlog + j1 - 1) * 1000 / cap;
        hist.record_n(first, j1 - j0 - 1);
        hist.record(last);
    };
    let mut j = 0u64;
    while j < accepted {
        let lat = service_ms + (backlog + j) * 1000 / cap;
        let upper = Histogram::bucket_upper(lat);
        if upper == u64::MAX {
            // Open-ended top bucket: every later (larger) latency lands
            // here too.
            record_run(hist, lat, j, accepted);
            return;
        }
        // Largest queue position m with service_ms + m*1000/cap <= upper.
        let headroom = upper - service_ms;
        let m_max = ((headroom + 1) * cap - 1) / 1000;
        let end = (m_max - backlog + 1).min(accepted);
        record_run(hist, lat, j, end);
        j = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_latencies_matches_naive_recording() {
        for (backlog, accepted, cap, service) in [
            (0u64, 100u64, 7u64, 20u64),
            (53, 997, 13, 5),
            (0, 1, 1, 0),
            (1000, 500, 3, 20),
        ] {
            let mut fast = Histogram::new();
            record_latencies(&mut fast, backlog, accepted, cap, service);
            let mut naive = Histogram::new();
            for j in 0..accepted {
                naive.record(service + (backlog + j) * 1000 / cap);
            }
            let tag = format!("b={backlog} a={accepted} c={cap}");
            // Everything the reports read — bucket counts, quantiles,
            // count, max — is exact; only the internal sum approximates
            // (each bucket run attributed to its first latency).
            assert_eq!(fast.count(), naive.count(), "{tag}");
            assert_eq!(fast.max(), naive.max(), "{tag}");
            assert_eq!(
                fast.buckets().collect::<Vec<_>>(),
                naive.buckets().collect::<Vec<_>>(),
                "{tag}"
            );
            for q in [0.5, 0.95, 0.99, 1.0] {
                assert_eq!(
                    fast.try_quantile_upper(q),
                    naive.try_quantile_upper(q),
                    "{tag} q={q}"
                );
            }
            assert!(fast.sum() <= naive.sum(), "{tag}");
        }
    }

    #[test]
    fn severity_curve_is_monotone_and_anchored() {
        let c = severity_curve();
        assert_eq!(c.relative_performance(0.0), 1.0);
        assert!(c.relative_performance(0.5) < c.relative_performance(0.0625));
    }
}
