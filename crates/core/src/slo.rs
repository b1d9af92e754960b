//! Service-level objectives derived from NFR declarations (§II-C →
//! §III-B).
//!
//! The paper treats a class's non-functional requirements as inputs to
//! the platform's monitoring-feedback loop. This module makes the
//! contract explicit: an [`Slo`] is the *monitored obligation* form of
//! an [`NfrSpec`] — an availability target becomes
//! an **error budget** (the fraction of requests allowed to fail), and
//! a latency QoS becomes a **p99 objective**. Burn-rate math follows
//! the Google-SRE multi-window scheme: the *burn rate* is how many
//! times faster than budget the class is consuming its error allowance,
//! and an alert fires only when both a fast and a slow window agree —
//! the fast window clears quickly once the incident stops, giving
//! prompt recovery.

use crate::nfr::NfrSpec;

/// Availability assumed when a class declares no `qos.availability`,
/// chosen to match [`crate::optimizer::OptimizerConfig::max_error_rate`]
/// (1% tolerated errors).
pub const DEFAULT_AVAILABILITY: f64 = 0.99;

/// Burn-rate multiple above which the fast (paging) alert fires.
/// The canonical SRE value: budget exhausted in ~2% of a 30-day window.
pub const FAST_BURN_THRESHOLD: f64 = 14.4;

/// Burn-rate multiple above which the slow (ticket) alert fires.
pub const SLOW_BURN_THRESHOLD: f64 = 6.0;

/// A class's service-level objective, derived from its NFRs at deploy
/// time.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    /// Target availability (fraction of requests that must succeed).
    pub availability: f64,
    /// Error budget: `1 - availability`, the tolerated failure
    /// fraction. Never zero — a 100% availability declaration is
    /// clamped so burn rates stay finite.
    pub error_budget: f64,
    /// p99 latency objective in milliseconds, if the class declared a
    /// latency QoS.
    pub max_p99_ms: Option<u64>,
}

impl Slo {
    /// Derives the SLO from an NFR spec. Classes without a declared
    /// availability get [`DEFAULT_AVAILABILITY`].
    pub fn from_nfr(nfr: &NfrSpec) -> Slo {
        let availability = nfr.qos.availability.unwrap_or(DEFAULT_AVAILABILITY);
        Slo {
            availability,
            // Clamp so a 1.0 availability tier keeps burn rates finite
            // (1e-6 ≈ "six nines", stricter than any declared tier).
            error_budget: (1.0 - availability).max(1e-6),
            max_p99_ms: nfr.qos.latency_ms,
        }
    }

    /// The burn rate implied by an observed error fraction: how many
    /// times faster than budget the class is consuming its allowance.
    /// `1.0` means exactly on budget; `0.0` means no errors.
    pub fn burn_rate(&self, error_fraction: f64) -> f64 {
        (error_fraction / self.error_budget).max(0.0)
    }

    /// Assesses multi-window burn: `fast` is the error fraction over
    /// the short lookback (e.g. 10s), `slow` over the long one (e.g.
    /// 5m). `p99_ms` is the observed fast-window p99 (ignored when the
    /// class declared no latency objective).
    pub fn assess(&self, fast: f64, slow: f64, p99_ms: f64) -> SloAssessment {
        let burn_fast = self.burn_rate(fast);
        let burn_slow = self.burn_rate(slow);
        let status = if burn_fast >= FAST_BURN_THRESHOLD && burn_slow >= FAST_BURN_THRESHOLD {
            BurnStatus::FastBurn
        } else if burn_slow >= SLOW_BURN_THRESHOLD {
            BurnStatus::SlowBurn
        } else {
            BurnStatus::Ok
        };
        SloAssessment {
            burn_fast,
            burn_slow,
            status,
            latency_ok: self.max_p99_ms.is_none_or(|max| p99_ms <= max as f64),
        }
    }
}

/// Multi-window burn-rate classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurnStatus {
    /// Both windows are under their thresholds.
    Ok,
    /// The long window is elevated (≥ [`SLOW_BURN_THRESHOLD`]) but the
    /// short window is not — budget is leaking, or an incident just
    /// ended and the fast window has already cleared.
    SlowBurn,
    /// Both windows exceed [`FAST_BURN_THRESHOLD`]: the budget is being
    /// consumed at paging speed *right now*.
    FastBurn,
}

impl BurnStatus {
    /// Stable lowercase label (`ok` / `slow-burn` / `fast-burn`) for
    /// exports and CLI views.
    pub fn as_str(self) -> &'static str {
        match self {
            BurnStatus::Ok => "ok",
            BurnStatus::SlowBurn => "slow-burn",
            BurnStatus::FastBurn => "fast-burn",
        }
    }
}

/// The result of one [`Slo::assess`] evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAssessment {
    /// Burn rate over the short window.
    pub burn_fast: f64,
    /// Burn rate over the long window.
    pub burn_slow: f64,
    /// Multi-window classification.
    pub status: BurnStatus,
    /// Whether the observed p99 met the latency objective (vacuously
    /// true without one).
    pub latency_ok: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfr::QosSpec;

    fn nfr(availability: Option<f64>, latency_ms: Option<u64>) -> NfrSpec {
        NfrSpec {
            qos: QosSpec {
                throughput: None,
                availability,
                latency_ms,
            },
            constraint: Default::default(),
        }
    }

    #[test]
    fn budget_is_one_minus_availability() {
        let slo = Slo::from_nfr(&nfr(Some(0.999), Some(50)));
        assert!((slo.error_budget - 0.001).abs() < 1e-12);
        assert_eq!(slo.max_p99_ms, Some(50));
        // Undeclared availability falls back to the default tier.
        let slo = Slo::from_nfr(&nfr(None, None));
        assert!((slo.error_budget - 0.01).abs() < 1e-12);
        assert_eq!(slo.max_p99_ms, None);
    }

    #[test]
    fn perfect_availability_keeps_burn_finite() {
        let slo = Slo::from_nfr(&nfr(Some(1.0), None));
        assert!(slo.error_budget > 0.0);
        assert!(slo.burn_rate(0.5).is_finite());
    }

    #[test]
    fn multi_window_states() {
        let slo = Slo::from_nfr(&nfr(Some(0.999), None)); // budget 0.001
                                                          // Errors in both windows at 100× budget: paging.
        let a = slo.assess(0.1, 0.1, 0.0);
        assert_eq!(a.status, BurnStatus::FastBurn);
        assert!(a.burn_fast > 14.4);
        // Fast window clear, slow still hot: incident over, budget
        // damaged — slow burn, not paging.
        let a = slo.assess(0.0, 0.1, 0.0);
        assert_eq!(a.status, BurnStatus::SlowBurn);
        assert_eq!(a.burn_fast, 0.0);
        // Both clear.
        let a = slo.assess(0.0, 0.0, 0.0);
        assert_eq!(a.status, BurnStatus::Ok);
    }

    #[test]
    fn latency_objective_is_checked_when_declared() {
        let slo = Slo::from_nfr(&nfr(None, Some(10)));
        assert!(slo.assess(0.0, 0.0, 9.5).latency_ok);
        assert!(!slo.assess(0.0, 0.0, 11.0).latency_ok);
        // No objective → vacuously ok.
        let slo = Slo::from_nfr(&nfr(None, None));
        assert!(slo.assess(0.0, 0.0, 1e9).latency_ok);
    }
}
