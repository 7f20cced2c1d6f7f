//! Per-peer round-trip-time estimation and retransmission-timeout policy.
//!
//! The sans-io [`crate::reliable`] endpoint retransmits unacknowledged
//! messages after a timeout. A fixed timeout is either too aggressive (it
//! re-sends payloads the peer already has, amplifying congestion) or too slow
//! (loss recovery stalls for the whole fixed interval on fast links). This
//! module provides the adaptive alternative: the classic TCP estimator
//! (RFC 6298) — exponentially weighted means of the round-trip time and its
//! variance, an RTO of `srtt + 4·rttvar` clamped to a floor/ceiling, and
//! exponential backoff while timeouts repeat.
//!
//! All durations are in the caller's clock units; the runtimes in this
//! crate use microseconds.

/// Floor/ceiling/initial-value configuration for an [`RttEstimator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttConfig {
    /// RTO used before the first RTT sample arrives.
    pub initial_rto: u64,
    /// Lower clamp for the computed RTO. Retransmitting faster than the
    /// floor amplifies transient scheduling hiccups into duplicate storms.
    pub min_rto: u64,
    /// Upper clamp for the computed RTO, also the cap for exponential
    /// backoff, so a long outage cannot push recovery arbitrarily far out.
    pub max_rto: u64,
}

impl RttConfig {
    /// Defaults for loopback/LAN UDP: first retransmit after 2 ms, never
    /// faster than 1 ms, backoff capped at 256 ms.
    pub fn udp_default() -> Self {
        RttConfig {
            initial_rto: 2_000,
            min_rto: 1_000,
            max_rto: 256_000,
        }
    }
}

/// Retransmission-timeout policy for a [`crate::reliable::ReliableEndpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtoPolicy {
    /// Retransmit after a fixed number of clock units, as the discrete-time
    /// simulator requires for determinism.
    Fixed(u64),
    /// Per-peer adaptive RTO driven by RTT samples (RFC 6298).
    Adaptive(RttConfig),
}

impl RtoPolicy {
    /// The timeout the policy yields before any samples exist.
    pub fn initial_rto(&self) -> u64 {
        match self {
            RtoPolicy::Fixed(t) => *t,
            RtoPolicy::Adaptive(c) => c.initial_rto,
        }
    }
}

/// RFC 6298 smoothed RTT estimator with exponential timeout backoff.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    config: RttConfig,
    /// Smoothed RTT (`srtt`), `None` until the first sample.
    srtt: Option<u64>,
    /// Mean deviation (`rttvar`).
    rttvar: u64,
    /// Current RTO including any backoff in effect.
    rto: u64,
}

impl RttEstimator {
    /// Creates an estimator that reports `config.initial_rto` until the
    /// first sample arrives.
    pub fn new(config: RttConfig) -> Self {
        let rto = config.initial_rto.clamp(config.min_rto, config.max_rto);
        RttEstimator {
            config,
            srtt: None,
            rttvar: 0,
            rto,
        }
    }

    /// Folds one round-trip measurement into the estimate and clears any
    /// backoff. Samples must come from first transmissions only (Karn's
    /// algorithm): an ack for a retransmitted message is ambiguous.
    pub fn sample(&mut self, rtt: u64) {
        match self.srtt {
            None => {
                // First measurement: srtt = R, rttvar = R/2.
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // rttvar = 3/4·rttvar + 1/4·|srtt − R|
                let dev = srtt.abs_diff(rtt);
                self.rttvar = (self.rttvar * 3 + dev) / 4;
                // srtt = 7/8·srtt + 1/8·R
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
        let raw = self
            .srtt
            .unwrap()
            .saturating_add(self.rttvar.saturating_mul(4));
        self.rto = raw.clamp(self.config.min_rto, self.config.max_rto);
    }

    /// Doubles the RTO (capped at the ceiling) after a retransmission
    /// timeout fired, so repeated losses back off instead of hammering.
    pub fn on_timeout(&mut self) {
        self.rto = self.rto.saturating_mul(2).min(self.config.max_rto);
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> u64 {
        self.rto
    }

    /// The smoothed RTT, if at least one sample has been folded in.
    pub fn srtt(&self) -> Option<u64> {
        self.srtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(initial: u64, min: u64, max: u64) -> RttConfig {
        RttConfig {
            initial_rto: initial,
            min_rto: min,
            max_rto: max,
        }
    }

    #[test]
    fn initial_rto_until_first_sample() {
        let est = RttEstimator::new(cfg(2_000, 1_000, 256_000));
        assert_eq!(est.rto(), 2_000);
        assert_eq!(est.srtt(), None);
    }

    #[test]
    fn first_sample_sets_srtt_and_variance() {
        let mut est = RttEstimator::new(cfg(2_000, 100, 256_000));
        est.sample(800);
        assert_eq!(est.srtt(), Some(800));
        // rttvar = 400, rto = 800 + 4·400 = 2400.
        assert_eq!(est.rto(), 2_400);
    }

    #[test]
    fn estimate_converges_toward_stable_rtt() {
        let mut est = RttEstimator::new(cfg(10_000, 100, 256_000));
        for _ in 0..64 {
            est.sample(500);
        }
        let srtt = est.srtt().unwrap();
        assert!((450..=550).contains(&srtt), "srtt {srtt} far from 500");
        // Variance decays toward 0, so the RTO settles near srtt (above the
        // floor, well below the ceiling).
        assert!(est.rto() < 1_500, "rto {} did not decay", est.rto());
    }

    #[test]
    fn rto_never_underflows_its_floor() {
        // The satellite guarantee: no stream of samples — not even
        // zero-RTT ones — may push the RTO below `min_rto`.
        let mut est = RttEstimator::new(cfg(2_000, 1_000, 256_000));
        for _ in 0..256 {
            est.sample(0);
        }
        assert_eq!(est.srtt(), Some(0));
        assert_eq!(est.rto(), 1_000);
        // An initial RTO below the floor is clamped up too.
        let est = RttEstimator::new(cfg(10, 1_000, 256_000));
        assert_eq!(est.rto(), 1_000);
    }

    #[test]
    fn timeout_backoff_doubles_and_caps_at_ceiling() {
        let mut est = RttEstimator::new(cfg(2_000, 1_000, 30_000));
        est.on_timeout();
        assert_eq!(est.rto(), 4_000);
        est.on_timeout();
        assert_eq!(est.rto(), 8_000);
        for _ in 0..10 {
            est.on_timeout();
        }
        assert_eq!(est.rto(), 30_000, "backoff must cap at max_rto");
    }

    #[test]
    fn sample_after_backoff_collapses_rto() {
        let mut est = RttEstimator::new(cfg(2_000, 100, 256_000));
        for _ in 0..6 {
            est.on_timeout();
        }
        assert_eq!(est.rto(), 128_000);
        // A fresh (non-retransmitted) sample recomputes the RTO from the
        // smoothed state, discarding the backoff multiplier.
        est.sample(400);
        assert_eq!(est.rto(), 400 + 4 * 200);
    }

    #[test]
    fn spiky_rtts_widen_the_rto() {
        let mut est = RttEstimator::new(cfg(2_000, 100, 256_000));
        for _ in 0..16 {
            est.sample(500);
        }
        let calm = est.rto();
        est.sample(8_000);
        assert!(est.rto() > calm * 2, "a spike must widen the rto");
    }
}
