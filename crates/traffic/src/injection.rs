//! Injection processes: when a source produces a packet and how long it is.
//!
//! The paper's synthetic workloads generate packets stochastically with two
//! sizes (single-flit requests and four-flit replies) at a configured
//! injection rate expressed in flits per cycle per injector.

use rand::Rng;
use serde::{Deserialize, Serialize};
use taqos_netsim::packet::PacketClass;

/// Mix of request (1-flit) and reply (4-flit) packets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketSizeMix {
    /// Fraction of generated packets that are single-flit requests.
    pub(crate) request_fraction: f64,
}

impl PacketSizeMix {
    /// The paper's default: an even mix of requests and replies.
    pub fn paper() -> Self {
        PacketSizeMix {
            request_fraction: 0.5,
        }
    }

    /// Only single-flit requests.
    pub fn requests_only() -> Self {
        PacketSizeMix {
            request_fraction: 1.0,
        }
    }

    /// Only four-flit replies.
    pub fn replies_only() -> Self {
        PacketSizeMix {
            request_fraction: 0.0,
        }
    }

    /// Mean packet length in flits.
    pub(crate) fn mean_len_flits(&self) -> f64 {
        let req = f64::from(PacketClass::Request.default_len_flits());
        let rep = f64::from(PacketClass::Reply.default_len_flits());
        self.request_fraction * req + (1.0 - self.request_fraction) * rep
    }

    /// Draws a packet class according to the mix.
    pub(crate) fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> PacketClass {
        if rng.gen_bool(self.request_fraction.clamp(0.0, 1.0)) {
            PacketClass::Request
        } else {
            PacketClass::Reply
        }
    }
}

/// A Bernoulli injection process targeting a flit injection rate.
///
/// Each cycle the process flips a biased coin; the bias is chosen so that the
/// expected number of flits generated per cycle equals the configured rate
/// given the packet size mix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BernoulliInjection {
    /// Target injection rate in flits per cycle (0.0 disables injection).
    pub(crate) flits_per_cycle: f64,
    /// Packet size mix.
    pub(crate) mix: PacketSizeMix,
}

impl BernoulliInjection {
    /// Creates a process injecting `flits_per_cycle` with the given mix.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative or not finite.
    pub(crate) fn new(flits_per_cycle: f64, mix: PacketSizeMix) -> Self {
        assert!(
            flits_per_cycle.is_finite() && flits_per_cycle >= 0.0,
            "injection rate must be non-negative and finite, got {flits_per_cycle}"
        );
        BernoulliInjection {
            flits_per_cycle,
            mix,
        }
    }

    /// Probability of generating a packet in a given cycle.
    pub(crate) fn packet_probability(&self) -> f64 {
        (self.flits_per_cycle / self.mix.mean_len_flits()).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{DestinationPattern, SyntheticGenerator};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use taqos_netsim::packet::PacketGenerator;
    use taqos_netsim::NodeId;

    #[test]
    fn mean_length_interpolates_between_sizes() {
        assert_eq!(PacketSizeMix::requests_only().mean_len_flits(), 1.0);
        assert_eq!(PacketSizeMix::replies_only().mean_len_flits(), 4.0);
        assert_eq!(PacketSizeMix::paper().mean_len_flits(), 2.5);
    }

    #[test]
    fn draw_respects_extreme_mixes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(
                PacketSizeMix::requests_only().draw(&mut rng),
                PacketClass::Request
            );
            assert_eq!(
                PacketSizeMix::replies_only().draw(&mut rng),
                PacketClass::Reply
            );
        }
    }

    #[test]
    fn packet_probability_accounts_for_mean_length() {
        let inj = BernoulliInjection::new(0.10, PacketSizeMix::paper());
        assert!((inj.packet_probability() - 0.04).abs() < 1e-12);
        let inj = BernoulliInjection::new(0.10, PacketSizeMix::requests_only());
        assert!((inj.packet_probability() - 0.10).abs() < 1e-12);
    }

    /// An open-loop generator at `rate` flits per cycle to a fixed node.
    fn generator(rate: f64, seed: u64) -> SyntheticGenerator {
        let pattern = DestinationPattern::Fixed(NodeId(0));
        SyntheticGenerator::open_loop(rate, PacketSizeMix::paper(), pattern, seed)
    }

    #[test]
    fn empirical_rate_matches_target() {
        let mut g = generator(0.2, 7);
        let cycles = 200_000;
        let flits: u64 = (0..cycles)
            .filter_map(|now| g.generate(now))
            .map(|p| u64::from(p.len_flits))
            .sum();
        let rate = flits as f64 / cycles as f64;
        assert!((rate - 0.2).abs() < 0.01, "empirical rate {rate}");
    }

    #[test]
    fn zero_rate_never_fires() {
        let inj = BernoulliInjection::new(0.0, PacketSizeMix::paper());
        assert_eq!(inj.packet_probability(), 0.0);
        let mut g = generator(0.0, 3);
        for now in 0..100 {
            assert!(g.generate(now).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_is_rejected() {
        BernoulliInjection::new(-0.1, PacketSizeMix::paper());
    }
}
