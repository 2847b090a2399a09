//! Packet generators: stochastic sources bound to a destination pattern.

use crate::injection::{BernoulliInjection, PacketSizeMix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use taqos_netsim::packet::{GeneratedPacket, PacketGenerator};
use taqos_netsim::{Cycle, NodeId};

/// How a generator chooses the destination of each packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DestinationPattern {
    /// Every packet goes to the same destination (tornado, hotspot,
    /// adversarial workloads).
    Fixed(NodeId),
    /// Destinations are drawn uniformly at random from the given set.
    UniformRandom(Vec<NodeId>),
}

impl DestinationPattern {
    fn draw(&self, rng: &mut ChaCha8Rng) -> NodeId {
        use rand::Rng;
        match self {
            DestinationPattern::Fixed(dst) => *dst,
            DestinationPattern::UniformRandom(dests) => {
                assert!(!dests.is_empty(), "uniform pattern needs destinations");
                dests[rng.gen_range(0..dests.len())]
            }
        }
    }
}

/// A stochastic packet generator: a Bernoulli injection process combined with
/// a destination pattern and an optional packet budget.
///
/// With a budget the generator models the fixed (closed) workloads of the
/// preemption experiments: it reports exhaustion once the budget is spent so
/// the simulation driver can detect completion.
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    injection: BernoulliInjection,
    /// Precomputed integer firing threshold: the per-cycle Bernoulli draw
    /// `gen_bool(p)` compares `(next_u64() >> 11) * 2⁻⁵³ < p`, which over the
    /// integers is exactly `(next_u64() >> 11) < ceil(p · 2⁵³)`. Storing the
    /// right-hand side turns the hottest comparison in the simulator (one
    /// per injector per cycle) into a shift and an integer compare, without
    /// changing a single draw. `None` when the rate is zero (no entropy is
    /// consumed then, matching `BernoulliInjection::fires`).
    fire_threshold: Option<u64>,
    pattern: DestinationPattern,
    budget: Option<u64>,
    generated: u64,
    rng: ChaCha8Rng,
}

fn fire_threshold(injection: &BernoulliInjection) -> Option<u64> {
    let p = injection.packet_probability();
    (p > 0.0).then(|| (p * (1u64 << 53) as f64).ceil() as u64)
}

impl SyntheticGenerator {
    /// Creates an open-loop generator (no packet budget).
    pub(crate) fn open_loop(
        rate_flits_per_cycle: f64,
        mix: PacketSizeMix,
        pattern: DestinationPattern,
        seed: u64,
    ) -> Self {
        let injection = BernoulliInjection::new(rate_flits_per_cycle, mix);
        SyntheticGenerator {
            fire_threshold: fire_threshold(&injection),
            injection,
            pattern,
            budget: None,
            generated: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Creates a closed-workload generator that stops after `budget` packets.
    pub fn with_budget(
        rate_flits_per_cycle: f64,
        mix: PacketSizeMix,
        pattern: DestinationPattern,
        budget: u64,
        seed: u64,
    ) -> Self {
        let injection = BernoulliInjection::new(rate_flits_per_cycle, mix);
        SyntheticGenerator {
            fire_threshold: fire_threshold(&injection),
            injection,
            pattern,
            budget: Some(budget),
            generated: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl PacketGenerator for SyntheticGenerator {
    fn generate(&mut self, _now: Cycle) -> Option<GeneratedPacket> {
        // Same draw sequence as `BernoulliInjection::fires`, with the
        // comparison precomputed as an integer threshold (see
        // `fire_threshold`; no RNG consumption at probability zero).
        use rand::RngCore;
        if self.exhausted() {
            return None;
        }
        match self.fire_threshold {
            Some(threshold) if (self.rng.next_u64() >> 11) < threshold => {}
            _ => return None,
        }
        let class = self.injection.mix.draw(&mut self.rng);
        let dst = self.pattern.draw(&mut self.rng);
        self.generated += 1;
        Some(GeneratedPacket {
            dst,
            len_flits: class.default_len_flits(),
            class,
        })
    }

    fn exhausted(&self) -> bool {
        match self.budget {
            Some(budget) => self.generated >= budget,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_pattern_targets_one_destination() {
        let mut g = SyntheticGenerator::open_loop(
            1.0,
            PacketSizeMix::requests_only(),
            DestinationPattern::Fixed(NodeId(0)),
            42,
        );
        for now in 0..100 {
            if let Some(p) = g.generate(now) {
                assert_eq!(p.dst, NodeId(0));
            }
        }
        assert!(g.generated > 50);
        assert!(!g.exhausted());
    }

    #[test]
    fn uniform_pattern_spreads_destinations() {
        let dests: Vec<NodeId> = (0..8).map(NodeId).collect();
        let mut g = SyntheticGenerator::open_loop(
            1.0,
            PacketSizeMix::requests_only(),
            DestinationPattern::UniformRandom(dests),
            7,
        );
        let mut seen = std::collections::BTreeSet::new();
        for now in 0..500 {
            if let Some(p) = g.generate(now) {
                seen.insert(p.dst);
            }
        }
        assert!(seen.len() >= 7, "only {} destinations seen", seen.len());
    }

    #[test]
    fn budget_limits_generation() {
        let mut g = SyntheticGenerator::with_budget(
            1.0,
            PacketSizeMix::requests_only(),
            DestinationPattern::Fixed(NodeId(3)),
            10,
            1,
        );
        for now in 0..1_000 {
            g.generate(now);
        }
        assert_eq!(g.generated, 10);
        assert!(g.exhausted());
        assert!(g.generate(2_000).is_none());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let run = |seed| {
            let mut g = SyntheticGenerator::open_loop(
                0.3,
                PacketSizeMix::paper(),
                DestinationPattern::UniformRandom((0..8).map(NodeId).collect()),
                seed,
            );
            (0..1_000)
                .filter_map(|now| g.generate(now))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
