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
    /// First cycle whose firing draw has not been taken yet. `next_fire`
    /// takes the draws of the cycles it skips; `generate` at an earlier
    /// cycle takes none, so every draw is consumed in per-cycle order.
    ahead: Cycle,
    /// The cycle of a firing draw `next_fire` already took; `generate` draws
    /// its class and destination on that cycle.
    fires_at: Option<Cycle>,
}

/// The most cycles one `next_fire` call draws ahead. With no firing among
/// them it answers with the first undrawn cycle, so a rate near 2⁻⁵³ costs
/// one early wake per horizon instead of an unbounded loop.
const DRAW_AHEAD_CYCLES: Cycle = 4_096;

fn fire_threshold(injection: &BernoulliInjection) -> Option<u64> {
    let p = injection.packet_probability();
    (p > 0.0).then(|| (p * (1u64 << 53) as f64).ceil() as u64)
}

impl SyntheticGenerator {
    fn new(
        rate_flits_per_cycle: f64,
        mix: PacketSizeMix,
        pattern: DestinationPattern,
        budget: Option<u64>,
        seed: u64,
    ) -> Self {
        let injection = BernoulliInjection::new(rate_flits_per_cycle, mix);
        SyntheticGenerator {
            fire_threshold: fire_threshold(&injection),
            injection,
            pattern,
            budget,
            generated: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
            ahead: 0,
            fires_at: None,
        }
    }

    /// Creates an open-loop generator (no packet budget).
    pub(crate) fn open_loop(
        rate_flits_per_cycle: f64,
        mix: PacketSizeMix,
        pattern: DestinationPattern,
        seed: u64,
    ) -> Self {
        Self::new(rate_flits_per_cycle, mix, pattern, None, seed)
    }

    /// Creates a closed-workload generator that stops after `budget` packets.
    pub fn with_budget(
        rate_flits_per_cycle: f64,
        mix: PacketSizeMix,
        pattern: DestinationPattern,
        budget: u64,
        seed: u64,
    ) -> Self {
        Self::new(rate_flits_per_cycle, mix, pattern, Some(budget), seed)
    }
}

impl PacketGenerator for SyntheticGenerator {
    fn generate(&mut self, now: Cycle) -> Option<GeneratedPacket> {
        // Same draw sequence as `BernoulliInjection::fires`, with the
        // comparison precomputed as an integer threshold (see
        // `fire_threshold`; no RNG consumption at probability zero).
        use rand::RngCore;
        if self.exhausted() {
            return None;
        }
        if now < self.ahead {
            // Drawn by `next_fire`: only its firing cycle fires.
            if self.fires_at != Some(now) {
                return None;
            }
            self.fires_at = None;
        } else {
            debug_assert!(self.fires_at.is_none(), "a drawn firing was skipped");
            self.ahead = now + 1;
            match self.fire_threshold {
                Some(threshold) if (self.rng.next_u64() >> 11) < threshold => {}
                _ => return None,
            }
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

    fn next_fire(&mut self, from: Cycle) -> Option<Cycle> {
        use rand::RngCore;
        if self.exhausted() {
            return None;
        }
        let threshold = self.fire_threshold?;
        if let Some(at) = self.fires_at {
            debug_assert!(at >= from, "a drawn firing was skipped");
            return Some(at);
        }
        // Cycles before `ahead` are drawn and quiet; cycles before `from`
        // are never polled, so they take no draw.
        let start = self.ahead.max(from);
        let horizon = start + DRAW_AHEAD_CYCLES;
        for cycle in start..horizon {
            if (self.rng.next_u64() >> 11) < threshold {
                self.ahead = cycle + 1;
                self.fires_at = Some(cycle);
                return Some(cycle);
            }
        }
        self.ahead = horizon;
        Some(horizon)
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

    /// Twin generators: one polled every cycle, the other driven only by
    /// `next_fire` and `generate` on the cycles it names, plus early polls
    /// at seeded random cycles before each; both must log the same packets
    /// on the same cycles.
    fn assert_draw_ahead_matches_polling(
        rate: f64,
        mix: PacketSizeMix,
        budget: Option<u64>,
        horizon: Cycle,
    ) {
        use rand::Rng;
        let make = || {
            let dests = (0..8).map(NodeId).collect();
            let pattern = DestinationPattern::UniformRandom(dests);
            SyntheticGenerator::new(rate, mix, pattern, budget, 11)
        };
        let mut polled = make();
        let expected: Vec<_> = (0..horizon)
            .filter_map(|now| polled.generate(now).map(|p| (now, p)))
            .collect();

        let mut driven = make();
        let mut early = ChaCha8Rng::seed_from_u64(rate.to_bits());
        let mut log = Vec::new();
        let mut from = 0;
        while let Some(at) = driven.next_fire(from).filter(|&at| at < horizon) {
            assert!(at >= from, "next_fire({from}) answered {at}");
            let mut polls: Vec<Cycle> = (0..early.gen_range(0..3))
                .filter(|_| at > from)
                .map(|_| early.gen_range(from..at))
                .collect();
            polls.sort_unstable();
            polls.dedup();
            for now in polls {
                assert_eq!(driven.generate(now), None, "early poll at {now}");
            }
            log.extend(driven.generate(at).map(|p| (at, p)));
            from = at + 1;
        }
        let case = format!("rate {rate}, {mix:?}, budget {budget:?}");
        assert_eq!(log, expected, "{case}");
        assert_eq!(driven.exhausted(), polled.exhausted(), "{case}");
    }

    #[test]
    fn drawing_ahead_leaves_the_stream_unchanged() {
        let mixes = [PacketSizeMix::paper(), PacketSizeMix::requests_only()];
        for rate in [0.0, 2f64.powi(-40), 0.01, 0.08, 0.3, 1.0] {
            for mix in mixes {
                for budget in [None, Some(5)] {
                    assert_draw_ahead_matches_polling(rate, mix, budget, 20_000);
                }
            }
        }
    }

    #[test]
    fn next_fire_is_bounded_and_never_for_silent_generators() {
        let open = |rate| {
            let pattern = DestinationPattern::Fixed(NodeId(0));
            SyntheticGenerator::new(rate, PacketSizeMix::paper(), pattern, None, 3)
        };
        // No firing within the horizon: a wake at its end. Asking again
        // draws on from the first undrawn cycle.
        let mut rare = open(2f64.powi(-40));
        assert_eq!(rare.next_fire(0), Some(DRAW_AHEAD_CYCLES));
        assert_eq!(rare.generate(DRAW_AHEAD_CYCLES - 1), None);
        assert_eq!(rare.next_fire(10), Some(2 * DRAW_AHEAD_CYCLES));
        // Rate zero and a spent budget never fire.
        assert_eq!(open(0.0).next_fire(0), None);
        let mut spent = SyntheticGenerator::with_budget(
            1.0,
            PacketSizeMix::requests_only(),
            DestinationPattern::Fixed(NodeId(0)),
            1,
            3,
        );
        assert_eq!(spent.next_fire(7), Some(7));
        assert!(spent.generate(7).is_some());
        assert_eq!(spent.next_fire(8), None);
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
