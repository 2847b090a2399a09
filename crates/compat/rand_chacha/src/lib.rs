//! Offline implementation of the ChaCha8 random number generator, exposing
//! the `rand_chacha::ChaCha8Rng` name used throughout the TAQOS traffic
//! generators.
//!
//! This is a genuine ChaCha8 core (Bernstein's ChaCha with 8 rounds, the
//! original layout: a 64-bit block counter in words 12-13 and a zero 64-bit
//! nonce in words 14-15), not a toy LCG: traffic quality matters for the
//! paper's load sweeps, and ChaCha has no detectable statistical structure at
//! the sample counts the simulator draws. The words are served in keystream
//! order, little-endian; a known-answer test pins the published zero-key
//! block. All TAQOS determinism guarantees are per-seed within this
//! workspace, so only internal reproducibility matters.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;
const ROUNDS: usize = 8;

/// A ChaCha8-based random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key words 4..12 and counter/nonce words 12..16 of the ChaCha state.
    state: [u32; BLOCK_WORDS],
    /// Buffered output words of the current block.
    buffer: [u32; BLOCK_WORDS],
    /// Next unread index into `buffer`; `BLOCK_WORDS` means exhausted.
    index: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut working = self.state;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (w, s)) in self
            .buffer
            .iter_mut()
            .zip(working.iter().zip(self.state.iter()))
        {
            *out = w.wrapping_add(*s);
        }
        self.index = 0;
        // 64-bit block counter in words 12..14.
        let (lo, carry) = self.state[12].overflowing_add(1);
        self.state[12] = lo;
        if carry {
            self.state[13] = self.state[13].wrapping_add(1);
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BLOCK_WORDS {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Fast path: both words available in the current block. Consumption
        // order is identical to two `next_u32` calls.
        if self.index + 2 <= BLOCK_WORDS {
            let lo = u64::from(self.buffer[self.index]);
            let hi = u64::from(self.buffer[self.index + 1]);
            self.index += 2;
            return (hi << 32) | lo;
        }
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut state = [0u32; BLOCK_WORDS];
        // "expand 32-byte k" constants.
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646E;
        state[2] = 0x7962_2D32;
        state[3] = 0x6B20_6574;
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            state[4 + i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        // Counter and nonce start at zero.
        ChaCha8Rng {
            state,
            buffer: [0; BLOCK_WORDS],
            index: BLOCK_WORDS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn zero_key_matches_the_published_chacha8_keystream() {
        // Keystream block 0 of ChaCha8 with a 256-bit zero key and a zero
        // IV: test case TC1 of draft-strombergson-chacha-test-vectors.
        const BLOCK_0: &str = "3e00ef2f895f40d67f5bb8e81f09a5a1\
                               2c840ec3ce9a7f3b181be188ef711a1e\
                               984ce172b9216f419f445367456d5619\
                               314a42a3da86b001387bfdb80e0cfe42";
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let keystream: String = (0..BLOCK_WORDS)
            .flat_map(|_| rng.next_u32().to_le_bytes())
            .map(|byte| format!("{byte:02x}"))
            .collect();
        assert_eq!(keystream, BLOCK_0);
    }

    #[test]
    fn deterministic_per_seed() {
        let stream = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..64).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(stream(9), stream(9));
        assert_ne!(stream(9), stream(10));
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..7 {
            rng.next_u32();
        }
        let mut cloned = rng.clone();
        assert_eq!(rng.next_u64(), cloned.next_u64());
    }

    #[test]
    fn uniform_bits_look_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let mut ones = 0u64;
        let samples = 4096;
        for _ in 0..samples {
            ones += u64::from(rng.next_u64().count_ones());
        }
        let expected = samples * 32;
        let deviation = (ones as i64 - expected as i64).unsigned_abs();
        assert!(deviation < 4_000, "bit balance off: {ones} vs {expected}");
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
    }
}
