//! Offline stand-in for rand_chacha: `ChaCha8Rng` is a deterministic
//! SplitMix64-based stream (not actual ChaCha, but seed-stable and
//! uniform enough for simulation use).

use rand::{RngCore, SeedableRng};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    state: u64,
    stream: u64,
}

impl ChaCha8Rng {
    /// The generator's full internal state, for checkpointing. Restoring
    /// via [`ChaCha8Rng::from_state_words`] continues the exact stream.
    pub fn state_words(&self) -> (u64, u64) {
        (self.state, self.stream)
    }

    /// Rebuilds a generator from [`ChaCha8Rng::state_words`] output.
    pub fn from_state_words(state: u64, stream: u64) -> Self {
        ChaCha8Rng { state, stream }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state ^ self.stream;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];
    fn from_seed(seed: Self::Seed) -> Self {
        let mut state = 0x6A09_E667_F3BC_C908u64;
        let mut stream = 0xBB67_AE85_84CA_A73Bu64;
        for (i, chunk) in seed.chunks(8).enumerate() {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            let w = u64::from_le_bytes(b);
            if i % 2 == 0 {
                state = mix(state ^ w);
            } else {
                stream = mix(stream ^ w);
            }
        }
        ChaCha8Rng { state, stream }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// Alias used by some call sites; same generator.
pub type ChaCha12Rng = ChaCha8Rng;
/// Alias used by some call sites; same generator.
pub type ChaCha20Rng = ChaCha8Rng;
