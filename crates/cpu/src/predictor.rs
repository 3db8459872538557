//! Bimodal + gshare hybrid branch predictor.


/// Number of bits of global history (paper: 16-bit gshare).
const HISTORY_BITS: u32 = 16;
/// Entries in the gshare pattern history table.
const GSHARE_ENTRIES: usize = 1 << HISTORY_BITS;
/// Entries in the bimodal table and in the chooser.
const BIMODAL_ENTRIES: usize = 1 << 13;

fn saturating_update(counter: &mut u8, taken: bool) {
    if taken {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

fn predicts_taken(counter: u8) -> bool {
    counter >= 2
}

/// The "bimodal + gshare, 16 bit" hybrid predictor of Table I.
///
/// Two prediction tables (a PC-indexed bimodal table and a global-history
/// XOR PC indexed gshare table) are combined by a chooser table of 2-bit
/// counters that learns, per branch, which component predicts better.
///
/// # Example
///
/// ```
/// use lnuca_cpu::HybridPredictor;
///
/// let mut p = HybridPredictor::new();
/// // A heavily biased branch becomes predictable after a few outcomes.
/// for _ in 0..16 {
///     let _ = p.predict_and_update(42, true);
/// }
/// assert!(p.predict_and_update(42, true));
/// ```
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>,
    history: u64,
    predictions: u64,
    mispredictions: u64,
}

impl Default for HybridPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl HybridPredictor {
    /// Creates a predictor with all counters weakly not-taken.
    #[must_use]
    pub fn new() -> Self {
        HybridPredictor {
            bimodal: vec![1; BIMODAL_ENTRIES],
            gshare: vec![1; GSHARE_ENTRIES],
            chooser: vec![2; BIMODAL_ENTRIES],
            history: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predicts the branch at `pc`, then updates the tables with the actual
    /// `taken` outcome. Returns `true` if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let bim_idx = (pc as usize) % BIMODAL_ENTRIES;
        let gsh_idx = ((pc ^ self.history) as usize) % GSHARE_ENTRIES;
        let bim_pred = predicts_taken(self.bimodal[bim_idx]);
        let gsh_pred = predicts_taken(self.gshare[gsh_idx]);
        let use_gshare = predicts_taken(self.chooser[bim_idx]);
        let prediction = if use_gshare { gsh_pred } else { bim_pred };

        // Chooser learns toward the component that was right (only when they
        // disagree).
        if bim_pred != gsh_pred {
            saturating_update(&mut self.chooser[bim_idx], gsh_pred == taken);
        }
        saturating_update(&mut self.bimodal[bim_idx], taken);
        saturating_update(&mut self.gshare[gsh_idx], taken);
        self.history = ((self.history << 1) | u64::from(taken)) & ((1 << HISTORY_BITS) - 1);

        self.predictions += 1;
        let correct = prediction == taken;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Total predictions made.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Total mispredictions.
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Misprediction rate over all predictions, or 0.0 if none were made.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn constant_branches_become_perfectly_predicted() {
        let mut p = HybridPredictor::new();
        for _ in 0..100 {
            p.predict_and_update(7, true);
        }
        let before = p.mispredictions();
        for _ in 0..1000 {
            p.predict_and_update(7, true);
        }
        assert_eq!(p.mispredictions(), before, "steady branch must not mispredict");
    }

    #[test]
    fn alternating_pattern_is_learned_by_gshare() {
        let mut p = HybridPredictor::new();
        let mut taken = false;
        for _ in 0..2000 {
            p.predict_and_update(99, taken);
            taken = !taken;
        }
        // After warm-up the global history disambiguates the alternation.
        let warm_mispredicts = p.mispredictions();
        let warm_predictions = p.predictions();
        let mut extra = 0;
        for _ in 0..2000 {
            if !p.predict_and_update(99, taken) {
                extra += 1;
            }
            taken = !taken;
        }
        let _ = (warm_mispredicts, warm_predictions);
        assert!(extra < 50, "alternating branch should be nearly perfectly predicted, got {extra} misses");
    }

    #[test]
    fn random_branches_mispredict_around_half_the_time() {
        let mut p = HybridPredictor::new();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20_000 {
            p.predict_and_update(rng.gen_range(0..64), rng.gen_bool(0.5));
        }
        let rate = p.misprediction_rate();
        assert!(rate > 0.4 && rate < 0.6, "random outcomes give ~50% rate, got {rate}");
    }

    #[test]
    fn biased_branches_track_their_bias() {
        let mut p = HybridPredictor::new();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..50_000 {
            let pc = rng.gen_range(0..256u64);
            let bias = pc % 2 == 0;
            let taken = if rng.gen_bool(0.95) { bias } else { !bias };
            p.predict_and_update(pc, taken);
        }
        assert!(p.misprediction_rate() < 0.12, "rate {}", p.misprediction_rate());
    }

    #[test]
    fn rate_is_zero_before_any_prediction() {
        let p = HybridPredictor::new();
        assert_eq!(p.misprediction_rate(), 0.0);
        assert_eq!(p.predictions(), 0);
    }
}
