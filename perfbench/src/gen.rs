//! Seeded workload inputs: documents rendered from the synthetic `agnews`
//! recipe, and the Poisson arrival schedule of the open-loop workload.
//!
//! Everything here is a pure function of the workload seed, so two runs
//! with one seed send the same bytes in the same order.

use structmine_text::synth;

/// SplitMix64: a small, fully specified generator, so schedules do not
/// depend on any other crate's random-number API.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Documents per class that `agnews` renders at scale 1.
const AGNEWS_PER_CLASS: f32 = 400.0;

/// `n` distinct documents rendered from the seeded `agnews` recipe, in a
/// seeded order. Rendered documents are words of the standard synthetic
/// world, so every token is in the serving engine's vocabulary, and their
/// lengths (about 8 to 90 words) straddle the Test-tier PLM's 32-token
/// window.
pub fn documents(seed: u64, n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    let mut round = 0u64;
    while out.len() < n {
        // Scale so one round renders every document still needed, plus
        // slack for duplicates; a further round (new seed) tops up.
        let need = (n - out.len()) as f32;
        let scale = (need * 1.05 / (4.0 * AGNEWS_PER_CLASS)).max(0.05);
        let data = synth::by_name("agnews", scale, seed.wrapping_mul(1000).wrapping_add(round))
            .expect("the agnews recipe is built in");
        let mut order: Vec<usize> = (0..data.corpus.len()).collect();
        shuffle(&mut Rng::new(seed ^ round), &mut order);
        for i in order {
            let text = data.corpus.render(i);
            if out.len() < n && seen.insert(text.clone()) {
                out.push(text);
            }
        }
        round += 1;
    }
    out
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Due times, in seconds from the start of the window, of `n` Poisson
/// arrivals at `rate` per second, conditioned on all `n` falling within
/// `n / rate` seconds: sorted uniform times, so every seed offers the same
/// mean rate over a window of the same length.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed.wrapping_add(0x5c4e_d01e));
    let span = n as f64 / rate;
    let mut due: Vec<f64> = (0..n).map(|_| rng.next_f64() * span).collect();
    due.sort_by(f64::total_cmp);
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_are_deterministic_per_seed_and_differ_across_seeds() {
        let a = documents(3, 300);
        assert_eq!(a, documents(3, 300));
        let b = documents(4, 300);
        assert_ne!(a, b);
        assert!(a.iter().zip(&b).filter(|(x, y)| x == y).count() < 10);
    }

    #[test]
    fn classify_offline_documents_never_repeat() {
        let docs = documents(11, crate::offline::DOCS);
        assert_eq!(docs.len(), crate::offline::DOCS);
        let distinct: std::collections::HashSet<&String> = docs.iter().collect();
        assert_eq!(distinct.len(), docs.len());
    }

    #[test]
    fn documents_straddle_the_test_tier_window() {
        let docs = documents(5, 500);
        let lens: Vec<usize> = docs.iter().map(|d| d.split_whitespace().count()).collect();
        assert!(lens.iter().any(|&l| l < 30) && lens.iter().any(|&l| l > 30));
    }

    #[test]
    fn schedule_is_deterministic_and_near_its_rate() {
        let s = poisson_schedule(9, 100.0, 2000);
        assert_eq!(s, poisson_schedule(9, 100.0, 2000));
        assert_ne!(s, poisson_schedule(10, 100.0, 2000));
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s[0] >= 0.0 && s[s.len() - 1] < 20.0);
        // Poisson: gaps are exponential, so their mean equals their
        // standard deviation (1 / rate).
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = crate::stats::mean(&gaps);
        let sd = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!(
            (mean - 0.01).abs() < 0.001 && (sd / mean - 1.0).abs() < 0.1,
            "{mean} {sd}"
        );
    }
}
