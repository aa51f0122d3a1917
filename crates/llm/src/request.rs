//! Inference requests and their length distribution.
//!
//! A request is a prompt of some length that generates some number of output tokens, sent by
//! a customer (the customer identity matters for KV-cache-affinity routing, §4.5).
//! [`RequestShape::sample`] draws prompt/output lengths from log-normal distributions,
//! matching the heavy-tailed shapes reported for production conversational traces.

use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::time::SimTime;

/// A unique request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RequestId(pub u64);

/// A customer identifier (used for KV-cache affinity routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CustomerId(pub u64);

/// One LLM inference request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceRequest {
    /// Unique id.
    pub id: RequestId,
    /// The customer issuing the request.
    pub customer: CustomerId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Number of output tokens to generate.
    pub output_tokens: usize,
}

impl InferenceRequest {
    /// Total tokens processed for this request (prompt + generated).
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.prompt_tokens + self.output_tokens
    }
}

/// Parameters of the request-shape distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestShape {
    /// Median prompt length in tokens.
    pub median_prompt_tokens: f64,
    /// Log-normal sigma of the prompt length.
    pub prompt_sigma: f64,
    /// Median output length in tokens.
    pub median_output_tokens: f64,
    /// Log-normal sigma of the output length.
    pub output_sigma: f64,
    /// Maximum total sequence length (longer draws are truncated).
    pub max_total_tokens: usize,
}

impl Default for RequestShape {
    fn default() -> Self {
        Self {
            median_prompt_tokens: 512.0,
            prompt_sigma: 0.9,
            median_output_tokens: 200.0,
            output_sigma: 0.8,
            max_total_tokens: 8192,
        }
    }
}

impl RequestShape {
    /// Draws one `(prompt, output)` length pair: the prompt, then the output (each at least
    /// one token), then a proportional truncation to [`Self::max_total_tokens`].
    pub fn sample(&self, rng: &mut SimRng) -> (usize, usize) {
        let prompt = rng
            .log_normal(self.median_prompt_tokens.ln(), self.prompt_sigma)
            .round()
            .max(1.0) as usize;
        let output = rng
            .log_normal(self.median_output_tokens.ln(), self.output_sigma)
            .round()
            .max(1.0) as usize;
        clamp_total(prompt, output, self.max_total_tokens)
    }
}

/// Scales `(prompt, output)` down proportionally if their sum exceeds `max_total`.
fn clamp_total(prompt: usize, output: usize, max_total: usize) -> (usize, usize) {
    let total = prompt + output;
    if total <= max_total || total == 0 {
        return (prompt, output);
    }
    let scale = max_total as f64 / total as f64;
    let prompt = ((prompt as f64 * scale).floor() as usize).max(1);
    let output = (max_total - prompt).max(1);
    (prompt, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats;

    fn prompts(seed: u64, count: usize) -> Vec<f64> {
        let shape = RequestShape::default();
        let mut rng = SimRng::seed_from(seed);
        (0..count).map(|_| shape.sample(&mut rng).0 as f64).collect()
    }

    #[test]
    fn sampled_lengths_are_positive_and_within_the_budget() {
        let mut rng = SimRng::seed_from(1);
        for max_total_tokens in [2, 64, 700, 8192] {
            let shape = RequestShape { max_total_tokens, ..RequestShape::default() };
            for _ in 0..1000 {
                let (prompt, output) = shape.sample(&mut rng);
                assert!(prompt >= 1 && output >= 1, "({prompt}, {output})");
                assert!(prompt + output <= max_total_tokens, "({prompt}, {output})");
            }
        }
    }

    #[test]
    fn median_prompt_length_matches_shape() {
        let prompts = prompts(2, 5000);
        let median = stats::percentile(&prompts, 50.0).unwrap();
        assert!((median - 512.0).abs() < 80.0, "median {median}");
        // The distribution is heavy-tailed: p99 well above the median.
        let p99 = stats::percentile(&prompts, 99.0).unwrap();
        assert!(p99 > 2.0 * median);
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(prompts(7, 50), prompts(7, 50));
    }

    #[test]
    fn clamp_total_preserves_budget() {
        assert_eq!(clamp_total(100, 100, 300), (100, 100));
        let (p, o) = clamp_total(6000, 6000, 8192);
        assert!(p + o <= 8192);
        assert!(p >= 1 && o >= 1);
        let (p, o) = clamp_total(10_000, 1, 4096);
        assert!(p + o <= 4096);
    }
}
