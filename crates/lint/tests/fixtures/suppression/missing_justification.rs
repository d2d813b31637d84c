//! Fixture: suppressions without a justification are rejected — the
//! original finding still fires AND the malformed comment is its own
//! error.

pub fn mean(xs: &[f64]) -> f64 {
    // nocstar-lint: allow(float-accumulation)
    xs.iter().sum::<f64>() / xs.len() as f64
}
