//! Fixture: a justified suppression silences its finding (which is then
//! counted as suppressed, not reported).

pub fn mean(xs: &[f64]) -> f64 {
    // nocstar-lint: allow(float-accumulation): xs is a fixed-order slice, a caller invariant
    xs.iter().sum::<f64>() / xs.len() as f64
}
