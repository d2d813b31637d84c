//! Fixture: a suppression inside test code is stale even over a line its
//! rule would match elsewhere — the rule skips test code, so the comment
//! can never silence anything.

pub fn live() -> u64 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn sums() {
        let xs = [0.5f64, 0.25];
        // nocstar-lint: allow(float-accumulation): test-only sum
        assert_eq!(xs.iter().sum::<f64>(), 0.75);
    }
}
