//! Fixture: a well-formed suppression that silences nothing is stale —
//! the float sum it excused became an integer sum, so the comment must
//! be deleted (and failing the build is how we find out).

pub fn total(xs: &[u64]) -> u64 {
    // nocstar-lint: allow(float-accumulation): leftover from a removed float sum
    xs.iter().sum::<u64>()
}
