//! Fixture: a suppression naming a rule id this lint does not check
//! silences nothing and must itself fail the build — typos and retired
//! rules don't get a pass.

pub fn f(x: Option<u64>) -> u64 {
    // nocstar-lint: allow(no-such-rule): typo'd rule id
    x.unwrap_or(0)
}
