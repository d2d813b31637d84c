//! Fixture: fallible extraction degrades structurally; a locally proven
//! invariant carries a justified `#[expect]`; test code may panic; the
//! `unwrap_or` family and custom `expect` methods are not findings.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub struct Parser {
    pos: usize,
}

impl Parser {
    fn expect(&mut self, _byte: u8) -> Result<(), String> {
        self.pos += 1;
        Ok(())
    }

    pub fn parse(&mut self) -> Result<(), String> {
        // A custom method named `expect` is never std's panicking extractor.
        self.expect(b'{')?;
        Ok(())
    }
}

pub fn lookup(map: &std::collections::BTreeMap<u64, u64>, key: u64) -> u64 {
    map.get(&key).copied().unwrap_or_default()
}

pub fn victim_way(stamps: &[u64]) -> usize {
    debug_assert!(!stamps.is_empty());
    #[expect(clippy::expect_used, reason = "stamps is non-empty, a caller invariant")]
    let (way, _) = stamps
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| **s)
        .expect("nonempty");
    way
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        assert_eq!("3".parse::<u64>().ok().unwrap(), 3);
        assert_eq!("4".parse::<u64>().expect("test invariant"), 4);
    }
}
