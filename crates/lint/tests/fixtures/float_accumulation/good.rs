//! Fixture: integer accumulation (exact, order-insensitive) with a
//! single float conversion at the edge stays silent.

pub fn mean_latency(samples: &[u64]) -> f64 {
    let total: u64 = samples.iter().sum();
    total as f64 / samples.len() as f64
}

pub fn count_hits(rows: &[u64]) -> u64 {
    let mut acc: u64 = 0;
    for r in rows {
        acc += *r;
    }
    acc
}

pub fn folded(xs: &[u64]) -> u64 {
    xs.iter().fold(0u64, |acc, x| acc + x)
}

pub fn untyped_integer(rows: &[u64]) -> u64 {
    let mut total = 0;
    for r in rows {
        total += *r;
    }
    total
}
