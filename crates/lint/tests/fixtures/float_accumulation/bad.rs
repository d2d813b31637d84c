//! Fixture: order-sensitive float reductions, one per detection path —
//! a float-marked chain, a `::<f64>` turbofish, a float fold seed, a
//! float-aliased `let`, and hand-rolled loop accumulators, typed and
//! untyped (`let mut sum = 0.0`).

type Score = f64;

pub fn mean_latency(samples: &[u64]) -> f64 {
    let total = samples.iter().map(|&s| s as f64 / 3.0).sum();
    total
}

pub fn norm(weights: &[f64]) -> f64 {
    weights.iter().sum::<f64>()
}

pub fn folded(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, x| acc + x)
}

pub fn aliased(parts: &[Score]) -> Score {
    let total: Score = parts.iter().copied().sum();
    total
}

pub fn looped(xs: &[f64]) -> f64 {
    let mut acc: f64 = 0.0;
    for x in xs {
        acc += *x;
    }
    acc
}

pub fn untyped(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    for x in xs {
        sum += *x;
    }
    sum
}
