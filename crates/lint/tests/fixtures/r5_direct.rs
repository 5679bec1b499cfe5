//! R5 fixture: nondeterminism sources used directly inside a
//! result-affecting crate, plus a test region that may use them.

/// VIOLATION: OS entropy.
pub fn roll() -> u64 {
    let mut rng = rand::thread_rng();
    rng.next_u64()
}

/// VIOLATION: hash iteration order.
pub fn tally(events: &[u32]) -> Vec<(u32, usize)> {
    let mut counts = std::collections::HashMap::new();
    for e in events {
        *counts.entry(*e).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// Not flagged: deterministic key order.
pub fn tally_sorted(events: &[u32]) -> Vec<(u32, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for e in events {
        *counts.entry(*e).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    /// Test regions are outside the call graph.
    pub fn shuffled() -> std::collections::HashSet<u32> {
        std::collections::HashSet::new()
    }
}
