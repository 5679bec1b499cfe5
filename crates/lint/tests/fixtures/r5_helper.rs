//! R5 fixture, helper side: a utility crate R5 does not flag whose
//! innards read OS entropy. Fine on its own (bench code measures wall
//! clocks by design); poisonous once result-affecting code calls in.

/// First hop of the laundering chain.
pub fn jitter(world: &mut u64) {
    *world ^= entropy_seed();
}

/// Second hop: the actual banned construct.
pub fn entropy_seed() -> u64 {
    let mut rng = rand::thread_rng();
    rng.next_u64()
}
