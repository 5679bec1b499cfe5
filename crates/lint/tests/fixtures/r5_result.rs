//! R5 fixture, result-affecting side: simulation code that launders a
//! banned construct through a helper crate (`r5_helper.rs`, parsed as a
//! `crates/bench` source). No banned identifier appears here, but the
//! call graph reaches `thread_rng` two hops away.

/// VIOLATION: reaches `bench::jitter -> bench::entropy_seed ->
/// thread_rng` through the call graph.
pub fn schedule_step(world: &mut u64) {
    jitter(world);
    *world += 1;
}

/// Not flagged: calls nothing tainted.
pub fn advance(world: &mut u64) {
    *world = world.wrapping_mul(6364136223846793005).wrapping_add(1);
}
