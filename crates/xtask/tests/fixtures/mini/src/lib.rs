#![forbid(unsafe_code)]

/// Exact equality — deliberately wrong for the fixture.
pub fn check(x: f64) -> bool {
    x == 1.0
}

/// Mixed powers — deliberately wrong for the fixture.
pub fn nearby(d: f64, r: f64) -> bool {
    d * d <= r
}

/// Panics — deliberately wrong for the fixture.
pub fn boom(v: Option<u32>) -> u32 {
    v.unwrap()
}

/// Suppressed by pragma.
pub fn quiet(x: f64) -> bool {
    // rim-lint: allow(float-eq)
    x == 2.0
}

/// Uses the sibling crate.
pub fn ok() -> u32 {
    demo_core::seven()
}

/// Engine root that reads the wall clock — deliberately wrong for the fixture.
// rim-lint: root
pub fn interference_vector_with(n: u64) -> u64 {
    n + std::time::Instant::now().elapsed().as_nanos() as u64
}

/// Mixed power domains — deliberately wrong for the fixture.
pub fn budget(signal_mw: f64, noise_dbm: f64) -> bool {
    signal_mw < noise_dbm
}
