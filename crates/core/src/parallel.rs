//! The machine's worker count, from the shared [`rim_par`] executor.
//!
//! Callers outside `rim-core` size their parallel runs with
//! `rim_core::parallel::num_threads`; the kernels inside `rim-core`
//! call `rim_par` directly.

pub use rim_par::num_threads;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_executor_works() {
        assert!(num_threads() >= 1);
        assert_eq!(num_threads(), rim_par::num_threads());
    }
}
