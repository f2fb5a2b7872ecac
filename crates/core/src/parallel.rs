//! Data parallelism — re-exported from the shared [`rim_par`] executor.
//!
//! The chunked scoped-thread scatter executor originally lived here;
//! once the topology-construction pipeline and the bench sweeps needed
//! the same primitives it was hoisted into the `rim-par` crate. This
//! module stays as the long-standing `rim_core::parallel::…` path so the
//! interference kernels (and external callers) keep compiling unchanged.

pub use rim_par::{
    num_threads, par_fill_chunk_pairs, par_fill_chunks, par_map_ranges, par_scatter_u32,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_executor_works() {
        let sums = par_map_ranges(100, 4, |r| r.sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), (0..100).sum::<usize>());
        assert!(num_threads() >= 1);
    }
}
