//! Building a PLT allocates per partition, not per vector: each partition
//! `D_k` is one row matrix with a few columns beside it, so the heap calls
//! of `construct` grow with the number of partitions and the doublings of
//! their buffers, not with the number of distinct vectors. Likewise a
//! serving snapshot indexes the mining result's own table: its index
//! allocates per table, not per frequent itemset.
//!
//! This file is its own test binary because it installs a counting global
//! allocator. The counter is per thread, so tests running beside it on
//! other threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use plt::core::construct::{construct, ConstructOptions};
use plt::core::{ConditionalMiner, Miner, SupportOracle};
use plt::data::gen::zipf::{ZipfConfig, ZipfGenerator};
use plt::query::Snapshot;
use plt::rules::{generate_rules, sort_rules, RuleConfig};

/// The system allocator, counting the allocations and reallocations the
/// current thread makes while counting is switched on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_call() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap calls `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, CALLS.with(Cell::get))
}

/// `n` transactions of 3 to 10 distinct items out of 40, from a fixed
/// linear congruential stream, so nearly every one is a distinct vector.
fn transactions(n: usize) -> Vec<Vec<u32>> {
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    (0..n)
        .map(|_| {
            let len = 3 + next(8) as usize;
            let mut t: Vec<u32> = Vec::with_capacity(len);
            while t.len() < len {
                let item = next(40) as u32;
                if !t.contains(&item) {
                    t.push(item);
                }
            }
            t
        })
        .collect()
}

#[test]
fn construct_allocates_per_partition_not_per_vector() {
    let db = transactions(10_000);
    let (plt, calls) =
        allocations_of(|| construct(&db, 1, ConstructOptions::conditional()).expect("construct"));
    assert!(
        plt.num_vectors() >= 9_000,
        "the input must project to at least 9,000 distinct vectors, got {}",
        plt.num_vectors()
    );
    assert!(
        calls < 2_500,
        "construct made {calls} allocations for {} distinct vectors in {} partitions",
        plt.num_vectors(),
        plt.max_len()
    );
}

#[test]
fn snapshot_index_allocates_per_table_not_per_itemset() {
    let db = ZipfGenerator::new(ZipfConfig {
        num_transactions: 10_000,
        seed: 7,
        ..ZipfConfig::default()
    })
    .generate()
    .into_transactions();
    // 0.2% of the window, as the serving benchmark mines it.
    let min_support = 20;
    let plt = construct(&db, min_support, ConstructOptions::conditional()).expect("construct");
    let result = ConditionalMiner::default().mine(&db, min_support);
    assert!(
        result.len() >= 1_000,
        "the window must yield at least 1,000 frequent itemsets, got {}",
        result.len()
    );
    let config = RuleConfig::default();

    // What a snapshot holds beside its index, each built on its own.
    let (_, plt_clone) = allocations_of(|| plt.clone());
    let (_, oracle) = allocations_of(|| SupportOracle::new(&plt));
    let (_, rules) = allocations_of(|| {
        let mut rules = generate_rules(&result, config);
        sort_rules(&mut rules);
        rules
    });
    let (snapshot, build) = allocations_of(|| Snapshot::build(1, plt.clone(), &result, config));
    let parts = plt_clone + oracle + rules;
    assert!(
        build < parts + 64,
        "Snapshot::build made {build} allocations for {} itemsets, {} more than its \
         PLT clone ({plt_clone}), support oracle ({oracle}) and rules ({rules})",
        snapshot.num_itemsets(),
        build.saturating_sub(parts)
    );
}
