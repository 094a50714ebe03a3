//! Differential proof for the approximate answering tier: every
//! `APPROX` answer the sketch produces must sit within its *stated*
//! error bound of the exact support, across a ≥128-case sweep mixing
//! exhaustive sketches (small windows, bound 0) with genuinely sampled
//! ones; the `EXACT` default must stay bit-identical to the oracle; and
//! Toivonen's sampling miner must stay exact even when its
//! negative-border verification trips and forces the fallback.
//!
//! The failure probability per sketch query is δ; the suites pin
//! δ ≤ 1e-6 with fixed seeds, so the asserted outcomes are
//! deterministic and effectively certain, mirroring the εN style of
//! `plt-stream`'s lossy-counting invariants.

use std::collections::{BTreeSet, VecDeque};

use plt::approx::{IndicatorSketch, SketchConfig};
use plt::baselines::SamplingMiner;
use plt::core::construct::{construct, ConstructOptions};
use plt::core::miner::BruteForceMiner;
use plt::core::{ConditionalMiner, Miner};
use plt::query::{run, run_forced, PhysOp, Rows, Snapshot, SupportSketch};
use plt::rules::RuleConfig;
use proptest::prelude::*;

/// True window support by subset counting — the ground truth every
/// estimate is measured against.
fn exact_support(db: &[Vec<u32>], probe: &[u32]) -> u64 {
    db.iter()
        .filter(|t| probe.iter().all(|i| t.contains(i)))
        .count() as u64
}

/// xorshift64* so one proptest seed expands into a whole workload.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn gen_db(rng: &mut Rng, n_tx: usize, n_items: u32) -> Vec<Vec<u32>> {
    (0..n_tx)
        .map(|_| {
            let len = 1 + rng.below(4) as usize;
            let mut t = BTreeSet::new();
            for _ in 0..len {
                t.insert(rng.below(n_items as u64) as u32);
            }
            t.into_iter().collect()
        })
        .collect()
}

/// A snapshot whose generation mined at support 1 (so the rank-limited
/// exact answer equals the true window support for every in-vocabulary
/// probe), with a sketch warmed over the same window.
fn sketch_source(db: &[Vec<u32>], epsilon: f64, seed: u64) -> Snapshot {
    let plt = construct(db, 1, ConstructOptions::conditional()).unwrap();
    let result = ConditionalMiner::default().mine(db, 1);
    let mut sketch = IndicatorSketch::new(SketchConfig {
        epsilon,
        delta: 1e-9,
        capacity: db.len(),
        seed,
    });
    for t in db {
        sketch.observe(t);
    }
    Snapshot::build(1, plt, &result, RuleConfig::default()).with_sketch(Box::new(sketch))
}

fn support_of(rows: &Rows) -> u64 {
    match rows {
        Rows::Support { support, .. } => *support,
        other => panic!("expected a support row, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The ≥128-case differential sweep: per case, several probes run
    /// through the forced sketch operator, the planner's own APPROX
    /// choice, and the EXACT default — each checked against brute-force
    /// subset counting.
    #[test]
    fn approx_answers_stay_within_their_stated_bound(
        seed in any::<u64>(),
        n_tx in 150usize..900,
        n_items in 4u32..10,
        eps_sel in 0u8..3,
    ) {
        let epsilon = [0.1, 0.2, 0.3][eps_sel as usize];
        let mut rng = Rng::new(seed);
        let db = gen_db(&mut rng, n_tx, n_items);
        let src = sketch_source(&db, epsilon, seed ^ 0xabcd);

        let mut probes: Vec<Vec<u32>> = Vec::new();
        for _ in 0..4 {
            let mut p = BTreeSet::new();
            for _ in 0..1 + rng.below(3) {
                p.insert(rng.below(n_items as u64) as u32);
            }
            probes.push(p.into_iter().collect());
        }
        // Out-of-vocabulary probe: true support 0 on both paths.
        probes.push(vec![n_items + 5]);

        for probe in &probes {
            let exact = exact_support(&db, probe);
            let expr = probe
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(", ");

            // Forced sketch probe: approximate provenance, bounded error.
            let (rows, prov) = run_forced(
                &format!("SUPPORT OF {{{expr}}} APPROX"),
                &src,
                PhysOp::SketchProbe,
            )
            .unwrap();
            prop_assert!(prov.approx, "sketch probe must report approx");
            let bound = prov.error_bound.expect("approx answers state a bound");
            let est = support_of(&rows);
            prop_assert!(
                est.abs_diff(exact) <= bound,
                "|{est} - {exact}| > {bound} for {probe:?} (n={n_tx}, eps={epsilon})"
            );

            // Planner under APPROX: bounded when a sketch answers,
            // exact when it honestly falls back.
            let (rows, prov) = run(
                &format!("SUPPORT OF {{{expr}}} APPROX"),
                &src,
                &mut plt::obs::Obs::none(),
            )
            .unwrap();
            let est = support_of(&rows);
            if prov.approx {
                let bound = prov.error_bound.unwrap();
                prop_assert!(est.abs_diff(exact) <= bound, "{probe:?}");
            } else {
                prop_assert_eq!(est, exact, "exact fallback must be exact");
            }

            // The EXACT default never goes near the sketch.
            let (rows, prov) = run(
                &format!("SUPPORT OF {{{expr}}}"),
                &src,
                &mut plt::obs::Obs::none(),
            )
            .unwrap();
            prop_assert!(!prov.approx);
            prop_assert_eq!(prov.error_bound, None);
            prop_assert_eq!(support_of(&rows), exact, "{probe:?}");
        }
    }

    /// The sketch honors its ε/δ contract under arbitrary insert/slide
    /// interleavings: a reference FIFO window is maintained alongside,
    /// and after every arrival past warm-up the estimate of each probe
    /// stays within the stated bound of the reference count.
    #[test]
    fn sketch_bound_holds_across_insert_slide_interleavings(
        arrivals in proptest::collection::vec(
            proptest::collection::btree_set(0u32..8, 1..5),
            150..400,
        ),
        capacity in 60usize..140,
        seed in any::<u64>(),
    ) {
        let mut sketch = IndicatorSketch::new(SketchConfig {
            epsilon: 0.35,
            delta: 1e-6,
            capacity,
            seed,
        });
        let mut window: VecDeque<Vec<u32>> = VecDeque::new();
        let probes: [&[u32]; 4] = [&[0], &[3], &[0, 1], &[2, 5]];
        for (i, t) in arrivals.iter().enumerate() {
            let t: Vec<u32> = t.iter().copied().collect();
            sketch.observe(&t);
            window.push_back(t);
            if window.len() > capacity {
                window.pop_front();
            }
            // Check at a stride to keep the sweep fast; always check
            // the final state.
            if i % 37 != 0 && i + 1 != arrivals.len() {
                continue;
            }
            let w: Vec<Vec<u32>> = window.iter().cloned().collect();
            prop_assert_eq!(sketch.window_len(), w.len() as u64);
            for probe in probes {
                let (est, bound) = sketch.estimate(probe);
                let exact = exact_support(&w, probe);
                prop_assert!(
                    est.abs_diff(exact) <= bound,
                    "arrival {i}: |{est} - {exact}| > {bound} for {probe:?} \
                     (capacity={capacity}, kept={})",
                    sketch.kept_len()
                );
            }
        }
    }
}

/// Starving the sampler (tiny sample, no support slack, one attempt)
/// trips the negative-border verification on real windows — and the
/// mined result must be exact anyway, because a violation forces the
/// exact fallback.
#[test]
fn negative_border_violations_force_the_exact_fallback() {
    // Many itemsets sit near the threshold, so a 6% sample routinely
    // misjudges one of them.
    let window: Vec<Vec<u32>> = (0..420u32)
        .map(|i| {
            let mut t = vec![i % 7, 7 + (i % 5), 12 + (i % 11)];
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect();
    let min_support = 55;
    let expect = BruteForceMiner.mine(&window, min_support).sorted();

    let mut violations = 0;
    let mut fallbacks = 0;
    for round in 0..40u64 {
        let sampler = SamplingMiner {
            sample_fraction: 0.06,
            support_slack: 0.0,
            seed: 0x0b0b_b1e5u64.wrapping_add(round.wrapping_mul(0x9e37_79b9)),
            max_attempts: 1,
        };
        let (result, outcome) = sampler.mine_with_outcome(&window, min_support);
        assert_eq!(
            result.sorted(),
            expect,
            "round {round}: the sampling miner must stay exact (outcome: {outcome:?})"
        );
        violations += outcome.border_violations;
        if outcome.fell_back {
            fallbacks += 1;
        }
    }
    assert!(
        violations > 0,
        "the starved sampler never tripped the negative border — \
         the fallback path went unexercised"
    );
    assert!(fallbacks > 0, "violations must force the exact fallback");
}
