//! Invariant suite for the Lossy Counting sketch: properties that feed
//! arbitrary transaction streams and check, *at every step*, that
//! estimates never exceed truth and undercount by at most ⌈εN⌉ —
//! untracked items included (estimate 0 forces their true count under
//! the bound, i.e. no frequent item is ever dropped).

use std::collections::BTreeMap;

use plt_stream::LossyCounter;
use proptest::prelude::*;

/// Folds one transaction into an exact count table.
fn count_into(truth: &mut BTreeMap<u32, u64>, row: &[u32]) {
    for &item in row {
        *truth.entry(item).or_insert(0) += 1;
    }
}

/// Checks the Lossy Counting bound against exact counts; `Err` carries
/// the violating item with both counts.
fn lossy_bound_holds(
    lc: &LossyCounter,
    truth: &BTreeMap<u32, u64>,
    step: usize,
) -> Result<(), String> {
    let bound = (lc.epsilon() * lc.observed() as f64).ceil() as u64;
    for (&item, &count) in truth {
        let est = lc.estimate(item);
        if est > count {
            return Err(format!(
                "step {step}: overcount on item {item}: estimate {est} > true {count}"
            ));
        }
        if count - est > bound {
            return Err(format!(
                "step {step}: item {item} undercounts by {} > εN = {bound} \
                 (true {count}, estimate {est}, N {})",
                count - est,
                lc.observed()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The εN bound holds after every single observation, whatever the
    /// stream.
    #[test]
    fn prop_lossy_error_bounded_at_every_step(
        rows in proptest::collection::vec(
            proptest::collection::btree_set(0u32..14, 1..6),
            20..120,
        ),
        eps_thousandths in 5u64..120,
    ) {
        let epsilon = eps_thousandths as f64 / 1000.0;
        let mut lc = LossyCounter::new(epsilon);
        let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
        for (step, row) in rows.iter().enumerate() {
            let row: Vec<u32> = row.iter().copied().collect();
            lc.observe_transaction(&row);
            count_into(&mut truth, &row);
            let verdict = lossy_bound_holds(&lc, &truth, step);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }

    /// A heavy hitter stays reportable however scattered the rest of
    /// the stream is: `frequent(s)` has no false negatives (Manku &
    /// Motwani guarantee 1).
    #[test]
    fn prop_heavy_hitter_never_lost(
        filler in proptest::collection::vec(1u32..50, 50..400),
        eps_thousandths in 5u64..50,
    ) {
        let epsilon = eps_thousandths as f64 / 1000.0;
        let mut lc = LossyCounter::new(epsilon);
        let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
        // Item 0 rides along with every third filler item: a guaranteed
        // ≥ 25% heavy hitter in a stream of otherwise scattered items.
        for (i, &f) in filler.iter().enumerate() {
            let row: Vec<u32> = if i % 3 == 0 { vec![0, f] } else { vec![f] };
            lc.observe_transaction(&row);
            count_into(&mut truth, &row);
        }
        let n = lc.observed() as f64;
        let s = 0.2;
        let reported: Vec<u32> = lc.frequent(s).into_iter().map(|(i, _)| i).collect();
        for (&item, &count) in &truth {
            if count as f64 >= s * n {
                prop_assert!(
                    reported.contains(&item),
                    "missed {}x-frequent item {} (N = {}, s = {})",
                    count, item, n, s
                );
            }
        }
        prop_assert!(reported.contains(&0), "heavy hitter 0 dropped");
    }
}
