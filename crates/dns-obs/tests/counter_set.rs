//! Properties of the code `counter_set!` generates: `Add` and `Sub`
//! saturate field by field, and `fields()` walks the rows in declaration
//! order under the set's prefix.

use dns_obs::counter_set;
use proptest::prelude::*;

counter_set! {
    /// A four-counter set standing in for any declared table.
    pub struct Probe, prefix "probe_" {
        alpha: "First counter",
        beta: "Second counter",
        gamma: "Third counter",
        delta: "Fourth counter",
    }
}

/// Counter values biased to both ends of `u64`, where saturation bites.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000, (u64::MAX - 1_000)..=u64::MAX, any::<u64>()]
}

fn probe() -> impl Strategy<Value = Probe> {
    (value(), value(), value(), value()).prop_map(|(alpha, beta, gamma, delta)| Probe {
        alpha,
        beta,
        gamma,
        delta,
    })
}

fn values(p: Probe) -> Vec<u64> {
    p.fields().map(|f| f.value).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn add_and_sub_saturate_field_by_field(a in probe(), b in probe()) {
        let (va, vb) = (values(a), values(b));
        let sum = values(a + b);
        let diff = values(a - b);
        prop_assert_eq!(sum.len(), 4);
        for i in 0..4 {
            prop_assert_eq!(sum[i], va[i].saturating_add(vb[i]));
            prop_assert_eq!(diff[i], va[i].saturating_sub(vb[i]));
        }
    }
}

#[test]
fn fields_follow_the_table() {
    let p = Probe {
        alpha: 1,
        beta: 2,
        gamma: 3,
        delta: 4,
    };
    let rows: Vec<_> = p
        .fields()
        .map(|f| (f.field, f.name, f.help, f.value))
        .collect();
    assert_eq!(
        rows,
        [
            ("alpha", "probe_alpha", "First counter", 1),
            ("beta", "probe_beta", "Second counter", 2),
            ("gamma", "probe_gamma", "Third counter", 3),
            ("delta", "probe_delta", "Fourth counter", 4),
        ]
    );
    assert_eq!(p - p, Probe::default());
}
