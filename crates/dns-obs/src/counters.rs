//! Counter sets declared once.
//!
//! [`counter_set!`](crate::counter_set) turns one table of
//! `field: "help"` rows into a plain struct of `u64` counters, its
//! saturating window arithmetic and a [`CounterField`] iterator. Every
//! surface that shows the counters — `CHAOS TXT`, Prometheus, run
//! manifests — iterates that, so a new counter is one new row.

/// One counter of a [`counter_set!`](crate::counter_set) struct, as its
/// `fields()` iterator yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterField {
    /// The struct field name, also the run-manifest column.
    pub field: &'static str,
    /// The exposition name (the set's prefix plus the field name): the
    /// `CHAOS TXT` and Prometheus series.
    pub name: &'static str,
    /// One-line help text: the field's doc and the Prometheus `# HELP`.
    pub help: &'static str,
    /// The counter's value.
    pub value: u64,
}

/// Declares a set of monotone `u64` counters once.
///
/// Each row is `field: "one-line help"`. The macro generates the struct
/// (public `u64` fields in row order, deriving `Debug`, `Clone`, `Copy`,
/// `Default`, `PartialEq` and `Eq`), field-by-field saturating `Add` and
/// `Sub`, and `fields()`, which yields a [`CounterField`] per row in
/// declaration order with the exposition name `prefix` + field name.
///
/// ```
/// dns_obs::counter_set! {
///     /// Worker counters.
///     pub struct WorkerStats, prefix "worker_" {
///         served: "Replies sent",
///         dropped: "Datagrams dropped",
///     }
/// }
///
/// let end = WorkerStats { served: 5, dropped: 1 };
/// let start = WorkerStats { served: 2, dropped: 3 };
/// assert_eq!(end - start, WorkerStats { served: 3, dropped: 0 });
/// let names: Vec<_> = end.fields().map(|f| f.name).collect();
/// assert_eq!(names, ["worker_served", "worker_dropped"]);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident, prefix $prefix:literal {
            $($field:ident: $help:literal),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $(
                #[doc = $help]
                pub $field: u64,
            )*
        }

        impl $name {
            /// Every counter in declaration order: field name, exposition
            /// name, help text and value.
            pub fn fields(&self) -> impl Iterator<Item = $crate::CounterField> {
                [$(
                    $crate::CounterField {
                        field: stringify!($field),
                        name: concat!($prefix, stringify!($field)),
                        help: $help,
                        value: self.$field,
                    },
                )*]
                .into_iter()
            }
        }

        impl ::std::ops::Add for $name {
            type Output = $name;

            /// Field-by-field saturating sum: totals over several workers
            /// or windows.
            fn add(self, rhs: $name) -> $name {
                $name {
                    $($field: self.$field.saturating_add(rhs.$field),)*
                }
            }
        }

        impl ::std::ops::Sub for $name {
            type Output = $name;

            /// Field-by-field saturating difference: `end - start` is the
            /// count inside a window, clamped at zero across a reset.
            fn sub(self, rhs: $name) -> $name {
                $name {
                    $($field: self.$field.saturating_sub(rhs.$field),)*
                }
            }
        }
    };
}
