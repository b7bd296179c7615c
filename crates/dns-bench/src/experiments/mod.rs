//! One function per paper artifact (tables and figures).
//!
//! Each function prints the paper-shaped table(s) on stdout and writes a
//! CSV into [`crate::output_dir`]. The `src/bin/` binaries are thin
//! wrappers; `all_experiments` chains everything over one shared [`Lab`].

use crate::{emit, pct, ratio, Lab};
use dns_core::{SimDuration, SimTime, Ttl};
use dns_resolver::{DefensePolicy, RenewalPolicy, StalePolicy};
use dns_sim::experiment::{
    AttackOutcome, OverheadOutcome, Scheme, ATTACK_START_DAY, POLICY_FIGURE_DURATION,
};
use dns_sim::gap::GapAnalysis;
use dns_sim::{AdversarySpec, ExperimentSpec, ServerFarm, SweepOutcome};
use dns_stats::{AsciiChart, Table};
use dns_trace::{NxnsBombSpec, TraceSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Attack onset shared by every failure experiment: start of day 7.
pub fn attack_start() -> SimTime {
    SimTime::from_days(ATTACK_START_DAY)
}

/// The four attack durations of Figures 4–5.
pub fn durations_hours() -> [u64; 4] {
    [3, 6, 12, 24]
}

impl Lab {
    /// Runs one engine sweep over `names` × `group`, reusing the lab's
    /// farm cache and recording the sweep's manifest. Traces enter the
    /// sweep as streamed sources ([`ExperimentSpec::stream_trace`]):
    /// units replay them straight from the seeded generator — byte-
    /// identical to the materialized trace (same scale and seed as
    /// [`crate::build_trace`]) at `O(zones)` replay memory, so figure
    /// binaries never materialize a trace they only sweep over.
    fn sweep<F>(
        &mut self,
        specs: &[TraceSpec],
        names: &[&'static str],
        group: &[Scheme],
        configure: F,
    ) -> SweepOutcome
    where
        F: for<'s> FnOnce(ExperimentSpec<'s>) -> ExperimentSpec<'s>,
    {
        let farms: Vec<(Option<Ttl>, Arc<ServerFarm>)> = group
            .iter()
            .map(|s| (s.long_ttl, self.farm(s.long_ttl)))
            .collect();
        let mut espec = ExperimentSpec::new(&self.universe).schemes(group.iter().copied());
        for name in names {
            let spec = specs
                .iter()
                .find(|s| s.name == *name)
                .expect("grouped name comes from specs");
            let index = spec.name.as_bytes().last().copied().unwrap_or(0) as u64;
            espec = espec.stream_trace(
                spec.scaled(crate::scale().min(1.0)),
                crate::TRACE_SEED + index,
            );
        }
        for (ttl, farm) in farms {
            espec = espec.farm(ttl, farm);
        }
        let outcome = configure(espec).run();
        self.manifests.push(outcome.manifest.clone());
        outcome
    }

    /// Ensures every `(trace, scheme, duration)` attack cell is memoised,
    /// batching the missing cells into as few parallel engine sweeps as
    /// possible: schemes missing the same trace set share one sweep, so
    /// the engine fans full trace × scheme products over its workers.
    pub fn attack_grid(
        &mut self,
        specs: &[TraceSpec],
        schemes: &[Scheme],
        durations: &[SimDuration],
    ) {
        let mut groups: BTreeMap<Vec<&'static str>, Vec<Scheme>> = BTreeMap::new();
        for scheme in schemes {
            let missing: Vec<&'static str> = specs
                .iter()
                .filter(|spec| {
                    durations
                        .iter()
                        .any(|d| !self.attack_memo.contains_key(&memo_key(spec, scheme, *d)))
                })
                .map(|spec| spec.name)
                .collect();
            if !missing.is_empty() {
                groups.entry(missing).or_default().push(*scheme);
            }
        }
        for (names, group) in groups {
            let outcome = self.sweep(specs, &names, &group, |s| {
                s.attack(attack_start(), durations)
            });
            for o in outcome.attacks {
                let name = static_name(specs, &o.trace);
                self.attack_memo
                    .insert((o.scheme.clone(), name, o.duration.as_secs()), o);
            }
        }
    }

    /// Ensures every `(trace, scheme)` overhead cell is memoised, batched
    /// like [`Lab::attack_grid`].
    pub fn overhead_grid(
        &mut self,
        specs: &[TraceSpec],
        schemes: &[Scheme],
        sample_every: SimDuration,
    ) {
        let mut groups: BTreeMap<Vec<&'static str>, Vec<Scheme>> = BTreeMap::new();
        for scheme in schemes {
            let missing: Vec<&'static str> = specs
                .iter()
                .filter(|spec| {
                    !self
                        .overhead_memo
                        .contains_key(&(scheme.label(), spec.name))
                })
                .map(|spec| spec.name)
                .collect();
            if !missing.is_empty() {
                groups.entry(missing).or_default().push(*scheme);
            }
        }
        for (names, group) in groups {
            let outcome = self.sweep(specs, &names, &group, |s| s.overhead(sample_every));
            for o in outcome.overheads {
                let name = static_name(specs, &o.trace);
                self.overhead_memo.insert((o.scheme.clone(), name), o);
            }
        }
    }

    /// Memoised attack outcomes for one `(trace, scheme)` column across
    /// `durations`; delegates to [`Lab::attack_grid`], so repeated
    /// columns (e.g. the vanilla baseline) are simulated only once.
    pub fn attack_outcomes(
        &mut self,
        spec: &TraceSpec,
        scheme: Scheme,
        durations: &[SimDuration],
    ) -> Vec<AttackOutcome> {
        self.attack_grid(std::slice::from_ref(spec), &[scheme], durations);
        durations
            .iter()
            .map(|d| self.attack_memo[&memo_key(spec, &scheme, *d)].clone())
            .collect()
    }

    /// Memoised full-trace overhead run for Table 1 / Table 2 / Figure 12.
    pub fn overhead(
        &mut self,
        spec: &TraceSpec,
        scheme: Scheme,
        sample_every: SimDuration,
    ) -> OverheadOutcome {
        self.overhead_grid(std::slice::from_ref(spec), &[scheme], sample_every);
        self.overhead_memo[&(scheme.label(), spec.name)].clone()
    }

    /// Memoised Figure-3 gap analyses (vanilla full-trace replay), with
    /// any missing traces run as one parallel sweep.
    pub fn gap_analyses(&mut self, specs: &[TraceSpec]) -> Vec<GapAnalysis> {
        let missing: Vec<&'static str> = specs
            .iter()
            .filter(|s| !self.gap_memo.contains_key(s.name))
            .map(|s| s.name)
            .collect();
        if !missing.is_empty() {
            let outcome = self.sweep(specs, &missing, &[Scheme::vanilla()], |s| s.gaps());
            for g in outcome.gaps {
                let name = static_name(specs, &g.trace);
                self.gap_memo
                    .insert(name, GapAnalysis::from_samples(&g.samples));
            }
        }
        specs
            .iter()
            .map(|s| self.gap_memo[s.name].clone())
            .collect()
    }
}

fn memo_key(spec: &TraceSpec, scheme: &Scheme, d: SimDuration) -> (String, &'static str, u64) {
    (scheme.label(), spec.name, d.as_secs())
}

/// Maps an outcome's trace label back to the `&'static str` preset name
/// the memo tables are keyed by.
fn static_name(specs: &[TraceSpec], name: &str) -> &'static str {
    specs
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.name)
        .expect("outcome trace label comes from the sweep's specs")
}

// ---------------------------------------------------------------------
// Table 1 — trace statistics
// ---------------------------------------------------------------------

/// The cache-occupancy sampling interval shared by every overhead run
/// (Tables 1–2, Figure 12), so their memo entries are interchangeable.
pub fn overhead_sample() -> SimDuration {
    SimDuration::from_hours(6)
}

/// Regenerates Table 1: per-trace statistics, with "requests out"
/// measured by a vanilla replay (as the paper's caching servers did).
pub fn table1(lab: &mut Lab, specs: &[TraceSpec]) {
    // One parallel sweep covers every trace's vanilla replay; Table 2
    // and Figure 12 reuse the same memo entries.
    lab.overhead_grid(specs, &[Scheme::vanilla()], overhead_sample());
    let mut table = Table::new(vec![
        "Trace",
        "Duration",
        "Clients",
        "Requests In",
        "Requests Out",
        "Names",
        "Zones",
    ]);
    table.numeric();
    for spec in specs {
        lab.trace(spec);
        let stats = lab.traces[spec.name].stats();
        // "Requests out" is a property of a (vanilla) caching server in
        // front of the clients, so measure it by replay.
        let out = lab
            .overhead(spec, Scheme::vanilla(), overhead_sample())
            .metrics
            .queries_out;
        table.row(vec![
            stats.name.clone(),
            format!("{} Days", stats.days),
            stats.clients.to_string(),
            stats.requests_in.to_string(),
            out.to_string(),
            stats.distinct_names.to_string(),
            stats.distinct_zones.to_string(),
        ]);
    }
    emit("Table 1: DNS trace statistics", "table1", &table);
}

// ---------------------------------------------------------------------
// Figure 3 — time-gap CDFs
// ---------------------------------------------------------------------

/// Regenerates Figure 3: CDFs of the gap between an infrastructure
/// record's expiry and the next query to its zone — absolute (days) and
/// relative (fraction of the zone's IRR TTL).
pub fn fig3(lab: &mut Lab, specs: &[TraceSpec]) {
    let mut summary = Table::new(vec![
        "Trace",
        "Gaps",
        "P50 (days)",
        "P90 (days)",
        "<=1 day %",
        "<=5 days %",
        "P50 (xTTL)",
        "P90 (xTTL)",
    ]);
    summary.numeric();
    let mut curves = Table::new(vec!["Trace", "Kind", "Value", "CDF"]);
    let analyses = lab.gap_analyses(specs);
    for (spec, analysis) in specs.iter().zip(&analyses) {
        summary.row(vec![
            spec.name.to_string(),
            analysis.samples.to_string(),
            format!("{:.3}", analysis.absolute_days.quantile(0.5).unwrap_or(0.0)),
            format!("{:.3}", analysis.absolute_days.quantile(0.9).unwrap_or(0.0)),
            pct(analysis.absolute_days.fraction_at_or_below(1.0) * 100.0),
            pct(analysis.absolute_days.fraction_at_or_below(5.0) * 100.0),
            format!(
                "{:.3}",
                analysis.fraction_of_ttl.quantile(0.5).unwrap_or(0.0)
            ),
            format!(
                "{:.3}",
                analysis.fraction_of_ttl.quantile(0.9).unwrap_or(0.0)
            ),
        ]);
        for (value, cdf) in analysis.absolute_days.curve(64) {
            curves.row(vec![
                spec.name.to_string(),
                "days".to_string(),
                format!("{value:.4}"),
                format!("{cdf:.4}"),
            ]);
        }
        for (value, cdf) in analysis.fraction_of_ttl.curve(64) {
            curves.row(vec![
                spec.name.to_string(),
                "xTTL".to_string(),
                format!("{value:.4}"),
                format!("{cdf:.4}"),
            ]);
        }
    }
    emit(
        "Figure 3: time-gap duration summary",
        "fig3_summary",
        &summary,
    );
    emit("Figure 3: time-gap CDF curves", "fig3_curves", &curves);

    // Terminal rendition of the upper plot (absolute gaps, first trace).
    if let Some(spec) = specs.first() {
        let points: Vec<(f64, f64)> = curves_points_for(&curves, spec.name, "days");
        if !points.is_empty() {
            let mut chart = AsciiChart::new(64, 12);
            chart.series(
                format!("{} gap CDF (days → fraction)", spec.name),
                '*',
                points,
            );
            println!("{}", chart.render());
        }
    }
}

/// Extracts `(value, cdf)` points for one (trace, kind) series from the
/// Figure-3 curve table.
fn curves_points_for(curves: &Table, trace: &str, kind: &str) -> Vec<(f64, f64)> {
    curves
        .rows()
        .iter()
        .filter(|r| r[0] == trace && r[1] == kind)
        .filter_map(|r| Some((r[2].parse().ok()?, r[3].parse().ok()?)))
        .collect()
}

// ---------------------------------------------------------------------
// Figures 4–5 — failure vs attack duration
// ---------------------------------------------------------------------

/// Emits the two failure tables (SR-level and CS-level) for a scheme
/// evaluated across attack durations — the shape of Figures 4 and 5.
fn duration_figure(lab: &mut Lab, specs: &[TraceSpec], scheme: Scheme, figure: &str, stem: &str) {
    let durations: Vec<SimDuration> = durations_hours()
        .iter()
        .map(|&h| SimDuration::from_hours(h))
        .collect();
    // All traces in one parallel sweep before the per-row reads below.
    lab.attack_grid(specs, &[scheme], &durations);
    let mut headers = vec!["Trace".to_string()];
    headers.extend(durations_hours().iter().map(|h| format!("{h} Hours")));

    let mut sr = Table::new(headers.clone());
    let mut cs = Table::new(headers);
    sr.numeric();
    cs.numeric();
    for spec in specs {
        let outcomes = lab.attack_outcomes(spec, scheme, &durations);
        let mut sr_row = vec![spec.name.to_string()];
        let mut cs_row = vec![spec.name.to_string()];
        for o in &outcomes {
            sr_row.push(pct(o.sr_failed_pct));
            cs_row.push(pct(o.cs_failed_pct));
        }
        sr.row(sr_row);
        cs.row(cs_row);
    }
    emit(
        &format!("{figure}: % failed queries from SRs ({})", scheme.label()),
        &format!("{stem}_sr"),
        &sr,
    );
    emit(
        &format!("{figure}: % failed queries from CSs ({})", scheme.label()),
        &format!("{stem}_cs"),
        &cs,
    );
}

/// Regenerates Figure 4 (vanilla DNS under root+TLD attack).
pub fn fig4(lab: &mut Lab, specs: &[TraceSpec]) {
    duration_figure(lab, specs, Scheme::vanilla(), "Figure 4", "fig4");
}

/// Regenerates Figure 5 (TTL refresh).
pub fn fig5(lab: &mut Lab, specs: &[TraceSpec]) {
    duration_figure(lab, specs, Scheme::refresh(), "Figure 5", "fig5");
}

// ---------------------------------------------------------------------
// Figures 6–9 — renewal policies
// ---------------------------------------------------------------------

/// Emits a policy-comparison figure: vanilla vs refresh+renewal at
/// credits 1/3/5 under the 6-hour attack (the shape of Figures 6–9).
fn renewal_figure(
    lab: &mut Lab,
    specs: &[TraceSpec],
    policy: fn(u32) -> RenewalPolicy,
    figure: &str,
    stem: &str,
) {
    let credits = [1u32, 3, 5];
    let schemes: Vec<(String, Scheme)> = std::iter::once(("DNS".to_string(), Scheme::vanilla()))
        .chain(credits.iter().map(|&c| {
            let p = policy(c);
            (p.label(), Scheme::renewal(p))
        }))
        .collect();
    columns_figure(lab, specs, &schemes, figure, stem);
}

/// Shared emitter for figures whose columns are schemes at the fixed
/// 6-hour attack (Figures 6–11).
fn columns_figure(
    lab: &mut Lab,
    specs: &[TraceSpec],
    schemes: &[(String, Scheme)],
    figure: &str,
    stem: &str,
) {
    let durations = [POLICY_FIGURE_DURATION];
    // Full trace × scheme product in one parallel sweep.
    let scheme_list: Vec<Scheme> = schemes.iter().map(|(_, s)| *s).collect();
    lab.attack_grid(specs, &scheme_list, &durations);
    let mut headers = vec!["Trace".to_string()];
    headers.extend(schemes.iter().map(|(label, _)| label.clone()));
    let mut sr = Table::new(headers.clone());
    let mut cs = Table::new(headers);
    sr.numeric();
    cs.numeric();
    for spec in specs {
        let mut sr_row = vec![spec.name.to_string()];
        let mut cs_row = vec![spec.name.to_string()];
        for (_, scheme) in schemes {
            let o = &lab.attack_outcomes(spec, *scheme, &durations)[0];
            sr_row.push(pct(o.sr_failed_pct));
            cs_row.push(pct(o.cs_failed_pct));
        }
        sr.row(sr_row);
        cs.row(cs_row);
    }
    emit(
        &format!("{figure}: % failed queries from SRs (6h attack)"),
        &format!("{stem}_sr"),
        &sr,
    );
    emit(
        &format!("{figure}: % failed queries from CSs (6h attack)"),
        &format!("{stem}_cs"),
        &cs,
    );
}

/// Regenerates Figure 6 (TTL refresh + LRU renewal).
pub fn fig6(lab: &mut Lab, specs: &[TraceSpec]) {
    renewal_figure(lab, specs, RenewalPolicy::lru, "Figure 6", "fig6");
}

/// Regenerates Figure 7 (TTL refresh + LFU renewal).
pub fn fig7(lab: &mut Lab, specs: &[TraceSpec]) {
    renewal_figure(lab, specs, RenewalPolicy::lfu, "Figure 7", "fig7");
}

/// Regenerates Figure 8 (TTL refresh + adaptive-LRU renewal).
pub fn fig8(lab: &mut Lab, specs: &[TraceSpec]) {
    renewal_figure(lab, specs, RenewalPolicy::adaptive_lru, "Figure 8", "fig8");
}

/// Regenerates Figure 9 (TTL refresh + adaptive-LFU renewal).
pub fn fig9(lab: &mut Lab, specs: &[TraceSpec]) {
    renewal_figure(lab, specs, RenewalPolicy::adaptive_lfu, "Figure 9", "fig9");
}

// ---------------------------------------------------------------------
// Figures 10–11 — long TTL
// ---------------------------------------------------------------------

/// The long-TTL values evaluated by Figures 10–11 (days).
pub fn long_ttl_days() -> [u32; 4] {
    [1, 3, 5, 7]
}

/// Regenerates Figure 10 (TTL refresh + long TTL).
pub fn fig10(lab: &mut Lab, specs: &[TraceSpec]) {
    let schemes: Vec<(String, Scheme)> = std::iter::once(("DNS".to_string(), Scheme::vanilla()))
        .chain(long_ttl_days().iter().map(|&d| {
            (
                format!("{d} Day TTL"),
                Scheme::refresh_long_ttl(Ttl::from_days(d)),
            )
        }))
        .collect();
    columns_figure(lab, specs, &schemes, "Figure 10", "fig10");
}

/// Regenerates Figure 11 (refresh + A-LFU renewal + long TTL).
pub fn fig11(lab: &mut Lab, specs: &[TraceSpec]) {
    let policy = RenewalPolicy::adaptive_lfu(3);
    let schemes: Vec<(String, Scheme)> = std::iter::once(("DNS".to_string(), Scheme::vanilla()))
        .chain(long_ttl_days().iter().map(|&d| {
            (
                format!("{d} Day TTL"),
                Scheme::combined(policy, Ttl::from_days(d)),
            )
        }))
        .collect();
    columns_figure(lab, specs, &schemes, "Figure 11", "fig11");
}

// ---------------------------------------------------------------------
// Table 2 — message and memory overhead
// ---------------------------------------------------------------------

/// The schemes Table 2 compares against vanilla.
pub fn table2_schemes() -> Vec<(String, Scheme)> {
    vec![
        ("Refresh".to_string(), Scheme::refresh()),
        ("LRU_3".to_string(), Scheme::renewal(RenewalPolicy::lru(3))),
        ("LFU_3".to_string(), Scheme::renewal(RenewalPolicy::lfu(3))),
        (
            "A-LRU_3".to_string(),
            Scheme::renewal(RenewalPolicy::adaptive_lru(3)),
        ),
        (
            "A-LFU_3".to_string(),
            Scheme::renewal(RenewalPolicy::adaptive_lfu(3)),
        ),
        (
            "Long-TTL 7d".to_string(),
            Scheme::refresh_long_ttl(Ttl::from_days(7)),
        ),
        (
            "Combination".to_string(),
            Scheme::combined(RenewalPolicy::adaptive_lfu(3), Ttl::from_days(3)),
        ),
    ]
}

/// Regenerates Table 2: % change in generated DNS messages vs vanilla,
/// plus cached-zone and cached-record multipliers, over `spec`.
pub fn table2(lab: &mut Lab, spec: &TraceSpec) {
    let sample = overhead_sample();
    let mut all: Vec<Scheme> = vec![Scheme::vanilla()];
    all.extend(table2_schemes().into_iter().map(|(_, s)| s));
    lab.overhead_grid(std::slice::from_ref(spec), &all, sample);
    let vanilla = lab.overhead(spec, Scheme::vanilla(), sample);
    let mut table = Table::new(vec![
        "Scheme",
        "Msg Overhead %",
        "Renewals",
        "Cached Zones",
        "Cached Records",
    ]);
    table.numeric();
    table.row(vec![
        "DNS (baseline)".to_string(),
        "0.00".to_string(),
        "0".to_string(),
        ratio(1.0),
        ratio(1.0),
    ]);
    for (label, scheme) in table2_schemes() {
        let out = lab.overhead(spec, scheme, sample);
        table.row(vec![
            label,
            format!("{:+.2}", out.message_overhead_pct(&vanilla)),
            out.metrics.renewals_sent.to_string(),
            ratio(out.zone_ratio(&vanilla)),
            ratio(out.record_ratio(&vanilla)),
        ]);
    }
    emit(
        &format!("Table 2: message and memory overhead ({})", spec.name),
        "table2",
        &table,
    );
}

// ---------------------------------------------------------------------
// Figure 12 — memory overhead over time
// ---------------------------------------------------------------------

/// The schemes plotted in Figure 12.
pub fn fig12_schemes() -> Vec<(String, Scheme)> {
    vec![
        ("DNS".to_string(), Scheme::vanilla()),
        ("LRU_5".to_string(), Scheme::renewal(RenewalPolicy::lru(5))),
        ("LFU_5".to_string(), Scheme::renewal(RenewalPolicy::lfu(5))),
        (
            "A-LRU_5".to_string(),
            Scheme::renewal(RenewalPolicy::adaptive_lru(5)),
        ),
        (
            "A-LFU_5".to_string(),
            Scheme::renewal(RenewalPolicy::adaptive_lfu(5)),
        ),
        (
            "Long-TTL 7d".to_string(),
            Scheme::refresh_long_ttl(Ttl::from_days(7)),
        ),
        (
            "Combination".to_string(),
            Scheme::combined(RenewalPolicy::adaptive_lfu(3), Ttl::from_days(3)),
        ),
    ]
}

/// Regenerates Figure 12: cached zones and records over time for each
/// scheme, on the one-month trace.
pub fn fig12(lab: &mut Lab, spec: &TraceSpec) {
    let sample = overhead_sample();
    let schemes: Vec<Scheme> = fig12_schemes().into_iter().map(|(_, s)| s).collect();
    lab.overhead_grid(std::slice::from_ref(spec), &schemes, sample);
    let mut series = Table::new(vec!["Scheme", "Day", "Zones", "Records"]);
    let mut summary = Table::new(vec!["Scheme", "Mean Zones", "Mean Records", "Peak Records"]);
    summary.numeric();
    let mut chart = AsciiChart::new(72, 14);
    let glyphs = ['.', '1', '2', '3', '4', 'L', 'C'];
    let mut glyph_iter = glyphs.iter();
    for (label, scheme) in fig12_schemes() {
        let out_for_chart = lab.overhead(spec, scheme, sample);
        if let Some(&glyph) = glyph_iter.next() {
            chart.series(
                format!("{label} (records)"),
                glyph,
                out_for_chart
                    .occupancy
                    .iter()
                    .map(|s| (s.at.as_secs() as f64 / 86_400.0, s.total_records() as f64))
                    .collect(),
            );
        }
    }
    for (label, scheme) in fig12_schemes() {
        let out = lab.overhead(spec, scheme, sample);
        for s in &out.occupancy {
            series.row(vec![
                label.clone(),
                format!("{:.2}", s.at.as_secs() as f64 / 86_400.0),
                s.zones.to_string(),
                s.total_records().to_string(),
            ]);
        }
        let peak = out
            .occupancy
            .iter()
            .map(OccupancySampleExt::total)
            .max()
            .unwrap_or(0);
        summary.row(vec![
            label,
            format!("{:.0}", out.mean_zones()),
            format!("{:.0}", out.mean_records()),
            peak.to_string(),
        ]);
    }
    emit(
        &format!("Figure 12: cache occupancy summary ({})", spec.name),
        "fig12_summary",
        &summary,
    );
    emit(
        &format!("Figure 12: occupancy time series ({})", spec.name),
        "fig12_series",
        &series,
    );
    println!("{}", chart.render());
}

/// Helper trait so the max() above reads clearly.
trait OccupancySampleExt {
    fn total(&self) -> usize;
}

impl OccupancySampleExt for dns_resolver::OccupancySample {
    fn total(&self) -> usize {
        self.total_records()
    }
}

// ---------------------------------------------------------------------
// Adversarial survival — NXNS delegation bombs and water torture
// ---------------------------------------------------------------------

/// Attack rate of the adversarial sweeps, in queries per virtual second.
pub fn adversarial_qps() -> u32 {
    2
}

/// Attack-window length of the adversarial sweeps.
pub fn adversarial_window() -> SimDuration {
    SimDuration::from_mins(10)
}

/// The fully hardened defense policy the head-to-head compares against
/// each undefended scheme.
pub fn hardened_defense() -> DefensePolicy {
    DefensePolicy {
        max_ns_fetch: Some(2),
        neg_cache_max_entries: Some(512),
        ..DefensePolicy::off()
    }
}

/// Regenerates the adversarial survival head-to-head: the paper's
/// mitigation schemes (vanilla, refresh, refresh+renewal), each with and
/// without resolver flood defenses, under an NXNSAttack delegation-bomb
/// flood and a water-torture random-subdomain flood — plus a MaxFetch(k)
/// knob curve on vanilla. One row per (scheme, adversary): amplification
/// (extra upstream queries per attack query), legitimate failure cost in
/// percentage points versus an attack-free baseline fork, and the defense
/// counters.
pub fn adversarial(lab: &mut Lab, spec: &TraceSpec) {
    let qps = adversarial_qps();
    let window = adversarial_window();
    // One cold bomb per attack query: negative caching makes repeat hits
    // on a bomb cheap, so amplification is only sustained on fresh bombs.
    let bombs = (u64::from(qps) * window.as_secs()) as usize;
    let universe = lab
        .universe()
        .with_delegation_bombs(NxnsBombSpec::new(bombs, 24));

    let mut schemes = vec![Scheme::vanilla()];
    // MaxFetch(k) knob curve on vanilla.
    for k in [1u32, 2, 4] {
        schemes.push(Scheme::vanilla().with_defense(DefensePolicy {
            max_ns_fetch: Some(k),
            ..DefensePolicy::off()
        }));
    }
    // Paper mitigations, undefended and fully hardened.
    schemes.push(Scheme::vanilla().with_defense(hardened_defense()));
    for base in [
        Scheme::refresh(),
        Scheme::renewal(RenewalPolicy::adaptive_lfu(3)),
    ] {
        schemes.push(base);
        schemes.push(base.with_defense(hardened_defense()));
    }

    let index = spec.name.as_bytes().last().copied().unwrap_or(0) as u64;
    let outcome = ExperimentSpec::new(&universe)
        .stream_trace(
            spec.scaled(crate::scale().min(1.0)),
            crate::TRACE_SEED + index,
        )
        .schemes(schemes)
        .adversarial(AdversarySpec::nxns(qps), attack_start(), window)
        .adversarial(
            AdversarySpec::water_torture(8, qps, 9),
            attack_start(),
            window,
        )
        .run();
    lab.record_manifest(outcome.manifest.clone());

    let mut table = Table::new(vec![
        "Adversary",
        "Scheme",
        "Attack Q",
        "Amplification",
        "Base Upstream",
        "Attacked Upstream",
        "Legit Fail %",
        "Delta pp",
        "Clamped",
        "Suppressed",
        "Neg Evict",
    ]);
    table.numeric();
    for o in &outcome.adversarial {
        table.row(vec![
            o.adversary.clone(),
            o.scheme.clone(),
            o.attack_queries.to_string(),
            ratio(o.amplification()),
            o.base_upstream.to_string(),
            o.window.queries_out.to_string(),
            pct(o.legit_failed_pct),
            format!("{:+.2}", o.legit_failed_delta_pct()),
            o.window.fetches_clamped.to_string(),
            o.window.flood_suppressed.to_string(),
            o.window.neg_evictions_pressure.to_string(),
        ]);
    }
    emit(
        &format!(
            "Adversarial survival: defenses vs NXNS + water torture ({})",
            spec.name
        ),
        "adversarial",
        &table,
    );
}

// ---------------------------------------------------------------------
// Serve-stale head-to-head — RFC 8767 vs the paper's mitigations
// ---------------------------------------------------------------------

/// The serve-stale window of the stale head-to-head (RFC 8767 suggests
/// 1–3 days; we use one day).
pub fn stale_window() -> SimDuration {
    SimDuration::from_days(1)
}

/// Serve-stale only: expired answers stay servable for [`stale_window`].
pub fn serve_stale_policy() -> StalePolicy {
    StalePolicy {
        max_stale: Some(stale_window()),
        ..StalePolicy::off()
    }
}

/// Proactive refresh only: renew hot names at 80% of TTL elapsed.
pub fn proactive_policy() -> StalePolicy {
    StalePolicy {
        proactive_percent: Some(80),
        ..StalePolicy::off()
    }
}

/// Prefetch only: learn per-name inter-arrival after 3 samples.
pub fn prefetch_policy() -> StalePolicy {
    StalePolicy {
        prefetch_min_samples: Some(3),
        ..StalePolicy::off()
    }
}

/// Every stale knob on at once.
pub fn full_stale_policy() -> StalePolicy {
    StalePolicy {
        max_stale: Some(stale_window()),
        proactive_percent: Some(80),
        prefetch_min_samples: Some(3),
    }
}

/// Key numbers from the serve-stale head-to-head; the `stale` binary
/// exports them as `BENCH_stale.json` (the tracked trajectory ci.sh
/// gates on).
#[derive(Debug, Clone)]
pub struct StaleSummary {
    /// SR failure % of plain vanilla during the 6h blackout.
    pub vanilla_sr_failed_pct: f64,
    /// SR failure % of vanilla + serve-stale during the same blackout.
    pub stale_sr_failed_pct: f64,
    /// Stale serves counted in the vanilla attack window (must be 0).
    pub vanilla_stale_served: u64,
    /// Stale serves counted in the serve-stale attack window.
    pub stale_served: u64,
    /// Stale candidates too old to serve in the serve-stale window.
    pub stale_expired_unserved: u64,
    /// Proactive refreshes issued over the proactive overhead replay.
    pub refresh_ahead: u64,
    /// Prefetches issued over the prefetch overhead replay.
    pub prefetch_issued: u64,
    /// Prefetches whose next query hit fresh cache.
    pub prefetch_hits: u64,
    /// Prefetches whose next query still missed.
    pub prefetch_wasted: u64,
    /// Message overhead % of serve-stale vs vanilla (no attack).
    pub stale_msg_overhead_pct: f64,
    /// Legitimate failure % of vanilla under water torture.
    pub torture_legit_failed_pct_vanilla: f64,
    /// Legitimate failure % of vanilla+stale under water torture.
    pub torture_legit_failed_pct_stale: f64,
}

/// Regenerates the serve-stale head-to-head: RFC 8767 serve-stale,
/// proactive refresh and learned prefetch against the paper's
/// mitigations (refresh, renewal, long TTL) on three grids — failure
/// fraction during the 6h root+TLD blackout, no-attack message
/// overhead, and legitimate-failure cost under a water-torture flood.
pub fn stale(lab: &mut Lab, spec: &TraceSpec) -> StaleSummary {
    let duration = POLICY_FIGURE_DURATION;
    let schemes: Vec<(&str, Scheme)> = vec![
        ("DNS", Scheme::vanilla()),
        ("Refresh", Scheme::refresh()),
        ("A-LFU_3", Scheme::renewal(RenewalPolicy::adaptive_lfu(3))),
        ("Long-TTL 3d", Scheme::refresh_long_ttl(Ttl::from_days(3))),
        ("Stale", Scheme::vanilla().with_stale(serve_stale_policy())),
        (
            "Refresh+Stale",
            Scheme::refresh().with_stale(serve_stale_policy()),
        ),
        (
            "Proactive80",
            Scheme::vanilla().with_stale(proactive_policy()),
        ),
        ("Prefetch3", Scheme::vanilla().with_stale(prefetch_policy())),
        ("All-on", Scheme::vanilla().with_stale(full_stale_policy())),
    ];

    // Failure-fraction grid: every scheme through the 6h blackout in one
    // parallel sweep; the window counters carry the stale telemetry.
    let scheme_list: Vec<Scheme> = schemes.iter().map(|(_, s)| *s).collect();
    lab.attack_grid(std::slice::from_ref(spec), &scheme_list, &[duration]);
    let mut failure = Table::new(vec![
        "Scheme",
        "SR Fail %",
        "CS Fail %",
        "Stale Served",
        "Stale Unserved",
        "Refresh Ahead",
        "Prefetch Issued",
    ]);
    failure.numeric();
    let mut attack_by_label: BTreeMap<&str, AttackOutcome> = BTreeMap::new();
    for (label, scheme) in &schemes {
        let o = lab.attack_outcomes(spec, *scheme, &[duration]).remove(0);
        failure.row(vec![
            (*label).to_string(),
            pct(o.sr_failed_pct),
            pct(o.cs_failed_pct),
            o.window.stale_served.to_string(),
            o.window.stale_expired_unserved.to_string(),
            o.window.refresh_ahead.to_string(),
            o.window.prefetch_issued.to_string(),
        ]);
        attack_by_label.insert(label, o);
    }
    emit(
        &format!("Serve-stale: failure under 6h blackout ({})", spec.name),
        "stale_failure",
        &failure,
    );

    // Overhead grid: no-attack replays for the stale axes vs vanilla —
    // the proactive/prefetch counters accumulate over the full trace.
    let overhead_schemes = [
        ("DNS", Scheme::vanilla()),
        ("Stale", Scheme::vanilla().with_stale(serve_stale_policy())),
        (
            "Proactive80",
            Scheme::vanilla().with_stale(proactive_policy()),
        ),
        ("Prefetch3", Scheme::vanilla().with_stale(prefetch_policy())),
    ];
    let overhead_list: Vec<Scheme> = overhead_schemes.iter().map(|(_, s)| *s).collect();
    lab.overhead_grid(
        std::slice::from_ref(spec),
        &overhead_list,
        overhead_sample(),
    );
    let vanilla_out = lab.overhead(spec, Scheme::vanilla(), overhead_sample());
    let mut over = Table::new(vec![
        "Scheme",
        "Msg Overhead %",
        "Refresh Ahead",
        "Prefetch Issued",
        "Prefetch Hits",
        "Prefetch Wasted",
    ]);
    over.numeric();
    let mut overhead_by_label: BTreeMap<&str, OverheadOutcome> = BTreeMap::new();
    for (label, scheme) in &overhead_schemes {
        let o = lab.overhead(spec, *scheme, overhead_sample());
        over.row(vec![
            (*label).to_string(),
            format!("{:+.2}", o.message_overhead_pct(&vanilla_out)),
            o.metrics.refresh_ahead.to_string(),
            o.metrics.prefetch_issued.to_string(),
            o.metrics.prefetch_hits.to_string(),
            o.metrics.prefetch_wasted.to_string(),
        ]);
        overhead_by_label.insert(label, o);
    }
    emit(
        &format!("Serve-stale: no-attack overhead ({})", spec.name),
        "stale_overhead",
        &over,
    );

    // Adversarial grid: does serve-stale change the water-torture cost?
    // (Random-subdomain floods never hit the stale window, so the
    // legitimate-failure cost should stay flat — the row proves it.)
    let qps = adversarial_qps();
    let window = adversarial_window();
    let index = spec.name.as_bytes().last().copied().unwrap_or(0) as u64;
    let adv_schemes = vec![
        Scheme::vanilla(),
        Scheme::vanilla().with_stale(serve_stale_policy()),
        Scheme::vanilla()
            .with_stale(serve_stale_policy())
            .with_defense(hardened_defense()),
    ];
    let outcome = ExperimentSpec::new(lab.universe())
        .stream_trace(
            spec.scaled(crate::scale().min(1.0)),
            crate::TRACE_SEED + index,
        )
        .schemes(adv_schemes)
        .adversarial(
            AdversarySpec::water_torture(8, qps, 9),
            attack_start(),
            window,
        )
        .run();
    lab.record_manifest(outcome.manifest.clone());
    let mut adv = Table::new(vec![
        "Adversary",
        "Scheme",
        "Amplification",
        "Legit Fail %",
        "Delta pp",
        "Stale Served",
        "Suppressed",
    ]);
    adv.numeric();
    for o in &outcome.adversarial {
        adv.row(vec![
            o.adversary.clone(),
            o.scheme.clone(),
            ratio(o.amplification()),
            pct(o.legit_failed_pct),
            format!("{:+.2}", o.legit_failed_delta_pct()),
            o.window.stale_served.to_string(),
            o.window.flood_suppressed.to_string(),
        ]);
    }
    emit(
        &format!("Serve-stale: water-torture cost ({})", spec.name),
        "stale_adversarial",
        &adv,
    );

    let vanilla_attack = &attack_by_label["DNS"];
    let stale_attack = &attack_by_label["Stale"];
    let proactive_over = &overhead_by_label["Proactive80"];
    let prefetch_over = &overhead_by_label["Prefetch3"];
    StaleSummary {
        vanilla_sr_failed_pct: vanilla_attack.sr_failed_pct,
        stale_sr_failed_pct: stale_attack.sr_failed_pct,
        vanilla_stale_served: vanilla_attack.window.stale_served,
        stale_served: stale_attack.window.stale_served,
        stale_expired_unserved: stale_attack.window.stale_expired_unserved,
        refresh_ahead: proactive_over.metrics.refresh_ahead,
        prefetch_issued: prefetch_over.metrics.prefetch_issued,
        prefetch_hits: prefetch_over.metrics.prefetch_hits,
        prefetch_wasted: prefetch_over.metrics.prefetch_wasted,
        stale_msg_overhead_pct: overhead_by_label["Stale"].message_overhead_pct(&vanilla_out),
        torture_legit_failed_pct_vanilla: outcome.adversarial[0].legit_failed_pct,
        torture_legit_failed_pct_stale: outcome.adversarial[1].legit_failed_pct,
    }
}

/// Runs the complete reproduction over one lab (all tables and figures).
pub fn all(lab: &mut Lab) {
    let weekly = TraceSpec::weekly();
    table1(lab, &TraceSpec::all());
    fig3(lab, &weekly);
    fig4(lab, &weekly);
    fig5(lab, &weekly);
    fig6(lab, &weekly);
    fig7(lab, &weekly);
    fig8(lab, &weekly);
    fig9(lab, &weekly);
    fig10(lab, &weekly);
    fig11(lab, &weekly);
    table2(lab, &TraceSpec::TRC1);
    fig12(lab, &TraceSpec::TRC6);
    adversarial(lab, &TraceSpec::TRC1);
    stale(lab, &TraceSpec::TRC1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_trace::UniverseSpec;

    fn tiny_lab() -> Lab {
        Lab::with_universe(UniverseSpec::small().build(7))
    }

    fn tiny_spec() -> TraceSpec {
        TraceSpec::demo().scaled(0.1)
    }

    #[test]
    fn attack_outcomes_are_memoised() {
        let mut lab = tiny_lab();
        let spec = tiny_spec();
        let d = [SimDuration::from_hours(6)];
        let first = lab.attack_outcomes(&spec, Scheme::vanilla(), &d);
        let again = lab.attack_outcomes(&spec, Scheme::vanilla(), &d);
        assert_eq!(first[0].sr_failed_pct, again[0].sr_failed_pct);
        assert_eq!(lab_memo_len(&lab), 1);
    }

    fn lab_memo_len(lab: &Lab) -> usize {
        lab.attack_memo.len()
    }

    #[test]
    fn duration_figure_smoke() {
        let mut lab = tiny_lab();
        let specs = [tiny_spec()];
        std::env::set_var("DNS_REPRO_OUT", std::env::temp_dir().join("dnsrepro-test"));
        fig4(&mut lab, &specs);
        // All four durations cached for vanilla.
        assert_eq!(lab.attack_memo.len(), 4);
    }

    #[test]
    fn adversarial_smoke() {
        let mut lab = tiny_lab();
        std::env::set_var("DNS_REPRO_OUT", std::env::temp_dir().join("dnsrepro-test"));
        adversarial(&mut lab, &tiny_spec());
        // One sweep recorded: 9 schemes × 2 adversaries.
        assert_eq!(lab.manifests.len(), 1);
        assert_eq!(lab.manifests[0].units.len(), 18);
        assert!(lab.manifests[0]
            .units
            .iter()
            .all(|u| u.kind == "adversarial"));
    }
}
