//! Every metric the benchmark can print, defined once: name, unit,
//! direction, bound and where it applies. `BENCHMARK.json` is generated
//! from this table (`ftvod-benchmark manifest`), `compare` judges with
//! it, and the self-tests hold the output to it.

use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which invocation prints a metric, and whether the driver sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Untraced run, in `BENCHMARK.json`: defined and non-zero on every
    /// workload and steady across seeds, so the driver can gate on it.
    EndToEnd,
    /// Untraced run, not in `BENCHMARK.json`: has no samples on some
    /// workload or swings with the seed; printed, written to `--out` and
    /// judged by `compare` only.
    EndToEndExtra,
    /// Traced run, in `BENCHMARK.json`: defined on every workload.
    PerLayer,
    /// Traced run, not in `BENCHMARK.json`: has no samples on some
    /// workload.
    PerLayerExtra,
}

/// One metric definition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Def {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit. `sim_s` is simulated seconds, `s`/`ms`/`us`/`ns` host time.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where it is printed.
    pub tier: Tier,
    /// Share of the base value by which it may worsen.
    pub bound: f64,
    /// Absolute slack `compare` allows on top of the bound, in the
    /// metric's unit: for values so small that a share of them is noise.
    pub floor: f64,
    /// Simulated-time or counted: repeats exactly for one seed, so
    /// `compare` calls it "same" only when equal.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, tier: Tier, bound: f64, floor: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        tier,
        bound,
        floor,
        exact: false,
    }
}

const fn sim(
    name: &'static str,
    unit: &'static str,
    better: Better,
    tier: Tier,
    bound: f64,
    floor: f64,
) -> Def {
    Def {
        name,
        unit,
        better,
        tier,
        bound,
        floor,
        exact: true,
    }
}

/// Per-layer count: exact, fewer is better unless stated.
const fn count(name: &'static str, tier: Tier) -> Def {
    sim(name, "count", Better::Lower, tier, 0.0, 0.0)
}

/// Per-layer host time: lower is better. Kernels and span totals are
/// short measurements, so `compare` calls them the same within 25 %.
const fn cost(name: &'static str, unit: &'static str, tier: Tier) -> Def {
    host(name, unit, tier, 0.25, 0.0)
}

use Better::{Higher, Lower};
use Tier::{EndToEnd, EndToEndExtra, PerLayer, PerLayerExtra};

/// The table. Order is print order.
pub const METRICS: &[Def] = &[
    // ---- end to end, gated by the driver --------------------------------
    host("setup_s", "s", EndToEnd, 0.25, 0.05),
    host("wall_s", "s", EndToEnd, 0.20, 0.0),
    sim("ttff_p50_s", "sim_s", Lower, EndToEnd, 0.10, 0.001),
    sim("startup_ok_share", "ratio", Higher, EndToEnd, 0.05, 0.0),
    sim("displayed_share", "ratio", Higher, EndToEnd, 0.04, 0.0),
    // ---- end to end, judged by `compare` only ---------------------------
    sim("ttff_p95_s", "sim_s", Lower, EndToEndExtra, 0.15, 0.001),
    sim("takeover_p50_s", "sim_s", Lower, EndToEndExtra, 0.10, 0.0),
    sim("takeover_p95_s", "sim_s", Lower, EndToEndExtra, 0.15, 0.0),
    sim("frozen_share", "ratio", Lower, EndToEndExtra, 0.10, 0.0005),
    sim("skipped_share", "ratio", Lower, EndToEndExtra, 0.10, 0.0005),
    sim(
        "unserved_s_per_session",
        "sim_s",
        Lower,
        EndToEndExtra,
        0.10,
        0.01,
    ),
    host("peak_rss_mb", "MB", EndToEndExtra, 0.10, 0.0),
    host("wall_raw_s", "s", EndToEndExtra, 0.25, 0.0),
    host("setup_raw_s", "s", EndToEndExtra, 0.25, 0.05),
    host("slowdown", "ratio", EndToEndExtra, 0.25, 0.0),
    sim(
        "never_served_sessions",
        "count",
        Lower,
        EndToEndExtra,
        0.0,
        0.0,
    ),
    sim("oracle_fail_units", "count", Lower, EndToEndExtra, 0.0, 0.0),
    // ---- simnet ----------------------------------------------------------
    count("simnet.events", PerLayer),
    count("simnet.timer_events", PerLayer),
    count("simnet.deliver_events", PerLayer),
    count("simnet.msgs_routed", PerLayer),
    count("simnet.timers_set", PerLayer),
    count("simnet.timers_cancelled", PerLayer),
    count("simnet.peak_queue_depth", PerLayer),
    sim("simnet.timer_share", "ratio", Lower, PerLayer, 0.0, 0.0),
    sim("simnet.dropped_share", "ratio", Lower, PerLayer, 0.0, 0.0),
    cost("simnet.ns_per_event", "ns", PerLayer),
    cost("simnet.slice_ms_p50", "ms", PerLayer),
    cost("simnet.slice_ms_p99", "ms", PerLayer),
    cost("simnet.slice_ms_max", "ms", PerLayer),
    cost("simnet.kernel_ns_per_timer", "ns", PerLayer),
    cost("simnet.kernel_ns_per_msg_lan", "ns", PerLayer),
    cost("simnet.kernel_ns_per_msg_topo", "ns", PerLayer),
    cost("simnet.kernel_share", "ratio", PerLayer),
    cost("simnet.scale_exponent", "log2", PerLayerExtra),
    // ---- gcs -------------------------------------------------------------
    count("gcs.hb_msgs", PerLayer),
    count("gcs.ctl_msgs", PerLayer),
    sim("gcs.hb_share", "ratio", Lower, PerLayer, 0.0, 0.0),
    count("gcs.view_changes", PerLayer),
    cost("gcs.view_change_busy_ms", "ms", PerLayer),
    count("gcs.views_installed", PerLayerExtra),
    count("gcs.suspicions", PerLayerExtra),
    sim(
        "gcs.takeover_view_change_p50_s",
        "sim_s",
        Lower,
        PerLayerExtra,
        0.10,
        0.0,
    ),
    cost("gcs.kernel_idle_ns_per_node_s", "ns", PerLayer),
    cost("gcs.kernel_view_change_us", "us", PerLayer),
    cost("gcs.kernel_proto_step_ns", "ns", PerLayer),
    // ---- server ----------------------------------------------------------
    sim("server.frames_sent", "count", Higher, PerLayer, 0.0, 0.0),
    count("server.sync_count", PerLayer),
    cost("server.sync_busy_ms", "ms", PerLayer),
    count("server.sync_msgs", PerLayer),
    count("server.takeover_count", PerLayer),
    cost("server.takeover_busy_ms", "ms", PerLayer),
    sim(
        "server.takeover_resume_p50_s",
        "sim_s",
        Lower,
        PerLayerExtra,
        0.10,
        0.0,
    ),
    count("server.migrations", PerLayerExtra),
    count("server.bringups", PerLayer),
    count("server.retires", PerLayer),
    sim(
        "server.bringup_latency_p50_s",
        "sim_s",
        Lower,
        PerLayerExtra,
        0.10,
        0.0,
    ),
    sim("server.prefix_serves", "count", Higher, PerLayer, 0.0, 0.0),
    sim(
        "server.degraded_serves",
        "count",
        Higher,
        PerLayerExtra,
        0.0,
        0.0,
    ),
    count("server.admission_rejections", PerLayer),
    cost("server.kernel_assign_ns_per_client", "ns", PerLayer),
    cost("server.kernel_assign_geo_ns_per_client", "ns", PerLayer),
    // ---- client ----------------------------------------------------------
    count("client.playback_count", PerLayer),
    cost("client.playback_busy_ms", "ms", PerLayer),
    sim(
        "client.frames_received",
        "count",
        Higher,
        PerLayer,
        0.0,
        0.0,
    ),
    count("client.late_frames", PerLayer),
    count("client.overflow_frames", PerLayer),
    count("client.emergencies", PerLayer),
    count("client.flow_msgs", PerLayer),
    count("client.retry_backoffs", PerLayerExtra),
    sim(
        "client.refill_p50_s",
        "sim_s",
        Lower,
        PerLayerExtra,
        0.10,
        0.0,
    ),
    cost("client.kernel_buffer_ns_per_frame", "ns", PerLayer),
    cost("client.kernel_flow_ns_per_frame", "ns", PerLayer),
    // ---- media, workload, chaos, scenario --------------------------------
    cost("media.generate_us_per_movie", "us", PerLayer),
    cost("media.kernel_decoder_tick_ns", "ns", PerLayer),
    cost("workload.plan_ns_per_session", "ns", PerLayer),
    cost("chaos.plan_us", "us", PerLayer),
    cost("scenario.build_us_per_node", "us", PerLayer),
    // ---- trace, oracle ---------------------------------------------------
    count("trace.events_recorded", PerLayer),
    count("trace.events_dropped", PerLayer),
    cost("trace.record_overhead_share", "ratio", PerLayerExtra),
    cost("trace.report_ns_per_event", "ns", PerLayerExtra),
    cost("trace.jsonl_ns_per_event", "ns", PerLayerExtra),
    sim(
        "trace.jsonl_bytes_per_event",
        "B",
        Lower,
        PerLayerExtra,
        0.0,
        0.0,
    ),
    cost("oracle.busy_ms", "ms", PerLayerExtra),
    cost("oracle.ns_per_event", "ns", PerLayerExtra),
    cost("oracle.share_of_wall", "ratio", PerLayerExtra),
    count("oracle.fail_runs", PerLayerExtra),
    count("oracle.inconclusive_runs", PerLayerExtra),
    // ---- harness and reference -------------------------------------------
    Def {
        better: Higher,
        ..cost("attrib.named_share", "ratio", PerLayer)
    },
    cost("bench.trace_overhead_share", "ratio", PerLayer),
    cost("bench.pass_median_s", "s", PerLayer),
    cost("bench.pass_range_s", "s", PerLayer),
    cost("bench.slowdown", "ratio", PerLayer),
    sim(
        "paper.takeover_mean_lan_s",
        "sim_s",
        Lower,
        PerLayerExtra,
        0.10,
        0.0,
    ),
    sim(
        "paper.takeover_err",
        "ratio",
        Lower,
        PerLayerExtra,
        0.10,
        0.0,
    ),
    sim(
        "paper.dup_burst_mean_frames",
        "frames",
        Lower,
        PerLayerExtra,
        0.10,
        0.0,
    ),
    sim(
        "paper.lan_zero_freeze_runs",
        "count",
        Higher,
        PerLayerExtra,
        0.0,
        0.0,
    ),
];

/// Looks a metric up by name.
pub fn def(name: &str) -> Option<&'static Def> {
    METRICS.iter().find(|d| d.name == name)
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// Which metric.
    pub def: &'static Def,
    /// The value, in the metric's unit.
    pub value: f64,
    /// How many samples it summarises, where that means something.
    pub samples: Option<u64>,
}

/// A list of measured values that refuses names outside the table and
/// skips metrics that have no samples.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<Value>);

impl Values {
    /// Records `value` for `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not in [`METRICS`]: a bug in this program.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_n(name, Some(value), None);
    }

    /// Records `value` with its sample count; `None` (no samples) records
    /// nothing, so the metric is omitted rather than printed as zero.
    pub fn put_n(&mut self, name: &str, value: Option<f64>, samples: Option<u64>) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name} is not in the table"));
        if let Some(value) = value {
            self.0.push(Value {
                def,
                value,
                samples,
            });
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|v| v.def.name == name).map(|v| v.value)
    }
}

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
/// With passes of 4–6.5 s (2 cores, one used) this buys three passes.
pub const RUN_SECONDS: u32 = 18;

/// Renders `BENCHMARK.json` from the table.
pub fn manifest() -> String {
    let run_seconds = RUN_SECONDS;
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = METRICS
        .iter()
        .filter(|d| d.tier == EndToEnd)
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.word(),
                d.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = METRICS
        .iter()
        .filter(|d| d.tier == PerLayer)
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.word()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
