//! Per-layer metrics: the traced run's counters, busy times and kernel
//! costs turned into named values, layer by layer (layer = module).

use ftvod_core::metrics::Histogram;

use crate::harness::HostTimes;
use crate::kernels::{CallKernels, GcsKernels, SimnetKernels};
use crate::metrics::Values;
use crate::runs::{LayerCounts, Reported, RunOutcome};
use crate::service::Service;
use crate::stats::quantile;
use crate::traced::Traced;

/// The paper's LAN takeover time (§4.2), which `paper.takeover_err` is
/// measured against. The model is otherwise validated in shape only.
pub const PAPER_TAKEOVER_S: f64 = 0.5;

/// Everything the per-layer metrics are computed from.
pub struct Inputs<'a> {
    /// Host times of the untraced reference passes of this invocation.
    pub untraced: HostTimes,
    /// Host times of the traced passes.
    pub traced_times: HostTimes,
    /// The least disturbed traced pass (counters are equal in all).
    pub traced: &'a Traced,
    /// The machine's median slowdown during that pass: the program's span
    /// times and the slice times, which are only known as totals of the
    /// pass, are divided by it.
    pub traced_slowdown: f64,
    /// Host time inside `run_until` with event recording off, seconds;
    /// `None` where the workload does not record.
    pub norecord_run_s: Option<f64>,
    /// `run_until` host time of the half-size fleet, seconds;
    /// `steady_fleet` only.
    pub half_run_s: Option<f64>,
    /// Outcomes of the first untraced pass.
    pub outcomes: &'a [RunOutcome],
    /// Service fold of the same pass.
    pub service: &'a Service,
    /// Kernel results.
    pub simnet: SimnetKernels,
    /// Kernel results.
    pub gcs: GcsKernels,
    /// Kernel results.
    pub calls: CallKernels,
}

/// Adds every per-layer metric that has samples to `out`.
pub fn metrics(inputs: &Inputs<'_>, out: &mut Values) {
    let t = inputs.traced;
    let calm = inputs.traced_slowdown.max(f64::MIN_POSITIVE);
    let ms = |name: &str| t.named_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / calm;
    let slice_ms: Vec<f64> = t.slice_ms.iter().map(|ms| ms / calm).collect();
    let ratio = |part: f64, whole: f64| (whole > 0.0).then(|| part / whole);
    let run_s = inputs.untraced.run_s;

    let mut counts = LayerCounts::default();
    for o in inputs.outcomes {
        counts.add(&o.counts);
    }
    let reported: Vec<_> = inputs
        .outcomes
        .iter()
        .filter_map(|o| o.reported.as_ref())
        .collect();
    let sum = |f: fn(&Reported) -> u64| -> Option<f64> {
        (!reported.is_empty()).then(|| reported.iter().map(|r| f(r)).sum::<u64>() as f64)
    };
    let samples = |f: fn(&Reported) -> &Vec<f64>| -> Vec<f64> {
        reported.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let merged = |f: fn(&Reported) -> &Histogram| -> Histogram {
        let mut all = Histogram::new();
        for r in &reported {
            all.merge(f(r));
        }
        all
    };

    // ---- simnet ----------------------------------------------------------
    let events = t.counter("sched.events_total");
    let timer_events = t.counter("sched.timer_fired")
        + t.counter("sched.timer_squashed")
        + t.counter("sched.timer_dead");
    let deliver_events = t.counter("sched.deliver_events");
    out.put("simnet.events", events as f64);
    out.put("simnet.timer_events", timer_events as f64);
    out.put("simnet.deliver_events", deliver_events as f64);
    out.put("simnet.msgs_routed", t.counter("sched.msgs_routed") as f64);
    out.put("simnet.timers_set", t.counter("sched.timers_set") as f64);
    out.put(
        "simnet.timers_cancelled",
        t.counter("sched.timers_cancelled") as f64,
    );
    out.put(
        "simnet.peak_queue_depth",
        t.counter("sched.peak_queue_depth") as f64,
    );
    out.put_n(
        "simnet.timer_share",
        ratio(timer_events as f64, events as f64),
        None,
    );
    let net = |suffix: &str| -> u64 {
        t.counters
            .iter()
            .filter(|(k, _)| k.starts_with("net.") && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let sent = net(".sent_msgs");
    out.put_n(
        "simnet.dropped_share",
        ratio(net(".dropped") as f64, sent as f64),
        None,
    );
    out.put_n(
        "simnet.ns_per_event",
        ratio(run_s * 1e9, events as f64),
        Some(events),
    );
    let slices = Some(slice_ms.len() as u64);
    out.put_n("simnet.slice_ms_p50", quantile(&slice_ms, 0.5), slices);
    out.put_n("simnet.slice_ms_p99", quantile(&slice_ms, 0.99), slices);
    out.put_n("simnet.slice_ms_max", quantile(&slice_ms, 1.0), slices);
    out.put("simnet.kernel_ns_per_timer", inputs.simnet.ns_per_timer);
    out.put("simnet.kernel_ns_per_msg_lan", inputs.simnet.ns_per_msg_lan);
    out.put(
        "simnet.kernel_ns_per_msg_topo",
        inputs.simnet.ns_per_msg_topo,
    );
    let kernel_ns = timer_events as f64 * inputs.simnet.ns_per_timer
        + deliver_events as f64 * inputs.simnet.ns_per_msg_lan;
    out.put_n("simnet.kernel_share", ratio(kernel_ns, run_s * 1e9), None);
    out.put_n(
        "simnet.scale_exponent",
        inputs
            .half_run_s
            .and_then(|half| ratio(run_s, half))
            .map(f64::log2),
        None,
    );

    // ---- gcs -------------------------------------------------------------
    let hb = t.counter("net.gcs-hb.sent_msgs");
    out.put("gcs.hb_msgs", hb as f64);
    out.put("gcs.ctl_msgs", t.counter("net.gcs-ctl.sent_msgs") as f64);
    out.put_n("gcs.hb_share", ratio(hb as f64, sent as f64), None);
    out.put(
        "gcs.view_changes",
        t.counter("span.gcs.view_change.count") as f64,
    );
    out.put("gcs.view_change_busy_ms", ms("gcs.view_change"));
    out.put_n("gcs.views_installed", sum(|r| r.views_installed), None);
    out.put_n("gcs.suspicions", sum(|r| r.suspicions), None);
    let view_change = samples(|r| &r.takeover_view_change);
    out.put_n(
        "gcs.takeover_view_change_p50_s",
        quantile(&view_change, 0.5),
        Some(view_change.len() as u64),
    );
    out.put(
        "gcs.kernel_idle_ns_per_node_s",
        inputs.gcs.idle_ns_per_node_s,
    );
    out.put("gcs.kernel_view_change_us", inputs.gcs.view_change_us);
    out.put("gcs.kernel_proto_step_ns", inputs.gcs.proto_step_ns);

    // ---- server ----------------------------------------------------------
    out.put("server.frames_sent", counts.frames_sent as f64);
    out.put(
        "server.sync_count",
        t.counter("span.server.sync.count") as f64,
    );
    out.put("server.sync_busy_ms", ms("server.sync"));
    out.put(
        "server.sync_msgs",
        t.counter("net.vod-sync.sent_msgs") as f64,
    );
    out.put(
        "server.takeover_count",
        t.counter("span.server.takeover.count") as f64,
    );
    out.put("server.takeover_busy_ms", ms("server.takeover"));
    let resume = samples(|r| &r.takeover_resume);
    out.put_n(
        "server.takeover_resume_p50_s",
        quantile(&resume, 0.5),
        Some(resume.len() as u64),
    );
    out.put_n("server.migrations", sum(|r| r.migrations), None);
    out.put("server.bringups", counts.bringups as f64);
    out.put("server.retires", counts.retires as f64);
    let bringup = merged(|r| &r.bringup_latency);
    out.put_n(
        "server.bringup_latency_p50_s",
        bringup.quantile(0.5),
        Some(bringup.count()),
    );
    out.put("server.prefix_serves", counts.prefix_serves as f64);
    out.put_n("server.degraded_serves", sum(|r| r.degraded_serves), None);
    out.put(
        "server.admission_rejections",
        counts.admission_rejections as f64,
    );
    out.put(
        "server.kernel_assign_ns_per_client",
        inputs.calls.assign_ns_per_client,
    );
    out.put(
        "server.kernel_assign_geo_ns_per_client",
        inputs.calls.assign_geo_ns_per_client,
    );

    // ---- client ----------------------------------------------------------
    out.put(
        "client.playback_count",
        t.counter("span.client.playback.count") as f64,
    );
    out.put("client.playback_busy_ms", ms("client.playback"));
    out.put("client.frames_received", counts.frames_received as f64);
    out.put("client.late_frames", counts.late_frames as f64);
    out.put("client.overflow_frames", counts.overflow_frames as f64);
    out.put("client.emergencies", counts.emergencies as f64);
    out.put(
        "client.flow_msgs",
        t.counter("net.vod-flow.sent_msgs") as f64,
    );
    out.put_n("client.retry_backoffs", sum(|r| r.retry_backoffs), None);
    let refill = merged(|r| &r.refill);
    out.put_n(
        "client.refill_p50_s",
        refill.quantile(0.5),
        Some(refill.count()),
    );
    out.put(
        "client.kernel_buffer_ns_per_frame",
        inputs.calls.buffer_ns_per_frame,
    );
    out.put(
        "client.kernel_flow_ns_per_frame",
        inputs.calls.flow_ns_per_frame,
    );

    // ---- media, workload, chaos, scenario --------------------------------
    out.put(
        "media.generate_us_per_movie",
        inputs.calls.generate_us_per_movie,
    );
    out.put("media.kernel_decoder_tick_ns", inputs.calls.decoder_tick_ns);
    out.put(
        "workload.plan_ns_per_session",
        inputs.calls.plan_ns_per_session,
    );
    out.put("chaos.plan_us", inputs.calls.chaos_plan_us);
    out.put_n(
        "scenario.build_us_per_node",
        ratio(t.build_ns as f64 / 1e3 / calm, t.nodes as f64),
        Some(t.nodes),
    );

    // ---- trace, oracle ---------------------------------------------------
    let recorded = sum(|r| r.events_recorded).unwrap_or(0.0);
    out.put("trace.events_recorded", recorded);
    out.put(
        "trace.events_dropped",
        sum(|r| r.events_dropped).unwrap_or(0.0),
    );
    out.put_n(
        "trace.record_overhead_share",
        inputs
            .norecord_run_s
            .and_then(|off| ratio(run_s - off, off)),
        None,
    );
    if !reported.is_empty() {
        let (jsonl_ns, jsonl_bytes, jsonl_events) = t.jsonl;
        out.put_n(
            "trace.report_ns_per_event",
            ratio(inputs.untraced.report_s * 1e9, recorded),
            Some(recorded as u64),
        );
        out.put_n(
            "trace.jsonl_ns_per_event",
            ratio(jsonl_ns as f64 / calm, jsonl_events as f64),
            Some(jsonl_events),
        );
        out.put_n(
            "trace.jsonl_bytes_per_event",
            ratio(jsonl_bytes as f64, jsonl_events as f64),
            Some(jsonl_events),
        );
        out.put("oracle.busy_ms", inputs.untraced.oracle_s * 1e3);
        out.put_n(
            "oracle.ns_per_event",
            ratio(inputs.untraced.oracle_s * 1e9, recorded),
            Some(recorded as u64),
        );
        out.put_n(
            "oracle.share_of_wall",
            ratio(inputs.untraced.oracle_s, inputs.untraced.wall_s),
            None,
        );
        out.put("oracle.fail_runs", inputs.service.oracle_fails.len() as f64);
        out.put(
            "oracle.inconclusive_runs",
            reported.iter().filter(|r| r.oracle_inconclusive).count() as f64,
        );
    }

    // ---- harness and reference -------------------------------------------
    let named: u64 = [
        "gcs.view_change",
        "server.sync",
        "server.takeover",
        "client.playback",
    ]
    .iter()
    .map(|name| t.named_ns.get(*name).copied().unwrap_or(0))
    .sum();
    let traced_run_ns: u64 = t.pass.run_ns.iter().sum();
    out.put_n(
        "attrib.named_share",
        ratio(named as f64, traced_run_ns as f64),
        None,
    );
    out.put_n(
        "bench.trace_overhead_share",
        ratio(inputs.traced_times.run_s - run_s, run_s),
        None,
    );
    out.put("bench.pass_median_s", inputs.untraced.pass_median_s);
    out.put("bench.pass_range_s", inputs.untraced.pass_range_s);
    out.put("bench.slowdown", inputs.untraced.slowdown);
    if let Some(mean) = inputs.service.lan_takeover_mean() {
        let runs = inputs.service.lan_gaps.len() as u64;
        out.put_n("paper.takeover_mean_lan_s", Some(mean), Some(runs));
        out.put_n(
            "paper.takeover_err",
            Some((mean - PAPER_TAKEOVER_S).abs() / PAPER_TAKEOVER_S),
            Some(runs),
        );
        out.put_n(
            "paper.dup_burst_mean_frames",
            Some(inputs.service.lan_dups.iter().sum::<u64>() as f64 / runs as f64),
            Some(runs),
        );
        out.put_n(
            "paper.lan_zero_freeze_runs",
            Some(inputs.service.lan_smooth as f64),
            Some(runs),
        );
    }
}
