//! Chrome trace-event JSON export for retained flight-recorder traces,
//! plus the validator CI uses to check emitted files.
//!
//! The export targets the Chrome `traceEvents` JSON format understood
//! by Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`: each
//! retained [`QueryTrace`] becomes duration events (`ph:"X"`) on one
//! track per slot (the six lifecycle phases), one per worker (the
//! search span), one per host poller (pickup and delivery), and one per
//! CTA (synthesized per-step spans), with instant events (`ph:"i"`)
//! marking slot transitions, beam switches, and rerank passes.
//! Timestamps are microseconds (the format's unit), converted from the
//! recorder's nanosecond clock.

use super::flight::{EventKind, QueryTrace};
use super::json::{obj, Value};

/// The six lifecycle phases, in order — the duration-event names the
/// validator requires (identical to
/// [`super::snapshot::PhaseStats::named`]).
pub const LIFECYCLE_PHASES: [&str; 6] = [
    "submit_to_slot",
    "slot_to_work",
    "work_to_finish",
    "finish_to_merged",
    "merged_to_delivered",
    "end_to_end",
];

/// Track id of worker `w` (slots use their own index directly).
fn worker_tid(w: u32) -> u64 {
    1_000 + u64::from(w)
}

/// Track id of host poller `h`.
fn host_tid(h: u32) -> u64 {
    2_000 + u64::from(h)
}

/// Track id of CTA `c` of slot `s` (per-slot so concurrent queries on
/// different slots don't interleave on one CTA track).
fn cta_tid(slot: u32, c: u32) -> u64 {
    10_000 + u64::from(slot) * 100 + u64::from(c)
}

fn us(ns: u64) -> Value {
    Value::Num(ns as f64 / 1_000.0)
}

fn span(name: &str, tid: u64, start_ns: u64, end_ns: u64, t: &QueryTrace) -> Value {
    obj(vec![
        ("ph", Value::Str("X".into())),
        ("name", Value::Str(name.into())),
        ("pid", Value::Uint(1)),
        ("tid", Value::Uint(tid)),
        ("ts", us(start_ns)),
        ("dur", us(end_ns.saturating_sub(start_ns))),
        // Both ids: `tag` is the server's slot-protocol tag,
        // `request_id` the wire id the client logged — the one to
        // search for in Perfetto when chasing a client-side slow
        // request.
        ("args", obj(vec![("tag", Value::Uint(t.tag)), ("request_id", Value::Uint(t.request_id))])),
    ])
}

fn instant(name: &str, tid: u64, ts_ns: u64, args: Vec<(&str, Value)>) -> Value {
    obj(vec![
        ("ph", Value::Str("i".into())),
        ("name", Value::Str(name.into())),
        ("pid", Value::Uint(1)),
        ("tid", Value::Uint(tid)),
        ("ts", us(ts_ns)),
        ("s", Value::Str("t".into())),
        ("args", obj(args)),
    ])
}

fn thread_name(tid: u64, name: String) -> Value {
    obj(vec![
        ("ph", Value::Str("M".into())),
        ("name", Value::Str("thread_name".into())),
        ("pid", Value::Uint(1)),
        ("tid", Value::Uint(tid)),
        ("ts", Value::Uint(0)),
        ("args", obj(vec![("name", Value::Str(name))])),
    ])
}

/// Renders retained traces as a Chrome trace-event JSON document.
pub fn chrome_trace_json(traces: &[QueryTrace]) -> String {
    let mut events: Vec<Value> = Vec::new();
    let mut named_tids: Vec<u64> = Vec::new();
    let mut name_tid = |events: &mut Vec<Value>, tid: u64, name: String| {
        if !named_tids.contains(&tid) {
            named_tids.push(tid);
            events.push(thread_name(tid, name));
        }
    };
    events.push(obj(vec![
        ("ph", Value::Str("M".into())),
        ("name", Value::Str("process_name".into())),
        ("pid", Value::Uint(1)),
        ("tid", Value::Uint(0)),
        ("ts", Value::Uint(0)),
        ("args", obj(vec![("name", Value::Str("algas".into()))])),
    ]));
    for t in traces {
        let lc = &t.lifecycle;
        let slot_tid = u64::from(t.slot);
        name_tid(&mut events, slot_tid, format!("slot {}", t.slot));
        name_tid(&mut events, worker_tid(t.worker), format!("worker {}", t.worker));
        name_tid(&mut events, host_tid(t.host), format!("host {}", t.host));
        // The six lifecycle phases as nested duration events on the
        // slot track: end_to_end outermost, the five disjoint spans
        // inside it.
        events.push(span("end_to_end", slot_tid, lc.submitted_ns, lc.delivered_ns, t));
        events.push(span("submit_to_slot", slot_tid, lc.submitted_ns, lc.slot_ns, t));
        events.push(span("slot_to_work", slot_tid, lc.slot_ns, lc.work_start_ns, t));
        events.push(span("work_to_finish", slot_tid, lc.work_start_ns, lc.finish_ns, t));
        events.push(span("finish_to_merged", slot_tid, lc.finish_ns, lc.merged_ns, t));
        events.push(span("merged_to_delivered", slot_tid, lc.merged_ns, lc.delivered_ns, t));
        events.push(span("search", worker_tid(t.worker), lc.work_start_ns, lc.finish_ns, t));
        events.push(span("merge", host_tid(t.host), lc.merge_begin_ns, lc.merged_ns, t));
        events.push(span("deliver", host_tid(t.host), lc.merged_ns, lc.delivered_ns, t));
        for e in &t.events {
            match e.kind {
                EventKind::CtaStep => {
                    let tid = cta_tid(t.slot, e.lane);
                    name_tid(&mut events, tid, format!("slot {} cta {}", t.slot, e.lane));
                    events.push(obj(vec![
                        ("ph", Value::Str("X".into())),
                        ("name", Value::Str("step".into())),
                        ("pid", Value::Uint(1)),
                        ("tid", Value::Uint(tid)),
                        ("ts", us(e.ts_ns)),
                        ("dur", us(u64::from(e.b))),
                        (
                            "args",
                            obj(vec![
                                ("tag", Value::Uint(t.tag)),
                                ("dist_evals", Value::Uint(u64::from(e.a))),
                            ]),
                        ),
                    ]));
                }
                EventKind::BeamSwitch => {
                    let tid = cta_tid(t.slot, e.lane);
                    name_tid(&mut events, tid, format!("slot {} cta {}", t.slot, e.lane));
                    events.push(instant(
                        "beam_switch",
                        tid,
                        e.ts_ns,
                        vec![("step", Value::Uint(u64::from(e.a)))],
                    ));
                }
                EventKind::RerankPass => events.push(instant(
                    "rerank_pass",
                    worker_tid(t.worker),
                    e.ts_ns,
                    vec![
                        ("candidates", Value::Uint(u64::from(e.a))),
                        ("promotions", Value::Uint(u64::from(e.b))),
                    ],
                )),
                // Lifecycle edges become transition markers on the
                // slot track (the spans above carry the durations).
                _ => events.push(instant(e.kind.name(), slot_tid, e.ts_ns, Vec::new())),
            }
        }
    }
    obj(vec![("traceEvents", Value::Arr(events)), ("displayTimeUnit", Value::Str("ns".into()))])
        .render()
}

/// What [`validate_chrome_trace`] found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total events in the document.
    pub events: usize,
    /// Distinct names of duration (`ph:"X"`) events.
    pub duration_names: Vec<String>,
}

impl ChromeSummary {
    /// The lifecycle phases *not* present as duration events (empty
    /// when a full query timeline made it through).
    pub fn missing_phases(&self) -> Vec<&'static str> {
        LIFECYCLE_PHASES
            .into_iter()
            .filter(|p| !self.duration_names.iter().any(|n| n == p))
            .collect()
    }
}

/// Validates a Chrome trace-event JSON document: every event must carry
/// `ph` (string), `ts` (number), `pid`, `tid`, and `name`, and duration
/// events must carry a non-negative `dur`. Accepts both the object form
/// (`{"traceEvents": [...]}`) and the bare-array form.
///
/// # Errors
/// The first malformed event, identified by its index.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeSummary, String> {
    let doc = Value::parse(text)?;
    let events = match &doc {
        Value::Arr(_) => doc.as_arr().expect("checked"),
        Value::Obj(_) => doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or("document has no `traceEvents` array")?,
        _ => return Err("document is neither an object nor an array".into()),
    };
    let mut summary = ChromeSummary { events: events.len(), duration_names: Vec::new() };
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string `ph`"))?;
        e.get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric `ts`"))?;
        e.get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing numeric `pid`"))?;
        e.get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing numeric `tid`"))?;
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string `name`"))?;
        if ph == "X" {
            let dur = e
                .get("dur")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i}: duration event missing numeric `dur`"))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative `dur`"));
            }
            if !summary.duration_names.iter().any(|n| n == name) {
                summary.duration_names.push(name.to_string());
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::super::flight::{LifecycleNs, TraceEvent};
    use super::*;

    fn sample_trace() -> QueryTrace {
        let lc = LifecycleNs {
            submitted_ns: 1_000,
            slot_ns: 1_200,
            work_start_ns: 1_500,
            finish_ns: 9_000,
            merge_begin_ns: 9_100,
            merged_ns: 9_400,
            delivered_ns: 9_600,
        };
        QueryTrace {
            tag: 11,
            request_id: 8_811,
            conn: 3,
            slot: 2,
            worker: 1,
            host: 0,
            lifecycle: lc,
            dropped: 0,
            events: vec![
                TraceEvent { ts_ns: 1_000, kind: EventKind::Enqueued, lane: 0, a: 0, b: 0 },
                TraceEvent { ts_ns: 1_200, kind: EventKind::Assigned, lane: 0, a: 0, b: 0 },
                TraceEvent { ts_ns: 1_500, kind: EventKind::WorkStart, lane: 1, a: 0, b: 0 },
                TraceEvent { ts_ns: 1_600, kind: EventKind::CtaStep, lane: 0, a: 32, b: 500 },
                TraceEvent { ts_ns: 2_100, kind: EventKind::BeamSwitch, lane: 0, a: 4, b: 0 },
                TraceEvent { ts_ns: 8_900, kind: EventKind::RerankPass, lane: 1, a: 16, b: 2 },
                TraceEvent { ts_ns: 9_000, kind: EventKind::Finish, lane: 1, a: 0, b: 0 },
                TraceEvent { ts_ns: 9_100, kind: EventKind::MergeBegin, lane: 0, a: 0, b: 0 },
                TraceEvent { ts_ns: 9_400, kind: EventKind::MergeEnd, lane: 0, a: 0, b: 0 },
                TraceEvent { ts_ns: 9_600, kind: EventKind::Delivered, lane: 0, a: 0, b: 0 },
            ],
        }
    }

    #[test]
    fn export_validates_with_all_phases() {
        let text = chrome_trace_json(&[sample_trace()]);
        let summary = validate_chrome_trace(&text).unwrap();
        assert!(summary.missing_phases().is_empty(), "missing {:?}", summary.missing_phases());
        for extra in ["search", "merge", "deliver", "step"] {
            assert!(
                summary.duration_names.iter().any(|n| n == extra),
                "missing duration track {extra}"
            );
        }
    }

    #[test]
    fn empty_export_is_well_formed_but_phaseless() {
        let text = chrome_trace_json(&[]);
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.missing_phases().len(), 6);
    }

    #[test]
    fn validator_accepts_bare_arrays() {
        let text = r#"[{"ph":"X","ts":1,"pid":1,"tid":1,"name":"x","dur":2}]"#;
        let summary = validate_chrome_trace(text).unwrap();
        assert_eq!(summary.events, 1);
        assert_eq!(summary.duration_names, vec!["x".to_string()]);
    }

    #[test]
    fn validator_rejects_malformed_events() {
        for bad in [
            r#"{"traceEvents":[{"ts":1,"pid":1,"tid":1,"name":"x"}]}"#, // no ph
            r#"{"traceEvents":[{"ph":"X","pid":1,"tid":1,"name":"x","dur":1}]}"#, // no ts
            r#"{"traceEvents":[{"ph":"X","ts":1,"tid":1,"name":"x","dur":1}]}"#, // no pid
            r#"{"traceEvents":[{"ph":"X","ts":1,"pid":1,"name":"x","dur":1}]}"#, // no tid
            r#"{"traceEvents":[{"ph":"X","ts":1,"pid":1,"tid":1,"dur":1}]}"#, // no name
            r#"{"traceEvents":[{"ph":"X","ts":1,"pid":1,"tid":1,"name":"x"}]}"#, // X, no dur
            r#"{"notTraceEvents":[]}"#,
            r#""just a string""#,
        ] {
            assert!(validate_chrome_trace(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn timestamps_convert_to_microseconds() {
        let text = chrome_trace_json(&[sample_trace()]);
        let doc = Value::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let e2e = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("end_to_end"))
            .unwrap();
        assert_eq!(e2e.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(e2e.get("dur").unwrap().as_f64(), Some(8.6));
        let args = e2e.get("args").unwrap();
        assert_eq!(args.get("tag").and_then(Value::as_u64), Some(11));
        assert_eq!(args.get("request_id").and_then(Value::as_u64), Some(8_811));
    }
}
