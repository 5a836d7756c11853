//! The traced run's spans: one client span per request recorded by the
//! generator, joined by wire request id to the server's query-log record,
//! which carries the durations of the five phases inside the server.
//!
//! Span tree per request: `client.rtt` ⊃ `server.e2e` ⊃ {`runtime.queue`,
//! `runtime.dispatch`, `search.work`, `runtime.merge`, `runtime.deliver`}.
//! The server reports durations, not clock readings, so `server.e2e` is
//! placed in the middle of `client.rtt` (equal time on the wire each
//! way) and the phases follow one another inside it.

use crate::json::{self, Value};
use std::collections::HashMap;
use std::io::Write;

/// The five phases of a query-log record, in the order they happen.
pub const PHASES: [(&str, &str); 5] = [
    ("runtime.queue", "queue_ns"),
    ("runtime.dispatch", "dispatch_ns"),
    ("search.work", "search_ns"),
    ("runtime.merge", "merge_ns"),
    ("runtime.deliver", "deliver_ns"),
];

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerRecord {
    /// Durations of [`PHASES`], ns.
    pub phase_ns: [u64; 5],
    pub e2e_ns: u64,
}

/// Parses query-log text (one JSON record per line) into records by wire
/// request id. Lines that are cut short, are not records of a served
/// query or repeat an id already seen are skipped: the log is written by
/// a child that gets killed, so its tail may be torn.
pub fn parse_query_log(text: &str) -> HashMap<u64, ServerRecord> {
    let mut out = HashMap::new();
    for line in text.lines() {
        let Ok(v) = json::parse(line) else { continue };
        if v.get("status").and_then(Value::as_str) != Some("ok") {
            continue;
        }
        let field = |name: &str| v.get(name).and_then(Value::as_f64).map(|n| n as u64);
        let phases: Option<Vec<u64>> = PHASES.iter().map(|(_, key)| field(key)).collect();
        let (Some(id), Some(phases), Some(e2e_ns)) = (field("request_id"), phases, field("e2e_ns"))
        else {
            continue;
        };
        out.entry(id)
            .or_insert(ServerRecord { phase_ns: phases.try_into().expect("five phases"), e2e_ns });
    }
    out
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub request_id: u64,
}

/// Appends the spans of one answered request: the client span from the
/// generator's clock and, when the server logged the request, its
/// end-to-end span and phases.
pub fn push_request_spans(
    spans: &mut Vec<Span>,
    request_id: u64,
    sent_ns: u64,
    reply_ns: u64,
    server: Option<&ServerRecord>,
) {
    let client = spans.len();
    spans.push(Span {
        name: "client.rtt",
        start_ns: sent_ns,
        end_ns: reply_ns,
        parent: None,
        request_id,
    });
    let Some(server) = server else { return };
    let rtt = reply_ns - sent_ns;
    // A server span longer than the round trip cannot nest (clocks differ
    // by scheduling jitter at the µs scale); clamp it to the client span.
    let e2e = server.e2e_ns.min(rtt);
    let start = sent_ns + (rtt - e2e) / 2;
    let e2e_idx = spans.len();
    spans.push(Span {
        name: "server.e2e",
        start_ns: start,
        end_ns: start + e2e,
        parent: Some(client),
        request_id,
    });
    let mut at = start;
    for ((name, _), &ns) in PHASES.iter().zip(&server.phase_ns) {
        let end = (at + ns).min(start + e2e);
        spans.push(Span { name, start_ns: at, end_ns: end, parent: Some(e2e_idx), request_id });
        at = end;
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children of one span do not overlap here).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let covered =
                s.end_ns.min(spans[p].end_ns).saturating_sub(s.start_ns.max(spans[p].start_ns));
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

/// Writes the spans and the per-name self-time totals. `stamp` is the
/// run's provenance object, already rendered as JSON.
pub fn write_trace(path: &std::path::Path, stamp: &str, spans: &[Span]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    let own = self_times(spans);
    let mut totals: Vec<(&str, u64, u64)> = Vec::new();
    for (s, &ns) in spans.iter().zip(&own) {
        match totals.iter_mut().find(|t| t.0 == s.name) {
            Some(t) => (t.1, t.2) = (t.1 + ns, t.2 + 1),
            None => totals.push((s.name, ns, 1)),
        }
    }
    write!(w, "{{\"stamp\":{stamp},\"self_time_ns\":{{").map_err(err)?;
    for (i, (name, ns, count)) in totals.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(w, "{sep}\"{name}\":{{\"total\":{ns},\"spans\":{count}}}").map_err(err)?;
    }
    write!(w, "}},\"spans\":[").map_err(err)?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            w,
            "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request_id
        )
        .map_err(err)?;
    }
    writeln!(w, "\n]}}").map_err(err)?;
    w.flush().map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"request_id":5,"tag":5,"conn":2,"client_ts_us":36482,"status":"ok","queue_ns":100,"dispatch_ns":50,"search_ns":600,"merge_ns":200,"deliver_ns":50,"e2e_ns":1000,"slot":1,"worker":0,"host":0,"hops":158,"entry":"hashed","slo_level":2,"rerank_depth":20}"#;

    #[test]
    fn query_log_join_tolerates_missing_torn_and_foreign_lines() {
        let torn = &LINE[..LINE.len() / 2];
        let rejected = LINE.replace("\"ok\"", "\"rejected\"").replace(":5,", ":6,");
        let text = format!("{LINE}\n\nnot json\n{rejected}\n{LINE}\n{torn}");
        let log = parse_query_log(&text);
        assert_eq!(
            log.len(),
            1,
            "one served record; blank, garbage, rejected, duplicate and torn lines skipped"
        );
        let r = log[&5];
        assert_eq!(r.phase_ns, [100, 50, 600, 200, 50]);
        assert_eq!(r.e2e_ns, 1000);
        assert!(!log.contains_key(&6));
        assert!(!log.contains_key(&7), "an id the log never saw simply has no record");
    }

    #[test]
    fn spans_nest_and_self_time_is_duration_minus_children() {
        let server = parse_query_log(LINE)[&5];
        let mut spans = Vec::new();
        push_request_spans(&mut spans, 5, 10_000, 11_400, Some(&server));
        push_request_spans(&mut spans, 9, 20_000, 20_300, None);
        assert_eq!(spans.len(), 8);
        // server.e2e sits in the middle of the 1 400 ns round trip.
        assert_eq!(
            (spans[1].start_ns, spans[1].end_ns, spans[1].parent),
            (10_200, 11_200, Some(0))
        );
        // The phases tile server.e2e exactly.
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert_eq!(spans[6].end_ns, spans[1].end_ns);
        assert!(spans[2..7].windows(2).all(|w| w[0].end_ns == w[1].start_ns));
        let own = self_times(&spans);
        assert_eq!(own[0], 400, "client.rtt minus server.e2e: time on the wire and in sockets");
        assert_eq!(own[1], 0, "the phases account for all of server.e2e");
        assert_eq!(own[4], 600);
        assert_eq!(own[7], 300, "an unjoined request keeps its whole round trip");
    }

    #[test]
    fn a_server_span_longer_than_the_round_trip_is_clamped() {
        let server = parse_query_log(LINE)[&5];
        let mut spans = Vec::new();
        push_request_spans(&mut spans, 5, 0, 900, Some(&server));
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (0, 900));
        assert!(spans.iter().all(|s| s.end_ns <= 900 && s.start_ns <= s.end_ns));
        assert_eq!(self_times(&spans)[0], 0);
    }
}
