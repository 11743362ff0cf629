//! Chrome trace-event export: turn a raw event stream into a JSON
//! document that Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`
//! open directly.
//!
//! Mapping: cycles become microseconds one-to-one (the viewers have no
//! notion of cycles), each packet becomes one complete (`"X"`) slice from
//! injection to delivery on the track of its *source* node, circuit-table
//! transitions become instant (`"i"`) events on the router's track, and
//! epoch occupancy samples become counter (`"C"`) series.

use crate::event::{EventKind, TraceEvent};
use serde_json::Value;
use std::collections::HashMap;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn s(v: &str) -> Value {
    Value::Str(v.to_owned())
}

fn common(name: &str, ph: &str, ts: u64, tid: u64) -> Vec<(&'static str, Value)> {
    vec![
        ("name", s(name)),
        ("ph", s(ph)),
        ("ts", Value::U64(ts)),
        ("pid", Value::U64(0)),
        ("tid", Value::U64(tid)),
    ]
}

/// Builds the trace document. Events must be in emission order (the order
/// the sink returns them).
pub fn chrome_trace(events: &[TraceEvent]) -> Value {
    let mut out: Vec<Value> = Vec::new();
    // packet → (inject cycle, src node, class)
    let mut open: HashMap<u64, (u64, u16, &'static str)> = HashMap::new();
    let mut classes: HashMap<u64, &'static str> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::NiEnqueue { packet, class, .. } => {
                classes.insert(packet, class.0);
            }
            EventKind::NiInject { packet, node } => {
                let class = classes.get(&packet).copied().unwrap_or("packet");
                open.entry(packet).or_insert((e.cycle, node, class));
            }
            EventKind::NiEject {
                packet,
                node,
                rode_circuit,
                retries,
            } => {
                if let Some((start, src, class)) = open.remove(&packet) {
                    let mut fields = common(class, "X", start, src as u64);
                    fields.push(("dur", Value::U64(e.cycle.saturating_sub(start).max(1))));
                    fields.push(("cat", s(if rode_circuit { "circuit" } else { "packet" })));
                    fields.push((
                        "args",
                        obj(vec![
                            ("packet", Value::U64(packet)),
                            ("dst", Value::U64(node as u64)),
                            ("retries", Value::U64(retries as u64)),
                        ]),
                    ));
                    out.push(obj(fields));
                }
            }
            EventKind::CircuitReserve {
                node,
                requestor,
                block,
            }
            | EventKind::CircuitConflict {
                node,
                requestor,
                block,
            }
            | EventKind::CircuitConfirm {
                node,
                requestor,
                block,
            }
            | EventKind::CircuitTear {
                node,
                requestor,
                block,
            } => {
                let mut fields = common(e.kind.name(), "i", e.cycle, node as u64);
                fields.push(("cat", s("circuit")));
                fields.push(("s", s("t")));
                fields.push((
                    "args",
                    obj(vec![
                        ("requestor", Value::U64(requestor as u64)),
                        ("block", Value::U64(block)),
                    ]),
                ));
                out.push(obj(fields));
            }
            EventKind::EpochSample {
                circuit_entries,
                buffered_flits,
                ni_backlog,
            } => {
                let mut fields = common("noc_occupancy", "C", e.cycle, 0);
                fields.push((
                    "args",
                    obj(vec![
                        ("circuit_entries", Value::U64(circuit_entries)),
                        ("buffered_flits", Value::U64(buffered_flits)),
                        ("ni_backlog", Value::U64(ni_backlog)),
                    ]),
                ));
                out.push(obj(fields));
            }
            _ => {}
        }
    }
    obj(vec![
        ("traceEvents", Value::Seq(out)),
        ("displayTimeUnit", s("ms")),
        (
            "otherData",
            obj(vec![("timeUnit", s("1 ts = 1 simulated cycle"))]),
        ),
    ])
}

/// [`chrome_trace`] serialized to a JSON string ready to write to disk.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    serde_json::to_string(&chrome_trace(events)).expect("trace document always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ClassLabel;

    fn ev(cycle: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { cycle, kind }
    }

    #[test]
    fn packet_becomes_complete_slice() {
        let events = vec![
            ev(
                0,
                EventKind::NiEnqueue {
                    packet: 1,
                    src: 0,
                    dst: 5,
                    class: ClassLabel("L2_Reply"),
                },
            ),
            ev(3, EventKind::NiInject { packet: 1, node: 0 }),
            ev(
                23,
                EventKind::NiEject {
                    packet: 1,
                    node: 5,
                    rode_circuit: true,
                    retries: 0,
                },
            ),
        ];
        let doc = chrome_trace(&events);
        let traced = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(traced.len(), 1);
        let slice = &traced[0];
        assert_eq!(slice.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(slice.get("name").unwrap().as_str(), Some("L2_Reply"));
        assert_eq!(slice.get("ts").unwrap().as_u64(), Some(3));
        assert_eq!(slice.get("dur").unwrap().as_u64(), Some(20));
        assert_eq!(slice.get("cat").unwrap().as_str(), Some("circuit"));
    }

    #[test]
    fn samples_become_counters_and_document_parses_back() {
        let events = vec![ev(
            100,
            EventKind::EpochSample {
                circuit_entries: 3,
                buffered_flits: 12,
                ni_backlog: 2,
            },
        )];
        let json = chrome_trace_json(&events);
        let doc: Value = serde_json::from_str(&json).unwrap();
        let traced = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(traced[0].get("ph").unwrap().as_str(), Some("C"));
        let args = traced[0].get("args").unwrap();
        assert_eq!(args.get("buffered_flits").unwrap().as_u64(), Some(12));
    }
}
