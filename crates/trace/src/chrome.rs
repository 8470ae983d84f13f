//! Chrome trace-event JSON exporter.
//!
//! Emits the [Trace Event Format] consumed by Perfetto and `chrome://tracing`:
//! one *process* per node, with a `mdp` thread (tid 0) for handler execution
//! and a `router` thread (tid 1) for network activity. Machine cycles are
//! written as microsecond timestamps, so viewer time reads directly in
//! cycles. The JSON is assembled with `format!` — the workspace is hermetic
//! and takes no serialization dependency.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::EventKind;
use crate::trace::MachineTrace;

const TID_MDP: u32 = 0;
const TID_ROUTER: u32 = 1;

/// Renders a [`MachineTrace`] as a complete Chrome trace-event JSON document.
///
/// Per message the exporter draws three `"X"` (complete) spans — `net` and
/// `queue` on the destination's router track, `handler` on its MDP track —
/// plus an `"i"` (instant) mark per hop on the hop router's track. Each
/// [`SamplePoint`](crate::SamplePoint) becomes `"C"` (counter) events under a
/// synthetic `machine` process so Perfetto plots queue depth, flits in
/// flight, and active-router/busy-node counts as time series.
pub fn chrome_json(trace: &MachineTrace) -> String {
    let mut ev: Vec<String> = Vec::new();

    // Process/thread metadata so tracks are labelled in the viewer. The
    // synthetic machine-wide counter process gets the highest pid so node
    // pids stay equal to node indices.
    let machine_pid = trace.nodes;
    ev.push(meta_process(machine_pid, "machine"));
    for n in 0..trace.nodes {
        ev.push(meta_process(n, &format!("node{n}")));
        ev.push(meta_thread(n, TID_MDP, "mdp"));
        ev.push(meta_thread(n, TID_ROUTER, "router"));
    }

    for m in trace.messages() {
        let id = m.id.0;
        let dst = m.dst.0;
        if let Some(deliver) = m.deliver {
            ev.push(span(
                dst,
                TID_ROUTER,
                "net",
                &format!("net msg#{id}"),
                m.inject,
                deliver - m.inject,
            ));
        }
        if let (Some(deliver), Some(dispatch)) = (m.deliver, m.dispatch) {
            ev.push(span(
                dst,
                TID_ROUTER,
                "queue",
                &format!("queue msg#{id}"),
                deliver,
                dispatch - deliver,
            ));
        }
        if let (Some(dispatch), Some(end), Some(handler)) = (m.dispatch, m.handler_end, m.handler) {
            ev.push(span(
                dst,
                TID_MDP,
                "handler",
                &format!("handler@{handler} msg#{id}"),
                dispatch,
                end - dispatch,
            ));
        }
    }
    for e in &trace.events {
        if let EventKind::Hop { id, node } = e.kind {
            ev.push(format!(
                r#"{{"name":"hop msg#{}","cat":"net","ph":"i","ts":{},"pid":{},"tid":{},"s":"t"}}"#,
                id.0, e.cycle, node.0, TID_ROUTER
            ));
        }
        if let EventKind::Fault { id, node, what } = e.kind {
            ev.push(format!(
                r#"{{"name":"{} msg#{}","cat":"fault","ph":"i","ts":{},"pid":{},"tid":{},"s":"p"}}"#,
                what.label(),
                id.0,
                e.cycle,
                node.0,
                TID_ROUTER
            ));
        }
    }

    for s in &trace.samples {
        for (name, value) in [
            ("queued_words", s.queued_words),
            ("net_in_flight", s.in_flight),
            ("active_routers", u64::from(s.active_routers)),
            ("busy_nodes", u64::from(s.busy_nodes)),
        ] {
            ev.push(format!(
                r#"{{"name":"{name}","cat":"sample","ph":"C","ts":{},"pid":{machine_pid},"tid":0,"args":{{"{name}":{value}}}}}"#,
                s.cycle
            ));
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        ev.join(",\n")
    )
}

fn meta_process(pid: u32, name: &str) -> String {
    format!(r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{name}"}}}}"#)
}

fn meta_thread(pid: u32, tid: u32, name: &str) -> String {
    format!(
        r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{name}"}}}}"#
    )
}

fn span(pid: u32, tid: u32, cat: &str, name: &str, ts: u64, dur: u64) -> String {
    format!(
        r#"{{"name":"{name}","cat":"{cat}","ph":"X","ts":{ts},"dur":{dur},"pid":{pid},"tid":{tid}}}"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use jm_isa::instr::MsgPriority;
    use jm_isa::node::NodeId;
    use jm_isa::TraceId;

    #[test]
    fn exports_spans_hops_and_counters() {
        let id = TraceId(1);
        let events = vec![
            Event {
                cycle: 5,
                kind: EventKind::Inject {
                    id,
                    src: NodeId(0),
                    dst: NodeId(1),
                    priority: MsgPriority::P0,
                    words: 2,
                },
            },
            Event {
                cycle: 7,
                kind: EventKind::Hop {
                    id,
                    node: NodeId(0),
                },
            },
            Event {
                cycle: 11,
                kind: EventKind::Deliver {
                    id,
                    node: NodeId(1),
                },
            },
            Event {
                cycle: 14,
                kind: EventKind::Dispatch {
                    id,
                    node: NodeId(1),
                    handler: 3,
                },
            },
            Event {
                cycle: 20,
                kind: EventKind::HandlerEnd {
                    id,
                    node: NodeId(1),
                    handler: 3,
                },
            },
        ];
        let samples = vec![crate::SamplePoint {
            cycle: 10,
            queued_words: 4,
            in_flight: 6,
            active_routers: 2,
            busy_nodes: 1,
        }];
        let t = MachineTrace::assemble(vec![events.into_iter().collect()], samples, 2);
        let json = chrome_json(&t);
        assert!(json.contains(r#""name":"net msg#1","cat":"net","ph":"X","ts":5,"dur":6"#));
        assert!(json.contains(r#""name":"queue msg#1","cat":"queue","ph":"X","ts":11,"dur":3"#));
        assert!(
            json.contains(r#""name":"handler@3 msg#1","cat":"handler","ph":"X","ts":14,"dur":6"#)
        );
        assert!(json.contains(r#""name":"hop msg#1","cat":"net","ph":"i","ts":7"#));
        assert!(json.contains(r#""queued_words":4"#));
        // Every node plus the machine counter process is labelled.
        assert!(json.contains(r#""name":"node0""#));
        assert!(json.contains(r#""name":"node1""#));
        assert!(json.contains(r#""name":"machine""#));
        // Balanced braces — cheap structural sanity check on the JSON.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }
}
