//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written out once at the end, plus the self-time
//! arithmetic over them. No span lives inside the program under test.

use std::collections::HashMap;

use crate::stats;

/// One timed interval. Spans of one request share `request`; `parent`
/// is the span that caused this one (0 for a request's root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Name of every request's root span.
pub const ROOT: &str = "request";

/// A per-thread span buffer. Ids are unique across buffers because
/// each starts numbering in its own 2^48-wide lane.
pub struct TraceBuf {
    next_id: u64,
    pub spans: Vec<Span>,
}

impl TraceBuf {
    pub fn new(lane: usize) -> Self {
        TraceBuf {
            next_id: ((lane as u64 + 1) << 48) + 1,
            spans: Vec::new(),
        }
    }

    /// Record a span and return its id (a root names itself as its
    /// request).
    pub fn push(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            request: if parent == 0 { id } else { request },
            name,
            start_ns,
            dur_ns,
        });
        id
    }

    /// Record `durations` as children of `parent`, laid end to end
    /// from the parent's start: how replayed steps, which were timed
    /// outside the original interval, are placed back inside it.
    pub fn push_sequence(&mut self, parent: &Span, durations: &[(&'static str, u64)]) -> Vec<u64> {
        let mut at = parent.start_ns;
        durations
            .iter()
            .map(|&(name, dur)| {
                let id = self.push(parent.id, parent.request, name, at, dur);
                at += dur;
                id
            })
            .collect()
    }

    pub fn get(&self, id: u64) -> Option<&Span> {
        // Ids are handed out in push order within a buffer.
        let first = self.spans.first()?.id;
        self.spans
            .get(usize::try_from(id.checked_sub(first)?).ok()?)
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap each other and may
/// stick out of the parent; overlap counts once and the overhang not
/// at all.
pub fn self_time(start_ns: u64, dur_ns: u64, children: &mut [(u64, u64)]) -> u64 {
    let end = start_ns + dur_ns;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start_ns;
    for &(child_start, child_dur) in children.iter() {
        let from = child_start.max(reach);
        let to = (child_start + child_dur).min(end);
        if to > from {
            covered += to - from;
            reach = to;
        }
    }
    dur_ns - covered
}

/// One row of the per-workload self-time table.
#[derive(Clone, Debug)]
pub struct SelfTimeRow {
    pub name: &'static str,
    pub spans: usize,
    pub self_p50_us: f64,
    pub self_mean_us: f64,
}

/// The self-time table of a set of spans, plus how well it closes.
#[derive(Clone, Debug)]
pub struct SelfTimeTable {
    /// One row per span name, largest mean self time first.
    pub rows: Vec<SelfTimeRow>,
    /// Requests (root spans) in the table.
    pub requests: usize,
    /// p50 duration of the root spans.
    pub root_p50_us: f64,
    /// Sum over rows of `self_p50_us × spans / requests`: what the
    /// layers' typical self times add up to per request. Within 15 %
    /// of `root_p50_us` when the medians tell the whole story.
    pub closure_us: f64,
}

/// Aggregate self times by span name. Only requests whose root is in
/// `spans` count; `None` without any root.
pub fn self_time_table(spans: &[Span]) -> Option<SelfTimeTable> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.dur_ns));
    }
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut roots = Vec::new();
    for s in spans {
        let kids = children
            .get_mut(&s.id)
            .map_or(&mut [][..], Vec::as_mut_slice);
        let own = self_time(s.start_ns, s.dur_ns, kids) as f64 / 1e3;
        by_name.entry(s.name).or_default().push(own);
        if s.parent == 0 {
            roots.push(s.dur_ns as f64 / 1e3);
        }
    }
    let requests = roots.len();
    let root_p50_us = stats::percentile(&roots, 50.0)?;
    let mut rows: Vec<SelfTimeRow> = by_name
        .into_iter()
        .map(|(name, own)| SelfTimeRow {
            name,
            spans: own.len(),
            self_p50_us: stats::percentile(&own, 50.0).unwrap_or(0.0),
            self_mean_us: own.iter().sum::<f64>() / own.len() as f64,
        })
        .collect();
    rows.sort_by(|a, b| {
        (b.self_mean_us * b.spans as f64)
            .total_cmp(&(a.self_mean_us * a.spans as f64))
            .then(a.name.cmp(b.name))
    });
    let closure_us = rows
        .iter()
        .map(|r| r.self_p50_us * r.spans as f64 / requests as f64)
        .sum();
    Some(SelfTimeTable {
        rows,
        requests,
        root_p50_us,
        closure_us,
    })
}

/// Render spans as a JSON array, one object per line.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let lines: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = if s.parent == 0 {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            format!(
                "{{\"workload\": \"{workload}\", \"id\": {}, \"parent\": {parent}, \
                 \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                s.id, s.request, s.name, s.start_ns, s.dur_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all of it.
        assert_eq!(self_time(100, 50, &mut []), 50);
        // Two disjoint children.
        assert_eq!(self_time(100, 50, &mut [(100, 10), (120, 10)]), 30);
        // Overlapping children count once: [105,125) ∪ [115,135) = 30.
        assert_eq!(self_time(100, 50, &mut [(115, 20), (105, 20)]), 20);
        // A child nested in another adds nothing.
        assert_eq!(self_time(100, 50, &mut [(100, 40), (110, 10)]), 10);
        // Overhang past either end is not subtracted.
        assert_eq!(self_time(100, 50, &mut [(90, 20), (140, 30)]), 30);
        // Children covering everything leave zero, never underflow.
        assert_eq!(self_time(100, 50, &mut [(0, 1000)]), 0);
    }

    #[test]
    fn table_partitions_each_request_among_its_spans() {
        let mut buf = TraceBuf::new(0);
        for i in 0..10u64 {
            let t0 = i * 1_000_000;
            let root = buf.push(0, 0, ROOT, t0, 100_000);
            buf.push(root, root, "client.encode", t0, 10_000);
            let rtt = buf.push(root, root, "socket.rtt", t0 + 10_000, 70_000);
            buf.push(root, root, "client.decode", t0 + 80_000, 20_000);
            let rtt_span = *buf.get(rtt).unwrap();
            let ids = buf.push_sequence(&rtt_span, &[("service.call", 50_000)]);
            assert_eq!(buf.get(ids[0]).unwrap().request, root);
        }
        let table = self_time_table(&buf.spans).unwrap();
        assert_eq!(table.requests, 10);
        assert_eq!(table.root_p50_us, 100.0);
        let row = |name| table.rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!(row(ROOT).self_p50_us, 0.0);
        assert_eq!(row("socket.rtt").self_p50_us, 20.0);
        assert_eq!(row("service.call").self_p50_us, 50.0);
        assert_eq!(row("client.decode").spans, 10);
        assert!((table.closure_us - 100.0).abs() < 1e-9);
        assert_eq!(table.rows[0].name, "service.call");
    }

    #[test]
    fn buffers_number_spans_in_disjoint_lanes() {
        let (mut a, mut b) = (TraceBuf::new(0), TraceBuf::new(1));
        let ia = a.push(0, 0, ROOT, 0, 1);
        let ib = b.push(0, 0, ROOT, 0, 1);
        assert_ne!(ia, ib);
        assert_eq!(a.get(ia).unwrap().request, ia);
        assert!(a.get(ib).is_none());
    }

    #[test]
    fn json_array_parses_back() {
        let mut buf = TraceBuf::new(0);
        let root = buf.push(0, 0, ROOT, 5, 10);
        buf.push(root, root, "socket.rtt", 6, 3);
        let doc = lpath_obs::json::parse(&to_json("browse_hot", &buf.spans)).unwrap();
        let spans = doc.as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&lpath_obs::json::Value::Null));
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(root));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("socket.rtt"));
    }
}
