//! Span recording around calls into the program, kept in memory and
//! written out when the run ends, plus the self-time tree built from them.
//!
//! With tracing off every call is a no-op, so untraced runs pay nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// One row of a self-time tree.
#[derive(Debug, Clone)]
pub struct TreeRow {
    /// `/`-joined span names from the root; internal time not covered by
    /// any child appears as `<path>/unattributed`.
    pub path: String,
    pub count: usize,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    pub fn end(&self, id: SpanId) {
        if let Some(k) = id {
            let now = self.ns(Instant::now());
            self.lock()[k].end_ns = now;
        }
    }

    /// Time `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, parent: SpanId, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent, request);
        let r = f();
        self.end(id);
        r
    }

    /// Spans as JSON: `{"spans": [{"name", "start_us", "end_us", "parent", "request"}]}`.
    pub fn to_json(&self) -> String {
        let spans = self.lock();
        let mut out = String::from("{\"spans\": [\n");
        for (k, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {k}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"request\": {}}}",
                if k > 0 { ",\n" } else { "" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Self-time tree: per span path, the time not covered by child spans
    /// (children's intervals are merged, so overlapping children count
    /// once). Rows of one root sum to the root's wall time.
    pub fn self_time_tree(&self) -> Vec<TreeRow> {
        let spans = self.lock();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (k, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(k);
            }
        }
        let mut rows: BTreeMap<String, (usize, f64)> = BTreeMap::new();
        let mut paths: Vec<String> = Vec::with_capacity(spans.len());
        for (k, s) in spans.iter().enumerate() {
            // Parents are always opened before their children.
            let path = match s.parent {
                Some(p) => format!("{}/{}", paths[p], s.name),
                None => s.name.clone(),
            };
            let mut iv: Vec<(u64, u64)> = children[k]
                .iter()
                .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            let key = if children[k].is_empty() {
                path.clone()
            } else {
                format!("{path}/unattributed")
            };
            let e = rows.entry(key).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += self_ns as f64 / 1e9;
            paths.push(path);
        }
        rows.into_iter()
            .map(|(path, (count, self_s))| TreeRow {
                path,
                count,
                self_s,
            })
            .collect()
    }
}
