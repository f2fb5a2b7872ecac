//! Snapshot export: human-readable tree and JSONL, plus a minimal JSONL
//! parser so exports round-trip in tests and downstream tooling.
//!
//! The JSONL schema is one self-describing object per line:
//!
//! ```text
//! {"kind":"meta","mismatched_exits":0}
//! {"kind":"span","id":0,"parent":null,"thread":0,"name":"analyze","wall_ns":1234567}
//! {"kind":"counter","name":"core.disk_queries","value":4096}
//! {"kind":"hist","name":"sim.queue_depth","count":10,"sum":55,"max":9,
//!  "underflow":1,"overflow":0,"buckets":[[0,3],[2,6]]}
//! ```
//!
//! Buckets are sparse `[index, count]` pairs; `wall_ns` is `null` for a
//! span that was still open when the snapshot was taken.

use crate::hist::Histogram;
use crate::recorder::{Snapshot, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl Snapshot {
    /// Serializes the snapshot as JSONL (one object per line, `meta`
    /// first, then spans in entry order, counters, histograms).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\"kind\":\"meta\",\"mismatched_exits\":{}}}", self.mismatched_exits);
        for (id, span) in self.spans.iter().enumerate() {
            let mut line = format!("{{\"kind\":\"span\",\"id\":{id},\"parent\":");
            match span.parent {
                Some(p) => {
                    let _ = write!(line, "{p}");
                }
                None => line.push_str("null"),
            }
            let _ = write!(line, ",\"thread\":{},\"name\":\"", span.thread);
            escape(&span.name, &mut line);
            line.push_str("\",\"wall_ns\":");
            match span.wall_ns {
                Some(ns) => {
                    let _ = write!(line, "{ns}");
                }
                None => line.push_str("null"),
            }
            line.push('}');
            out.push_str(&line);
            out.push('\n');
        }
        for (name, value) in &self.counters {
            let mut line = String::from("{\"kind\":\"counter\",\"name\":\"");
            escape(name, &mut line);
            let _ = write!(line, "\",\"value\":{value}}}");
            out.push_str(&line);
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            let mut line = String::from("{\"kind\":\"hist\",\"name\":\"");
            escape(name, &mut line);
            let _ = write!(
                line,
                "\",\"count\":{},\"sum\":{},\"max\":{},\"underflow\":{},\"overflow\":{},\"buckets\":[",
                h.count, h.sum, h.max, h.underflow, h.overflow
            );
            for (i, (idx, c)) in h.nonempty_buckets().into_iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "[{idx},{c}]");
            }
            line.push_str("]}");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parses a string produced by [`Snapshot::to_jsonl`] back into a
    /// snapshot. Unknown `kind`s are an error, so schema drift is caught
    /// by the round-trip test.
    pub fn from_jsonl(text: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        let mut spans: Vec<(u64, SpanRecord)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let obj = parse_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let kind = obj.get_str("kind").map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let res = match kind.as_str() {
                "meta" => obj.get_u64("mismatched_exits").map(|v| snap.mismatched_exits = v),
                "span" => (|| {
                    let id = obj.get_u64("id")?;
                    let parent = match obj.get("parent")? {
                        Value::Null => None,
                        Value::Num(n) => Some(*n as usize),
                        v => return Err(format!("span parent: expected number or null, got {v:?}")),
                    };
                    let wall_ns = match obj.get("wall_ns")? {
                        Value::Null => None,
                        Value::Num(n) => Some(*n),
                        v => return Err(format!("span wall_ns: expected number or null, got {v:?}")),
                    };
                    spans.push((
                        id,
                        SpanRecord {
                            name: obj.get_str("name")?,
                            parent,
                            thread: obj.get_u64("thread")?,
                            wall_ns,
                        },
                    ));
                    Ok(())
                })(),
                "counter" => (|| {
                    snap.counters.insert(obj.get_str("name")?, obj.get_u64("value")?);
                    Ok(())
                })(),
                "hist" => (|| {
                    let mut h = Histogram::new();
                    h.count = obj.get_u64("count")?;
                    h.sum = obj.get_u64("sum")?;
                    h.max = obj.get_u64("max")?;
                    h.underflow = obj.get_u64("underflow")?;
                    h.overflow = obj.get_u64("overflow")?;
                    let Value::Arr(buckets) = obj.get("buckets")? else {
                        return Err("hist buckets: expected array".to_string());
                    };
                    for pair in buckets {
                        let Value::Arr(pair) = pair else {
                            return Err("hist bucket entry: expected [index, count]".to_string());
                        };
                        match pair.as_slice() {
                            [Value::Num(idx), Value::Num(c)] => {
                                for _ in 0..*c {
                                    // Reconstruct occupancy via the bucket's
                                    // lower edge; count/sum/max were set
                                    // exactly above, so only re-add the
                                    // bucket tallies here.
                                    let (lo, _) = Histogram::bucket_range(*idx as usize);
                                    let before = (h.count, h.sum, h.max);
                                    h.record(lo);
                                    (h.count, h.sum, h.max) = before;
                                }
                                Ok(())
                            }
                            _ => Err("hist bucket entry: expected two numbers".to_string()),
                        }?;
                    }
                    snap.histograms.insert(obj.get_str("name")?, h);
                    Ok(())
                })(),
                other => Err(format!("unknown kind `{other}`")),
            };
            res.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        spans.sort_by_key(|(id, _)| *id);
        for (i, (id, span)) in spans.into_iter().enumerate() {
            if id as usize != i {
                return Err(format!("span ids are not dense: expected {i}, got {id}"));
            }
            snap.spans.push(span);
        }
        Ok(snap)
    }

    /// Renders the snapshot as an indented human-readable report:
    /// span tree (children indented under parents), then counters, then
    /// histogram summaries.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("obs: spans\n");
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
            let mut roots = Vec::new();
            for (i, s) in self.spans.iter().enumerate() {
                match s.parent {
                    Some(p) if p < self.spans.len() => children[p].push(i),
                    _ => roots.push(i),
                }
            }
            let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&r| (r, 1)).collect();
            while let Some((i, depth)) = stack.pop() {
                let s = &self.spans[i];
                let wall = match s.wall_ns {
                    Some(ns) => format!("{:.3} ms", ns as f64 / 1e6),
                    None => "(open)".to_string(),
                };
                let _ = writeln!(out, "{:indent$}{:<32} {wall}", "", s.name, indent = depth * 2);
                for &c in children[i].iter().rev() {
                    stack.push((c, depth + 1));
                }
            }
        }
        if !self.counters.is_empty() {
            out.push_str("obs: counters\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("obs: histograms\n");
            for (name, h) in &self.histograms {
                let _ = write!(out, "  {name}: count={} sum={} max={}", h.count, h.sum, h.max);
                if h.underflow > 0 {
                    let _ = write!(out, " zero={}", h.underflow);
                }
                if h.overflow > 0 {
                    let _ = write!(out, " overflow={}", h.overflow);
                }
                for (idx, c) in h.nonempty_buckets() {
                    let (lo, hi) = Histogram::bucket_range(idx);
                    let _ = write!(out, " [{lo},{hi}):{c}");
                }
                out.push('\n');
            }
        }
        if self.mismatched_exits > 0 {
            let _ = writeln!(out, "obs: WARNING {} mismatched span exits", self.mismatched_exits);
        }
        out
    }
}

/// Minimal JSON value: exactly what the JSONL schema above needs.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Num(u64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Object),
}

/// A parsed JSON object with typed accessors.
#[derive(Debug, Clone, PartialEq, Default)]
struct Object(BTreeMap<String, Value>);

impl Object {
    fn get(&self, key: &str) -> Result<&Value, String> {
        self.0.get(key).ok_or_else(|| format!("missing key `{key}`"))
    }

    fn get_str(&self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            Value::Str(s) => Ok(s.clone()),
            v => Err(format!("key `{key}`: expected string, got {v:?}")),
        }
    }

    fn get_u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            Value::Num(n) => Ok(*n),
            v => Err(format!("key `{key}`: expected number, got {v:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!("expected `{}`, got `{}`", b as char, got as char));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object().map(Value::Obj),
            b'[' => self.array(),
            b'"' => self.string().map(Value::Str),
            b'n' => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Value::Null)
                } else {
                    Err("bad literal".to_string())
                }
            }
            b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected character `{}`", other as char)),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<u64>().map(Value::Num).map_err(|e| format!("bad number `{text}`: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            self.pos += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| "bad codepoint".to_string())?,
                            );
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Re-borrow from pos-1 so multi-byte UTF-8 stays intact.
                    let rest = std::str::from_utf8(&self.bytes[self.pos - 1..])
                        .map_err(|_| "non-utf8 string".to_string())?;
                    let c = rest.chars().next().ok_or_else(|| "empty".to_string())?;
                    out.push(c);
                    self.pos += c.len_utf8() - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected `,` or `]`, got `{}`", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Object, String> {
        self.expect_byte(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect_byte(b':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Object(map));
                }
                other => return Err(format!("expected `,` or `}}`, got `{}`", other as char)),
            }
        }
    }
}

fn parse_object(line: &str) -> Result<Object, String> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
    let obj = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample_snapshot() -> Snapshot {
        let rec = Recorder::new();
        let outer = rec.span_enter("outer");
        let inner = rec.span_enter("inner/child");
        rec.span_exit(inner);
        rec.span_exit(outer);
        rec.counter_add("core.disk_queries", 4096);
        rec.counter_add("geom.grid_builds", 1);
        for v in [0u64, 1, 3, 9, 1 << 20, u64::MAX] {
            rec.record_value("sim.queue_depth", v);
        }
        rec.snapshot()
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample_snapshot();
        let text = snap.to_jsonl();
        let back = Snapshot::from_jsonl(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn jsonl_round_trips_open_spans_and_mismatches() {
        let rec = Recorder::new();
        let outer = rec.span_enter("outer");
        let inner = rec.span_enter("inner");
        rec.span_exit(outer); // mismatched on purpose
        rec.span_exit(inner);
        let _still_open = rec.span_enter("open");
        let snap = rec.snapshot();
        assert_eq!(snap.mismatched_exits, 1);
        assert_eq!(snap.spans.iter().filter(|s| s.wall_ns.is_none()).count(), 1);
        let back = Snapshot::from_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn jsonl_lines_are_parseable_objects() {
        let text = sample_snapshot().to_jsonl();
        assert!(text.lines().count() >= 5);
        for line in text.lines() {
            parse_object(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in ["{", "{\"kind\":}", "{\"kind\":\"span\"} trailing", "[1,2]", "{\"a\":01x}"] {
            assert!(parse_object(bad).is_err(), "accepted `{bad}`");
        }
        assert!(Snapshot::from_jsonl("{\"kind\":\"mystery\"}").is_err());
    }

    #[test]
    fn human_report_lists_spans_counters_hists() {
        let text = sample_snapshot().render_human();
        assert!(text.contains("obs: spans"));
        assert!(text.contains("outer"));
        // The child is indented deeper than its parent.
        let outer_indent = text.lines().find(|l| l.contains("outer")).unwrap().len()
            - text.lines().find(|l| l.contains("outer")).unwrap().trim_start().len();
        let inner_line = text.lines().find(|l| l.contains("inner/child")).unwrap();
        let inner_indent = inner_line.len() - inner_line.trim_start().len();
        assert!(inner_indent > outer_indent);
        assert!(text.contains("core.disk_queries = 4096"));
        assert!(text.contains("sim.queue_depth"));
        assert!(text.contains("zero=1"));
        assert!(text.contains("overflow=1"));
    }
}
