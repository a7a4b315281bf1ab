//! Chrome trace-event JSON: exporter and in-repo validator.
//!
//! The exporter writes the "JSON object format" understood by
//! `chrome://tracing` and Perfetto: a `traceEvents` array of objects
//! with `ph` phases `"B"`/`"E"` (synchronous, nested per thread),
//! `"b"`/`"e"` (asynchronous, matched by category + name + id across
//! threads) and `"i"` (instant), timestamps in microseconds. The
//! validator re-parses that JSON with a small in-repo parser (the
//! workspace has no serde) and re-checks the invariants a viewer relies
//! on: balanced B/E per thread, monotonic timestamps per thread, and
//! paired async events.

use std::collections::HashMap;

use crate::buffer::Trace;
use crate::event::{EventKind, Payload, TraceEvent};

/// Escapes a string for a JSON literal (quotes, backslashes, control
/// characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a payload as the members of a Chrome `args` object (no
/// surrounding braces; empty string for [`Payload::None`]).
fn payload_args(p: &Payload) -> String {
    match p {
        Payload::None => String::new(),
        Payload::Pass { pass, changed } => {
            format!("\"pass\":\"{}\",\"changed\":{changed}", esc(pass))
        }
        Payload::Kernel {
            kernel,
            shapes,
            cache,
        } => {
            let mut s = format!(
                "\"kernel\":\"{}\",\"shapes\":\"{}\"",
                esc(kernel),
                esc(shapes)
            );
            if let Some(c) = cache {
                s.push_str(&format!(",\"cache\":\"{}\"", c.label()));
            }
            s
        }
        Payload::Session { session, phase } => {
            format!("\"session\":{session},\"phase\":\"{}\"", phase.label())
        }
        Payload::Batch { sessions, phase } => {
            format!("\"sessions\":{sessions},\"phase\":\"{}\"", phase.label())
        }
        Payload::Worker { worker, event } => {
            format!("\"worker\":{worker},\"event\":\"{}\"", event.label())
        }
        Payload::Lock { site, wait_ns } => {
            format!("\"site\":\"{}\",\"wait_ns\":{wait_ns}", esc(site))
        }
    }
}

/// One trace event as a Chrome JSON object.
fn event_json(e: &TraceEvent) -> String {
    let ph = match e.kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::AsyncBegin => "b",
        EventKind::AsyncEnd => "e",
        EventKind::Instant => "i",
    };
    let ts_us = e.ts_ns / 1_000;
    let ts_frac = e.ts_ns % 1_000;
    let mut args = payload_args(&e.payload);
    if let Some(parent) = e.parent {
        if !args.is_empty() {
            args.push(',');
        }
        args.push_str(&format!("\"parent_span\":{parent}"));
    }
    let mut obj = format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts_us}.{ts_frac:03},\"pid\":1,\"tid\":{}",
        esc(&e.name),
        e.cat,
        e.tid
    );
    match e.kind {
        // Async events are matched by (cat, name, id); instants carry
        // thread scope.
        EventKind::AsyncBegin | EventKind::AsyncEnd => {
            obj.push_str(&format!(",\"id\":{}", e.id));
        }
        EventKind::Instant => obj.push_str(",\"s\":\"t\""),
        EventKind::Begin | EventKind::End => {}
    }
    if !args.is_empty() {
        obj.push_str(&format!(",\"args\":{{{args}}}"));
    }
    obj.push('}');
    obj
}

/// Exports a drained [`Trace`] as Chrome trace-event JSON, loadable in
/// `chrome://tracing` or <https://ui.perfetto.dev>. The top-level object
/// also records how many events the bounded buffer dropped.
pub fn chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.events.len() * 96 + 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in trace.events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&event_json(e));
    }
    out.push_str(&format!(
        "\n],\"otherData\":{{\"dropped\":{}}}}}\n",
        trace.dropped
    ));
    out
}

// ---------------------------------------------------------------------
// Mini JSON parser — just enough to re-validate exported traces.
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char,
                self.pos,
                self.src
                    .get(self.pos)
                    .map(|&c| (c as char).to_string())
                    .unwrap_or_else(|| "eof".to_string())
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.src.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.src.get(self.pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                other => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if other < 0x80 {
                        out.push(other as char);
                    } else {
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.src.len() && (self.src[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.src[start..end])
                                .map_err(|e| e.to_string())?,
                        );
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(_) => Ok(Json::Num(self.number()?)),
            None => Err("unexpected end of input".to_string()),
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// A description of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        src: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Counts reported by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Matched synchronous `B`/`E` pairs.
    pub sync_pairs: usize,
    /// Matched asynchronous `b`/`e` pairs.
    pub async_pairs: usize,
    /// Instant (`i`) events.
    pub instants: usize,
    /// Distinct thread ids seen.
    pub threads: usize,
    /// Events the exporter reported dropped at the buffer.
    pub dropped: u64,
}

/// Validates exported Chrome trace JSON from the text up: parses it with
/// the in-repo JSON parser, then checks that `B`/`E` events are balanced
/// and properly nested per thread (matching names), timestamps are
/// monotonic per thread, and async `b`/`e` events pair on
/// `(cat, name, id)`.
///
/// # Errors
///
/// A description of the first syntax or structural violation.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeStats, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing `traceEvents` array")?;

    let mut stats = ChromeStats {
        events: events.len(),
        dropped: doc
            .get("otherData")
            .and_then(|o| o.get("dropped"))
            .and_then(|d| d.as_f64())
            .unwrap_or(0.0) as u64,
        ..ChromeStats::default()
    };
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut async_open: HashMap<(String, String, u64), usize> = HashMap::new();

    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let tid = e
            .get("tid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing `tid`"))? as u64;
        let ts = e
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing `ts`"))?;
        let name = e.get("name").and_then(|v| v.as_str()).unwrap_or_default();

        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!(
                "event {i} (`{name}`): ts {ts} goes backwards on tid {tid} (previous {prev})"
            ));
        }
        *prev = ts;

        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let stack = stacks.entry(tid).or_default();
                match stack.pop() {
                    Some(open) if open == name => stats.sync_pairs += 1,
                    Some(open) => {
                        return Err(format!(
                            "event {i}: tid {tid} E `{name}` does not match open B `{open}`"
                        ));
                    }
                    None => {
                        return Err(format!("event {i}: tid {tid} E `{name}` with empty stack"));
                    }
                }
            }
            "b" | "e" => {
                let cat = e.get("cat").and_then(|v| v.as_str()).unwrap_or_default();
                let id = e
                    .get("id")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i}: async event missing `id`"))?
                    as u64;
                let key = (cat.to_string(), name.to_string(), id);
                if ph == "b" {
                    *async_open.entry(key).or_insert(0) += 1;
                } else {
                    let open = async_open.get_mut(&key).ok_or_else(|| {
                        format!("event {i}: async `e` `{cat}:{name}` id {id} without `b`")
                    })?;
                    if *open == 0 {
                        return Err(format!(
                            "event {i}: async `e` `{cat}:{name}` id {id} without `b`"
                        ));
                    }
                    *open -= 1;
                    stats.async_pairs += 1;
                }
            }
            "i" | "I" => stats.instants += 1,
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }

    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: B `{open}` never closed"));
        }
    }
    for ((cat, name, id), open) in &async_open {
        if *open != 0 {
            return Err(format!("async `{cat}:{name}` id {id} never closed"));
        }
    }
    stats.threads = last_ts.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_roundtrips_values() {
        let doc =
            parse_json(r#"{"a": [1, 2.5, -3e2], "b": "x\n\"y\"", "c": true, "d": null, "e": {}}"#)
                .unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn checker_accepts_balanced_trace() {
        let text = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"B","ts":1.0,"pid":1,"tid":1},
            {"name":"b","cat":"c","ph":"B","ts":2.0,"pid":1,"tid":1},
            {"name":"b","cat":"c","ph":"E","ts":3.0,"pid":1,"tid":1},
            {"name":"r","cat":"c","ph":"b","ts":3.5,"pid":1,"tid":2,"id":7},
            {"name":"x","cat":"c","ph":"i","ts":4.0,"pid":1,"tid":1,"s":"t"},
            {"name":"r","cat":"c","ph":"e","ts":4.5,"pid":1,"tid":1,"id":7},
            {"name":"a","cat":"c","ph":"E","ts":5.0,"pid":1,"tid":1}
        ],"otherData":{"dropped":2}}"#;
        let stats = validate_chrome_trace(text).unwrap();
        assert_eq!(stats.events, 7);
        assert_eq!(stats.sync_pairs, 2);
        assert_eq!(stats.async_pairs, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.dropped, 2);
    }

    #[test]
    fn checker_rejects_unbalanced_and_nonmonotonic() {
        let unbalanced = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"B","ts":1.0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("never closed"));

        let crossed = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"B","ts":1.0,"pid":1,"tid":1},
            {"name":"b","cat":"c","ph":"B","ts":2.0,"pid":1,"tid":1},
            {"name":"a","cat":"c","ph":"E","ts":3.0,"pid":1,"tid":1},
            {"name":"b","cat":"c","ph":"E","ts":4.0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(crossed)
            .unwrap_err()
            .contains("does not match"));

        let backwards = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"B","ts":5.0,"pid":1,"tid":1},
            {"name":"a","cat":"c","ph":"E","ts":4.0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("backwards"));
    }
}
