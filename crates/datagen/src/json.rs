//! Workload persistence: save/load a generated workload (objects + queries)
//! as JSON, so a benchmark run is exactly reproducible on another host.
//!
//! The build environment has no crate registry, so `serde_json` is not
//! available; this module carries a small, dependency-free JSON value model
//! ([`JsonValue`]) with a writer and a recursive-descent parser, plus the
//! [`SavedWorkload`] schema built on top of it. Floating-point values are
//! written with Rust's shortest-roundtrip formatting, so a save/load cycle
//! reproduces every coordinate bit for bit.

use odyssey_geom::{
    Aabb, CountQuery, DatasetId, DatasetSet, KnnQuery, ObjectId, PointQuery, Query, QueryId,
    RangeQuery, SpatialObject, Vec3,
};
use std::fmt::Write as _;
use std::path::Path;

/// A parse or schema error, with the byte offset where it was detected
/// (offset 0 for schema-level errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was found.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn schema_err(message: impl Into<String>) -> JsonError {
    JsonError {
        offset: 0,
        message: message.into(),
    }
}

/// A JSON document value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. `f64` holds integers up to 2⁵³ exactly — far beyond
    /// any id this workspace produces.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, with insertion order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document (must contain exactly one value).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_whitespace();
        let value = p.value()?;
        p.skip_whitespace();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Serializes the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(*n, out),
            JsonValue::String(s) => write_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    debug_assert!(n.is_finite(), "JSON cannot represent {n}");
    if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Shortest representation that round-trips through f64 parsing.
        let _ = write!(out, "{n:?}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
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
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for this
                            // workspace's data; reject them explicitly.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c => {
                    // Re-assemble UTF-8 multibyte sequences byte by byte.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let len = utf8_len(c);
                        let end = start + len;
                        let s = self
                            .bytes
                            .get(start..end)
                            .and_then(|b| std::str::from_utf8(b).ok())
                            .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Schema version tag written into every file.
pub const WORKLOAD_FORMAT: &str = "odyssey-workload-v1";

/// A fully materialized workload: the brain volume, the raw objects of every
/// dataset, and the typed query sequence. Save it next to a benchmark result
/// and any host can replay the identical run.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedWorkload {
    /// The brain volume the engine is configured with.
    pub bounds: Aabb,
    /// Every object of every dataset, in raw-file order.
    pub objects: Vec<SpatialObject>,
    /// The typed query sequence, in execution order.
    pub queries: Vec<Query>,
}

fn vec3_json(v: Vec3) -> JsonValue {
    JsonValue::Array(v.to_array().iter().map(|&c| JsonValue::Number(c)).collect())
}

fn vec3_from(value: &JsonValue, what: &str) -> Result<Vec3, JsonError> {
    let items = value
        .as_array()
        .filter(|a| a.len() == 3)
        .ok_or_else(|| schema_err(format!("{what}: expected [x, y, z]")))?;
    let mut out = [0.0f64; 3];
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = item
            .as_f64()
            .ok_or_else(|| schema_err(format!("{what}: non-numeric component")))?;
    }
    Ok(Vec3::from_array(out))
}

fn aabb_json(b: &Aabb) -> JsonValue {
    JsonValue::Object(vec![
        ("min".into(), vec3_json(b.min)),
        ("max".into(), vec3_json(b.max)),
    ])
}

fn aabb_from(value: &JsonValue, what: &str) -> Result<Aabb, JsonError> {
    let min = vec3_from(
        value
            .get("min")
            .ok_or_else(|| schema_err(format!("{what}: missing 'min'")))?,
        what,
    )?;
    let max = vec3_from(
        value
            .get("max")
            .ok_or_else(|| schema_err(format!("{what}: missing 'max'")))?,
        what,
    )?;
    Ok(Aabb::new(min, max))
}

fn datasets_json(set: DatasetSet) -> JsonValue {
    JsonValue::Array(set.iter().map(|d| JsonValue::Number(d.0 as f64)).collect())
}

fn datasets_from(value: &JsonValue, what: &str) -> Result<DatasetSet, JsonError> {
    let items = value
        .as_array()
        .ok_or_else(|| schema_err(format!("{what}: expected a dataset array")))?;
    let mut set = DatasetSet::EMPTY;
    for item in items {
        let id = item
            .as_u64()
            .filter(|&v| v < 64)
            .ok_or_else(|| schema_err(format!("{what}: invalid dataset id")))?;
        set.insert(DatasetId(id as u16));
    }
    Ok(set)
}

fn field<'v>(value: &'v JsonValue, key: &str, what: &str) -> Result<&'v JsonValue, JsonError> {
    value
        .get(key)
        .ok_or_else(|| schema_err(format!("{what}: missing '{key}'")))
}

fn object_json(o: &SpatialObject) -> JsonValue {
    JsonValue::Object(vec![
        ("id".into(), JsonValue::Number(o.id.0 as f64)),
        ("dataset".into(), JsonValue::Number(o.dataset.0 as f64)),
        ("min".into(), vec3_json(o.mbr.min)),
        ("max".into(), vec3_json(o.mbr.max)),
    ])
}

fn object_from(obj: &JsonValue, what: &str) -> Result<SpatialObject, JsonError> {
    let id = field(obj, "id", what)?
        .as_u64()
        .ok_or_else(|| schema_err(format!("{what}: invalid id")))?;
    let dataset = field(obj, "dataset", what)?
        .as_u64()
        .filter(|&v| v < 64)
        .ok_or_else(|| schema_err(format!("{what}: invalid dataset")))?;
    let min = vec3_from(field(obj, "min", what)?, what)?;
    let max = vec3_from(field(obj, "max", what)?, what)?;
    Ok(SpatialObject::new(
        ObjectId(id),
        DatasetId(dataset as u16),
        Aabb::new(min, max),
    ))
}

/// Serializes a typed query as the fields every saved format shares.
fn query_fields(q: &Query) -> Vec<(String, JsonValue)> {
    let mut fields = vec![
        ("kind".into(), JsonValue::String(q.kind().name().into())),
        ("id".into(), JsonValue::Number(q.id().0 as f64)),
    ];
    match q {
        Query::Range(q) => {
            fields.push(("range".into(), aabb_json(&q.range)));
        }
        Query::Point(q) => {
            fields.push(("point".into(), vec3_json(q.point)));
        }
        Query::KNearestNeighbors(q) => {
            fields.push(("point".into(), vec3_json(q.point)));
            fields.push(("k".into(), JsonValue::Number(q.k as f64)));
        }
        Query::Count(q) => {
            fields.push(("range".into(), aabb_json(&q.range)));
        }
    }
    fields.push(("datasets".into(), datasets_json(q.datasets())));
    fields
}

fn query_from(q: &JsonValue, what: &str) -> Result<Query, JsonError> {
    let kind = field(q, "kind", what)?
        .as_str()
        .ok_or_else(|| schema_err(format!("{what}: 'kind' must be a string")))?;
    let id = QueryId(
        field(q, "id", what)?
            .as_u64()
            .ok_or_else(|| schema_err(format!("{what}: invalid id")))? as u32,
    );
    let datasets = datasets_from(field(q, "datasets", what)?, what)?;
    Ok(match kind {
        "range" => Query::Range(RangeQuery::new(
            id,
            aabb_from(field(q, "range", what)?, what)?,
            datasets,
        )),
        "point" => Query::Point(PointQuery::new(
            id,
            vec3_from(field(q, "point", what)?, what)?,
            datasets,
        )),
        "knn" => Query::KNearestNeighbors(KnnQuery::new(
            id,
            vec3_from(field(q, "point", what)?, what)?,
            field(q, "k", what)?
                .as_u64()
                .ok_or_else(|| schema_err(format!("{what}: invalid k")))? as usize,
            datasets,
        )),
        "count" => Query::Count(CountQuery::new(
            id,
            aabb_from(field(q, "range", what)?, what)?,
            datasets,
        )),
        other => {
            return Err(schema_err(format!("{what}: unknown kind '{other}'")));
        }
    })
}

impl SavedWorkload {
    /// Serializes the workload as a JSON document.
    pub fn to_json(&self) -> String {
        let objects = self.objects.iter().map(object_json).collect();
        let queries = self
            .queries
            .iter()
            .map(|q| JsonValue::Object(query_fields(q)))
            .collect();
        JsonValue::Object(vec![
            ("format".into(), JsonValue::String(WORKLOAD_FORMAT.into())),
            ("bounds".into(), aabb_json(&self.bounds)),
            ("objects".into(), JsonValue::Array(objects)),
            ("queries".into(), JsonValue::Array(queries)),
        ])
        .to_json()
    }

    /// Parses a workload from its JSON document.
    pub fn from_json(input: &str) -> Result<SavedWorkload, JsonError> {
        let doc = JsonValue::parse(input)?;
        let format = field(&doc, "format", "document")?
            .as_str()
            .ok_or_else(|| schema_err("document: 'format' must be a string"))?;
        if format != WORKLOAD_FORMAT {
            return Err(schema_err(format!(
                "unsupported format '{format}' (expected '{WORKLOAD_FORMAT}')"
            )));
        }
        let bounds = aabb_from(field(&doc, "bounds", "document")?, "bounds")?;
        let mut objects = Vec::new();
        for (i, obj) in field(&doc, "objects", "document")?
            .as_array()
            .ok_or_else(|| schema_err("document: 'objects' must be an array"))?
            .iter()
            .enumerate()
        {
            objects.push(object_from(obj, &format!("objects[{i}]"))?);
        }
        let mut queries = Vec::new();
        for (i, q) in field(&doc, "queries", "document")?
            .as_array()
            .ok_or_else(|| schema_err("document: 'queries' must be an array"))?
            .iter()
            .enumerate()
        {
            queries.push(query_from(q, &format!("queries[{i}]"))?);
        }
        Ok(SavedWorkload {
            bounds,
            objects,
            queries,
        })
    }

    /// Writes the workload to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a workload from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<SavedWorkload> {
        let text = std::fs::read_to_string(path)?;
        SavedWorkload::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixed::{MixedWorkloadSpec, QueryKindMix};
    use crate::workload::WorkloadSpec;

    fn bounds() -> Aabb {
        Aabb::from_min_max(Vec3::ZERO, Vec3::splat(1000.0))
    }

    fn sample() -> SavedWorkload {
        let mixed = MixedWorkloadSpec {
            base: WorkloadSpec {
                num_queries: 60,
                ..Default::default()
            },
            mix: QueryKindMix::balanced(),
        }
        .generate(&bounds());
        let objects = (0..100u64)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(i),
                    DatasetId((i % 10) as u16),
                    Aabb::from_center_extent(
                        Vec3::splat(1.0 + (i as f64) * 9.87654321),
                        Vec3::new(0.1, 1e-6, 3.5),
                    ),
                )
            })
            .collect();
        SavedWorkload {
            bounds: bounds(),
            objects,
            queries: mixed.queries,
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let w = sample();
        let json = w.to_json();
        let back = SavedWorkload::from_json(&json).unwrap();
        assert_eq!(w, back);
        // Serialization is deterministic.
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn file_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("workload.json");
        let w = sample();
        w.save(&path).unwrap();
        assert_eq!(SavedWorkload::load(&path).unwrap(), w);
    }

    #[test]
    fn json_value_parser_handles_the_grammar() {
        let doc = r#" {"a": [1, -2.5, 1e-6], "b": "x\n\"y\"", "c": true, "d": null, "e": {}} "#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("c").unwrap(), &JsonValue::Bool(true));
        assert_eq!(v.get("d").unwrap(), &JsonValue::Null);
        assert_eq!(v.get("e").unwrap(), &JsonValue::Object(Vec::new()));
        // Unicode escape and multibyte passthrough.
        let s = JsonValue::parse(r#""éé""#).unwrap();
        assert_eq!(s.as_str(), Some("éé"));
        // to_json round-trips.
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1} extra",
            "[01a]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn schema_errors_are_reported() {
        assert!(SavedWorkload::from_json("{}").is_err());
        let wrong_format = r#"{"format": "other", "bounds": {"min": [0,0,0], "max": [1,1,1]}, "objects": [], "queries": []}"#;
        assert!(SavedWorkload::from_json(wrong_format).is_err());
        let bad_kind = r#"{"format": "odyssey-workload-v1", "bounds": {"min": [0,0,0], "max": [1,1,1]}, "objects": [], "queries": [{"kind": "warp", "id": 0, "datasets": []}]}"#;
        let err = SavedWorkload::from_json(bad_kind).unwrap_err();
        assert!(err.message.contains("unknown kind"), "{err}");
        let ok = r#"{"format": "odyssey-workload-v1", "bounds": {"min": [0,0,0], "max": [1,1,1]}, "objects": [], "queries": []}"#;
        let w = SavedWorkload::from_json(ok).unwrap();
        assert!(w.objects.is_empty() && w.queries.is_empty());
    }
}
