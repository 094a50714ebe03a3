//! The one writer behind every machine-readable benchmark record
//! (`BENCH_*.json`).
//!
//! A record opens with a fixed header — `experiment`, `bench_meta` and
//! `scale` — followed by named sections in the order they are added.
//! A section is either an array of [`Object`]s, one per line, or a
//! single object (or `null`). Each cell type builds its [`Object`] in
//! one place, naming every float's decimal places, so a regenerated
//! record keeps the shape of the committed one. Hand-rolled JSON: the
//! workspace is dependency-free by design.

use std::fmt::{self, Display, Write};

use crate::experiments::Scale;

/// One JSON object rendered on a single line: `{"key": value, ...}`.
#[derive(Default)]
pub struct Object {
    fields: String,
}

impl Object {
    /// An empty object, `{}`.
    pub fn new() -> Object {
        Object::default()
    }

    /// A field whose value renders as JSON text.
    fn field(mut self, key: &str, value: impl Display) -> Object {
        if !self.fields.is_empty() {
            self.fields.push_str(", ");
        }
        write!(self.fields, "\"{key}\": {value}").unwrap();
        self
    }

    /// A string field.
    pub fn str(self, key: &str, value: &str) -> Object {
        self.field(key, format_args!("\"{}\"", crate::json_escape(value)))
    }

    /// An integer field.
    pub fn int(self, key: &str, value: impl Display) -> Object {
        self.field(key, value)
    }

    /// A float field printed with exactly `decimals` decimal places.
    pub fn num(self, key: &str, value: f64, decimals: usize) -> Object {
        self.field(key, format_args!("{value:.decimals$}"))
    }

    /// A nested object field.
    pub fn obj(self, key: &str, value: Object) -> Object {
        self.field(key, value)
    }
}

impl Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.fields)
    }
}

/// A `BENCH_*.json` document under construction; [`Record::finish`]
/// returns its text.
pub struct Record {
    out: String,
}

impl Record {
    /// The header: experiment name, this build's
    /// [`bench_meta_json`](crate::bench_meta_json), and the scale.
    pub fn new(experiment: &str, scale: Scale) -> Record {
        let scale = match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        };
        Record {
            out: format!(
                "{{\n  \"experiment\": \"{experiment}\",\n  \"bench_meta\": {},\n  \
                 \"scale\": \"{scale}\"",
                crate::bench_meta_json()
            ),
        }
    }

    /// A section holding an array of objects, one per line.
    pub fn array(mut self, key: &str, items: impl IntoIterator<Item = Object>) -> Record {
        write!(self.out, ",\n  \"{key}\": [").unwrap();
        let mut sep = "\n    ";
        for item in items {
            write!(self.out, "{sep}{item}").unwrap();
            sep = ",\n    ";
        }
        self.out.push_str("\n  ]");
        self
    }

    /// A section holding one object, or `null` when there is none.
    pub fn object(mut self, key: &str, value: Option<Object>) -> Record {
        let value = value.map_or_else(|| "null".to_string(), |o| o.to_string());
        write!(self.out, ",\n  \"{key}\": {value}").unwrap();
        self
    }

    /// Closes the document.
    pub fn finish(mut self) -> String {
        self.out.push_str("\n}\n");
        self.out
    }
}
