//! Machine-readable inventory of the workspace's `unsafe` surface.
//!
//! Committed at the repo root as `unsafe_inventory.json`, regenerated by
//! `cargo run -p rflash-analyze -- inventory`, and diffed in CI so the
//! unsafe surface can only grow through a reviewed change to the baseline.
//! The JSON writer is hand-rolled (this crate is dependency-free) and
//! deterministic: sites sort by (crate, file, line) and maps keep insertion
//! order, so identical trees serialize to identical bytes.

use crate::rules::{unsafe_sites, UnsafeKind};
use crate::source::SourceFile;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InventoryEntry {
    pub krate: String,
    pub file: String,
    pub line: usize,
    pub kind: UnsafeKind,
    pub in_test: bool,
    /// First ~200 chars of the attached SAFETY justification, if any.
    pub safety: Option<String>,
}

#[derive(Clone, Debug, Default)]
pub struct Inventory {
    pub entries: Vec<InventoryEntry>,
}

impl Inventory {
    /// Add every unsafe site of one parsed file.
    pub fn add_file(&mut self, sf: &SourceFile) {
        let krate = crate_of(&sf.rel);
        for site in unsafe_sites(sf) {
            self.entries.push(InventoryEntry {
                krate: krate.clone(),
                file: sf.rel.clone(),
                line: site.line,
                kind: site.kind,
                in_test: site.in_test,
                safety: site.safety,
            });
        }
    }

    /// Canonical ordering; call before serializing.
    pub fn finish(&mut self) {
        self.entries
            .sort_by(|a, b| (&a.krate, &a.file, a.line).cmp(&(&b.krate, &b.file, b.line)));
    }

    pub fn total(&self) -> usize {
        self.entries.len()
    }

    pub fn with_safety(&self) -> usize {
        self.entries.iter().filter(|e| e.safety.is_some()).count()
    }

    /// Serialize deterministically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"generated_by\": \"rflash-analyze inventory\",\n");
        out.push_str(&format!("  \"total_sites\": {},\n", self.total()));
        out.push_str(&format!("  \"with_safety\": {},\n", self.with_safety()));

        // Per-crate summary in crate order.
        let mut crates: Vec<&str> = Vec::new();
        for e in &self.entries {
            if crates.last() != Some(&e.krate.as_str()) && !crates.contains(&e.krate.as_str()) {
                crates.push(&e.krate);
            }
        }
        out.push_str("  \"per_crate\": {");
        for (i, c) in crates.iter().enumerate() {
            let n = self.entries.iter().filter(|e| e.krate == *c).count();
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_str(c), n));
        }
        out.push_str(if crates.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"sites\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"crate\": {}, ", json_str(&e.krate)));
            out.push_str(&format!("\"file\": {}, ", json_str(&e.file)));
            out.push_str(&format!("\"line\": {}, ", e.line));
            out.push_str(&format!("\"kind\": {}, ", json_str(e.kind.as_str())));
            out.push_str(&format!("\"in_test\": {}, ", e.in_test));
            match &e.safety {
                Some(s) => out.push_str(&format!("\"safety\": {}", json_str(s))),
                None => out.push_str("\"safety\": null"),
            }
            out.push('}');
        }
        out.push_str(if self.entries.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// Crate display name for a workspace-relative path.
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("rflash-{name}"),
        _ => "rflash".to_string(),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_is_deterministic_and_sorted() {
        let a = SourceFile::parse(
            "crates/mesh/src/b.rs",
            "// SAFETY: exclusive access is guaranteed by the caller's lock.\nunsafe fn f() {}\n",
        );
        let b = SourceFile::parse("crates/hugepages/src/a.rs", "fn g() { unsafe { h(); } }\n");
        let mut inv1 = Inventory::default();
        inv1.add_file(&a);
        inv1.add_file(&b);
        inv1.finish();
        let mut inv2 = Inventory::default();
        inv2.add_file(&b);
        inv2.add_file(&a);
        inv2.finish();
        assert_eq!(inv1.to_json(), inv2.to_json());
        assert_eq!(inv1.entries[0].krate, "rflash-hugepages");
        assert_eq!(inv1.total(), 2);
        assert_eq!(inv1.with_safety(), 1);
    }

    #[test]
    fn json_escaping_handles_quotes() {
        assert_eq!(json_str("a\"b\\c"), r#""a\"b\\c""#);
    }

    #[test]
    fn empty_inventory_serializes() {
        let mut inv = Inventory::default();
        inv.finish();
        let json = inv.to_json();
        assert!(json.contains("\"total_sites\": 0"));
        assert!(json.contains("\"sites\": []"));
    }
}
