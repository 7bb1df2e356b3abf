//! Textual rendering of the SASE UI (Figure 3).
//!
//! The paper's UI shows five windows: "Present Queries", "Message Results",
//! "Cleaning and Association Layer Output", "Database Report", and "Stream
//! Processor Output". [`UiReport`] captures the same taps as structured
//! text so the demo runs headless.

use std::fmt::Write as _;

use sase_core::output::ComplexEvent;

use crate::system::SaseSystem;

/// A snapshot of the five UI windows.
#[derive(Debug, Clone, Default)]
pub struct UiReport {
    /// "Present Queries": name and canonical text of each registered query.
    pub present_queries: Vec<(String, String)>,
    /// "Message Results": one user-facing message per detection.
    pub message_results: Vec<String>,
    /// "Cleaning and Association Layer Output": recent cleaned events.
    pub cleaning_output: Vec<String>,
    /// "Database Report": database work triggered by stream queries.
    pub database_report: Vec<String>,
    /// "Stream Processor Output": the raw values computed by the stream
    /// side of each query, before the database join.
    pub stream_output: Vec<String>,
}

impl UiReport {
    /// Capture a snapshot of a running system.
    pub fn capture(system: &SaseSystem, engine_query_names: &[String]) -> UiReport {
        let mut report = UiReport::default();
        for name in engine_query_names {
            // The system's engine owns the texts; capture is best-effort.
            report.present_queries.push((name.clone(), String::new()));
        }
        for e in system.cleaning_tap() {
            report.cleaning_output.push(e.to_string());
        }
        for d in system.detections() {
            report.add_detection(d);
        }
        report
    }

    /// Record one detection across the windows it touches.
    pub fn add_detection(&mut self, d: &ComplexEvent) {
        // Stream Processor Output: scalar values except DB-function joins.
        let mut stream_vals = Vec::new();
        let mut db_vals = Vec::new();
        for (name, value) in d.values.iter() {
            if name.starts_with('_') {
                db_vals.push(format!("{name} -> {value}"));
            } else {
                stream_vals.push(format!("{name}={value}"));
            }
        }
        self.stream_output.push(format!(
            "[{}@{}] {}",
            d.query,
            d.detected_at,
            stream_vals.join(", ")
        ));
        for v in &db_vals {
            self.database_report.push(format!("[{}] {v}", d.query));
        }
        // Message Results: the fully-joined user message.
        let mut msg = format!("{} detected at t={}", d.query, d.detected_at);
        if !d.values.is_empty() {
            let all: Vec<String> = d.values.iter().map(|(n, v)| format!("{n}: {v}")).collect();
            msg.push_str(&format!(" — {}", all.join(", ")));
        }
        self.message_results.push(msg);
    }

    /// Render all five windows as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let window = |out: &mut String, title: &str, lines: &[String]| {
            let _ = writeln!(out, "==== {title} ====");
            if lines.is_empty() {
                let _ = writeln!(out, "(empty)");
            }
            for l in lines {
                let _ = writeln!(out, "{l}");
            }
            let _ = writeln!(out);
        };
        let queries: Vec<String> = self
            .present_queries
            .iter()
            .map(|(n, t)| {
                if t.is_empty() {
                    n.clone()
                } else {
                    format!("{n}:\n{t}")
                }
            })
            .collect();
        window(&mut out, "Present Queries", &queries);
        window(&mut out, "Message Results", &self.message_results);
        window(
            &mut out,
            "Cleaning and Association Layer Output",
            &self.cleaning_output,
        );
        window(&mut out, "Database Report", &self.database_report);
        window(&mut out, "Stream Processor Output", &self.stream_output);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sase_core::value::Value;
    use std::sync::Arc;

    fn detection() -> ComplexEvent {
        ComplexEvent {
            query: Arc::from("shoplifting"),
            variables: Arc::from([]),
            events: Arc::from([]),
            values: Arc::from([
                (Arc::from("x.TagId"), Value::Int(7)),
                (Arc::from("x.ProductName"), Value::str("soap")),
                (
                    Arc::from("_retrieveLocation(z.AreaId)"),
                    Value::str("the leftmost door on the south side of the store"),
                ),
            ]),
            detected_at: 42,
            into: None,
        }
    }

    #[test]
    fn detection_routed_to_windows() {
        let mut r = UiReport::default();
        r.add_detection(&detection());
        assert_eq!(r.message_results.len(), 1);
        assert!(r.message_results[0].contains("shoplifting detected at t=42"));
        assert!(r.message_results[0].contains("soap"));
        assert_eq!(r.stream_output.len(), 1);
        assert!(r.stream_output[0].contains("x.TagId=7"));
        assert!(!r.stream_output[0].contains("door"));
        assert_eq!(r.database_report.len(), 1);
        assert!(r.database_report[0].contains("door"));
    }

    #[test]
    fn render_contains_all_window_titles() {
        let mut r = UiReport::default();
        r.present_queries
            .push(("shoplifting".into(), "EVENT ...".into()));
        r.add_detection(&detection());
        let text = r.render();
        for title in [
            "Present Queries",
            "Message Results",
            "Cleaning and Association Layer Output",
            "Database Report",
            "Stream Processor Output",
        ] {
            assert!(text.contains(title), "missing window {title}");
        }
        assert!(text.contains("(empty)")); // cleaning window has no entries
    }
}
