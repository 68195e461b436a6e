//! Hierarchical timing spans: CPD total → iteration → mode → kernel.

/// One node of the span tree. Children's durations nest inside the
/// parent's (the parent may carry extra time not covered by children —
/// e.g. convergence checks inside an iteration).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanNode {
    pub label: String,
    pub nanos: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    pub fn new(label: impl Into<String>) -> Self {
        SpanNode {
            label: label.into(),
            nanos: 0,
            children: Vec::new(),
        }
    }

    pub fn leaf(label: impl Into<String>, nanos: u64) -> Self {
        SpanNode {
            label: label.into(),
            nanos,
            children: Vec::new(),
        }
    }

    pub(crate) fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }

    pub fn push(&mut self, child: SpanNode) {
        self.children.push(child);
    }

    /// Sum of direct children's durations.
    pub(crate) fn child_nanos(&self) -> u64 {
        self.children.iter().map(|c| c.nanos).sum()
    }

    /// Depth-first search by label.
    pub fn find(&self, label: &str) -> Option<&SpanNode> {
        if self.label == label {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(label))
    }

    /// True if, at every node, children's total does not exceed the parent
    /// by more than `slack_nanos` (clock granularity slack).
    pub fn is_nested(&self, slack_nanos: u64) -> bool {
        self.child_nanos() <= self.nanos.saturating_add(slack_nanos)
            && self.children.iter().all(|c| c.is_nested(slack_nanos))
    }

    /// Indented text rendering (two spaces per level).
    pub(crate) fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "{:indent$}{label:<24} {secs:>10.4}s",
            "",
            indent = depth * 2,
            label = self.label,
            secs = self.seconds()
        );
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpanNode {
        let mut root = SpanNode::leaf("cpd", 1_000);
        let mut iter = SpanNode::leaf("iteration 0", 900);
        iter.push(SpanNode::leaf("mode 0", 400));
        iter.push(SpanNode::leaf("fit", 100));
        root.push(iter);
        root
    }

    #[test]
    fn nesting_and_find() {
        let root = sample();
        assert!(root.is_nested(0));
        assert_eq!(root.child_nanos(), 900);
        assert_eq!(root.find("fit").unwrap().nanos, 100);
        assert!(root.find("nope").is_none());
    }

    #[test]
    fn violated_nesting_detected() {
        let mut root = SpanNode::leaf("cpd", 100);
        root.push(SpanNode::leaf("big child", 500));
        assert!(!root.is_nested(10));
        assert!(root.is_nested(400));
    }

    #[test]
    fn renders_indented() {
        let mut out = String::new();
        sample().render_into(&mut out, 0);
        assert!(out.contains("cpd"));
        assert!(out.contains("  iteration 0"));
        assert!(out.contains("    mode 0"));
    }
}
